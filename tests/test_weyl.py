import json
from fractions import Fraction
from functools import reduce
from types import MappingProxyType

import numpy as np
import pytest
from conftest import apply_terms, dense_image_basis, principal_angles, terms_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import weyl
from diraclab.cli import EXIT_FAIL, main
from diraclab.tensoridx import compose, inverse, scale
from diraclab.weyl import (
    apply_projector,
    check_membership,
    exact_checks,
    weyl_dim,
    weyl_space,
)

LAMS = ["21", "22", "311"]
KS = [2, 3, 4, 5]

# dimensions stated for the degenerate two-variable case: the square module
# is a line, the hook module is trivial
DEGENERATE_K2 = {"21": 2, "22": 1, "311": 0}
# the dense oracle stays small enough to be cheap up to k = 3
ORACLE_KS = [2, 3]


def _dense(k, lam):
    # oracle matrices of the projector C and the normalized symmetrizer Y
    return terms_matrix(weyl.projector_terms(lam), k), terms_matrix(weyl.young_terms(lam), k)


def _project(k, lam, mat):
    # the projector applied to the columns of a (k**m, w) matrix
    m = weyl.PARTITIONS[lam][1]
    w = mat.shape[1]
    return apply_projector(lam, mat.reshape((k,) * m + (w,))).reshape(k**m, w)


@pytest.mark.parametrize("lam", LAMS)
def test_projector_factors_multiply_to_terms_and_are_symmetric(lam):
    # C_lam is kept as its group-sum factors; their product is C_lam exactly
    # in Q[S_m], the independently built Young symmetrizer with its 4, 16 or
    # 36 terms, and each factor is its own transpose, so C_lam^T applies the
    # same factors in reverse order
    factors = weyl.projector_factors(lam)
    assert len(factors) == {"21": 2, "22": 4, "311": 2}[lam]
    product = reduce(compose, factors)
    assert product == dict(weyl.projector_terms(lam)) == dict(weyl.young_terms(lam))
    assert len(product) == {"21": 4, "22": 16, "311": 36}[lam]
    for x in factors:
        assert dict(x) == {inverse(p): c for p, c in x.items()}


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("lam", LAMS)
def test_apply_projector_matches_term_by_term(k, lam, rng):
    # the factors applied right to left equal C_lam's terms applied one by
    # one, to roundoff relative to the output; where the module is zero
    # (the hook at k = 2) both outputs are roundoff of the input
    m = weyl.PARTITIONS[lam][1]
    shape = (k,) * m + (2, 3)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got, want = apply_projector(lam, h), apply_terms(weyl.projector_terms(lam), h)
    assert got.shape == want.shape == shape
    if weyl_dim(k, lam):
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    else:
        assert max(np.linalg.norm(got), np.linalg.norm(want)) <= 1e-15 * np.linalg.norm(h)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("lam", LAMS)
def test_projector_idempotent(k, lam):
    assert exact_checks(k, lam)["projector_idempotent"] == 0.0
    if k in ORACLE_KS:
        p, _ = _dense(k, lam)
        norm = np.linalg.norm(p)
        assert np.linalg.norm(p @ p - p) <= 1e-10 * max(norm, 1e-300)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("lam", LAMS)
def test_young_idempotent_and_image(k, lam):
    exact = exact_checks(k, lam)
    assert exact["symmetrizer_idempotent"] == 0.0
    assert exact["image_equality"] == 0.0
    assert exact["trace_y"] == exact["trace_c"] == weyl_space(k, lam).dim
    if k in ORACLE_KS:
        _, ym = _dense(k, lam)
        norm = np.linalg.norm(ym)
        assert np.linalg.norm(ym @ ym - ym) <= 1e-10 * max(norm, 1e-300)
        ws = weyl_space(k, lam)
        ybasis = dense_image_basis(ym)
        assert ybasis.shape[1] == ws.dim
        if ws.dim:
            assert principal_angles(ws.basis, ybasis).max() <= 1e-8


@pytest.mark.parametrize("k", ORACLE_KS)
@pytest.mark.parametrize("lam", LAMS)
def test_group_algebra_matches_dense_oracle(k, lam):
    # products and traces of the exact route against the dense matrices,
    # including C^2, CY and YC
    c, y = weyl.projector_terms(lam), weyl.young_terms(lam)
    cm, ym = _dense(k, lam)
    for x, dense in ((c, cm), (y, ym), (compose(c, c), cm @ cm),
                     (compose(c, y), cm @ ym), (compose(y, c), ym @ cm)):
        mat = terms_matrix(x, k)
        assert np.abs(mat - dense).max() <= 1e-13
        trace = weyl.evaluate(weyl.trace_polynomial(x), k)
        assert float(trace) == pytest.approx(np.trace(dense), abs=1e-11)


_ELEMENT3 = st.dictionaries(
    st.permutations(range(3)).map(tuple),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
    max_size=6,
)


@settings(max_examples=30, deadline=None)
@given(_ELEMENT3, _ELEMENT3, st.sampled_from(ORACLE_KS))
def test_random_elements_match_dense_oracle(x, y, k):
    # elements on three slots: the product and trace of the group algebra
    # equal those of the dense matrices
    xm, ym = terms_matrix(x, k, 3), terms_matrix(y, k, 3)
    prod = compose(x, y)
    assert np.abs(terms_matrix(prod, k, 3) - xm @ ym).max() <= 1e-12
    assert float(weyl.evaluate(weyl.trace_polynomial(x), k)) == pytest.approx(
        np.trace(xm), abs=1e-10)


@pytest.mark.parametrize("lam", LAMS)
def test_cached_elements_are_immutable(lam):
    # lru_cache hands every caller the same element
    for x in (weyl.projector_terms(lam), weyl.young_terms(lam)):
        with pytest.raises(TypeError):
            x[next(iter(x))] = 0


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("lam", LAMS)
def test_sketch_basis_orthonormal_and_fixed(k, lam):
    # the name predates the tableau construction; the basis checked here is
    # built from semistandard tableaux, with no sketch
    ws = weyl_space(k, lam)
    b = ws.basis
    assert ws.dim == weyl_dim(k, lam) == b.shape[1]
    if ws.dim:
        assert np.abs(b.T @ b - np.eye(ws.dim)).max() <= 1e-12
        assert np.abs(_project(k, lam, b) - b).max() <= 1e-8


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("lam", LAMS)
def test_tableau_count_is_the_dimension(k, lam):
    # exact: no basis is built, so k = 6, 7 cost nothing; (2, "311") has none
    count = weyl._semistandard(k, lam).shape[1]
    assert count == weyl_dim(k, lam) == weyl.projector_rank(k, lam)
    if (k, lam) == (2, "311"):
        assert count == 0


@pytest.fixture()
def cold_weyl():
    # every cache a rebuild touches starts and ends empty
    caches = (weyl.weyl_space, weyl._gap, weyl._trace)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.usefixtures("cold_weyl")
def test_tableau_basis_is_deterministic(monkeypatch):
    built = {lam: weyl_space(4, lam).basis.copy() for lam in LAMS}
    weyl.weyl_space.cache_clear()
    weyl._gap.cache_clear()
    weyl._trace.cache_clear()
    legacy = np.random.get_state()

    def no_rng(*args, **kwargs):
        raise AssertionError("the basis build drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for lam in LAMS:
        again = weyl_space(4, lam).basis
        assert again.tobytes() == built[lam].tobytes()
    state = np.random.get_state()
    assert state[0] == legacy[0] and np.array_equal(state[1], legacy[1])
    assert state[2:] == legacy[2:]


@pytest.mark.usefixtures("cold_weyl")
def test_wrong_symmetrizer_fails_certification(monkeypatch, capsys):
    # 2 Y spans the same image as Y, and C (2 Y) = 2 Y, but the certificate
    # is the element equality C = Y, which 2 Y fails in Q[S_m]: C - 2 Y = -Y,
    # so the gap is Y's largest |coefficient|
    real = weyl.young_terms
    largest = float(max(map(abs, real("22").values())))
    monkeypatch.setattr(weyl, "young_terms", lambda lam: MappingProxyType(scale(real(lam), 2)))
    assert exact_checks(3, "22")["image_equality"] == largest
    with pytest.raises(ArithmeticError, match="C != Y"):
        weyl_space(3, "22")
    code = main(["verify", "--scope", "weyl", "--k", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_FAIL
    assert report["error"] == "certification"


@pytest.mark.usefixtures("cold_weyl")
def test_perturbed_projector_fails_idempotence(monkeypatch):
    # one coefficient of C moved, and Y set to the same element: C = Y still
    # holds, so only C C = C can refuse the basis
    c = dict(weyl.projector_terms("22"))
    c[next(iter(c))] += Fraction(1, 1000)
    bad = MappingProxyType(c)
    monkeypatch.setattr(weyl, "projector_terms", lambda lam: bad)
    monkeypatch.setattr(weyl, "young_terms", lambda lam: bad)
    gaps = exact_checks(3, "22")
    assert gaps["image_equality"] == 0.0
    assert gaps["projector_idempotent"] == gaps["symmetrizer_idempotent"] > 0.0
    with pytest.raises(ArithmeticError, match="C C != C"):
        weyl_space(3, "22")


@pytest.mark.usefixtures("cold_weyl")
def test_singular_gram_fails_certification(monkeypatch):
    def singular(gram):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", singular)
    with pytest.raises(ArithmeticError, match="dependent"):
        weyl_space(3, "21")


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("lam", LAMS)
def test_gram_matches_dense_oracle(k, lam):
    # the tableau images n Y e_T as columns of the oracle's dense n Y (n the
    # tableau factor, so every entry is an integer), and their Gram matrix,
    # both exact
    m, norm = weyl.PARTITIONS[lam][1], weyl._TABLEAU[lam][2]
    tableaux = weyl._semistandard(k, lam)
    count = tableaux.shape[1]
    oracle = terms_matrix(scale(weyl.young_terms(lam), norm), k)
    oracle = oracle[:, np.ravel_multi_index(tuple(tableaux), (k,) * m)].astype(np.int64)
    rows, cols, values, den = weyl._images(k, lam, tableaux)
    assert den == norm
    images = np.zeros_like(oracle)
    images[rows, cols] = values
    assert np.array_equal(images, oracle) and np.all(values != 0)
    gram = weyl._gram(rows, cols, values, count)
    assert gram.dtype == np.int64
    assert np.array_equal(gram, oracle.T @ oracle)
    b = weyl_space(k, lam).basis
    assert np.abs(b.T @ b - np.eye(count)).max() <= 1e-12


@pytest.mark.usefixtures("cold_weyl")
def test_cold_build_inverts_nothing(monkeypatch):
    # L^-1 comes from substitution on the tableau axis, not from inv or solve
    def refused(*args, **kwargs):
        raise AssertionError("the basis build called a dense inverse")

    monkeypatch.setattr(np.linalg, "inv", refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    ws = weyl_space(5, "311")
    assert ws.dim == 126
    assert np.abs(ws.basis.T @ ws.basis - np.eye(126)).max() <= 1e-12
    assert np.abs(_project(5, "311", ws.basis) - ws.basis).max() <= 1e-12


def _partner(witness):
    # the index the tested transpose moves the witness's index to
    other = [0] * len(witness["index"])
    for axis, source in enumerate(witness["transpose"]):
        other[source] = witness["index"][axis]
    return tuple(other)


def _symmetry_defect(record, basis, k):
    # |b[i, c] -/+ b[j, c]| at the witness's column c, index i and its
    # partner j, from the record and the basis alone
    w = record["witness"]
    cols = basis.reshape((k,) * len(w["index"]) + (-1,))
    sign = -1.0 if w["relation"] == "symmetric" else 1.0
    return abs(cols[tuple(w["index"]) + (w["column"],)]
               + sign * cols[_partner(w) + (w["column"],)])


def test_basis_symmetry_witness_replays(capsys):
    code = main(["verify", "--scope", "weyl", "--k", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    records = [c for c in report["checks"] if c["name"].startswith("basis_symmetry")]
    assert [c["name"] for c in records] == ["basis_symmetry lam=21 k=4",
                                             "basis_symmetry lam=311 k=4"]
    for record, lam in zip(records, ("21", "311")):
        assert _symmetry_defect(record, weyl_space(4, lam).basis, 4) == record["value"]


def test_basis_symmetry_witness_names_a_planted_defect(monkeypatch):
    # one entry of the (3, "311") basis moved by 1e-6: the record names it
    # (or the entry a tested transpose pairs it with), and the value replays
    from dataclasses import replace

    from diraclab import cli

    planted = (1, 0, 2, 1, 1)
    ws = weyl_space(3, "311")
    basis = ws.basis.copy()
    basis[np.ravel_multi_index(planted, (3,) * 5), 4] += 1e-6
    monkeypatch.setattr(weyl, "weyl_space", lambda k, lam: (
        replace(ws, basis=basis) if (k, lam) == (3, "311") else weyl_space(k, lam)))
    record = next(c for c in cli.checks_weyl(3) if c["name"] == "basis_symmetry lam=311 k=3")
    assert not record["pass"] and record["value"] > 1e-7
    assert record["witness"]["column"] == 4
    assert _symmetry_defect(record, basis, 3) == record["value"]
    assert planted in (tuple(record["witness"]["index"]), _partner(record["witness"]))


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("lam", LAMS)
def test_dimension_oracle(k, lam):
    assert weyl_space(k, lam).dim == weyl_dim(k, lam)


def test_degenerate_two_variable_dims():
    for lam, d in DEGENERATE_K2.items():
        assert weyl_space(2, lam).dim == d
        assert weyl_dim(2, lam) == d
    _, ym = _dense(2, "311")
    assert np.abs(ym).max() == 0.0


def test_young_action_ground_truth():
    # right action on the basis tensor with labels (3,2,1): the expansion is
    # (w321 + w312 - w123 - w132) / 3
    k, m = 4, 3
    mat = terms_matrix(weyl.young_terms("21"), k)

    def unit(labels):
        v = np.zeros(k**m)
        idx = 0
        for t, d in enumerate(labels):
            idx += d * k ** (m - 1 - t)
        v[idx] = 1.0
        return v

    got = mat @ unit((3, 2, 1))
    want = (unit((3, 2, 1)) + unit((3, 1, 2)) - unit((1, 2, 3)) - unit((1, 3, 2))) / 3.0
    assert np.abs(got - want).max() <= 1e-14


def test_projector_entry_by_hand():
    # C(h)[A,B,C] = (h[ABC] + h[ACB] - h[CBA] - h[BCA]) / 3
    rng = np.random.default_rng(7)
    k = 3
    h = rng.standard_normal((k, k, k))
    out = apply_projector("21", h)
    a, b, c = 1, 0, 2
    want = (h[a, b, c] + h[a, c, b] - h[c, b, a] - h[b, c, a]) / 3.0
    assert out[a, b, c] == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("lam", LAMS)
def test_membership_of_projected_tensors(lam, rng):
    k = 3
    m = weyl.PARTITIONS[lam][1]
    raw = rng.standard_normal((k,) * m)
    proj = apply_projector(lam, raw)
    # each tensor's residual: the last axis is the batch
    assert check_membership(lam, proj[..., None]) <= 1e-10
    assert check_membership(lam, np.zeros((k,) * m + (1,))) == 0.0
    # the complementary part is generically far from the module
    assert check_membership(lam, (raw - proj)[..., None]) > 1e-6


@pytest.mark.parametrize("lam,c", [("22", 6.0), ("311", 10.0 / 3.0)])
def test_membership_residual_is_the_operators_prefactor_times_the_gap(lam, c, rng):
    # on a tensor perturbed off the module, the residual is c ||C_lam h - h||,
    # c the prefactor of the operator whose outputs lie in the module:
    # D2' = 6 C22(grad) and D2'' = 10/3 C311(...)
    k = 3
    m = weyl.PARTITIONS[lam][1]
    h = apply_projector(lam, rng.standard_normal((k,) * m))
    h += 1e-3 * rng.standard_normal(h.shape)
    gap = np.linalg.norm(apply_projector(lam, h) - h)
    assert gap > 1e-6
    assert check_membership(lam, h[..., None])[0] == pytest.approx(c * gap, rel=1e-14)


def test_one_prefactor_table_scales_every_projector_form(monkeypatch, rng):
    # check_membership, the operators' projector forms and the symbols'
    # pullbacks all read weyl.PREFACTOR: doubling one entry doubles all three
    from diraclab import dirac_ops, symbols

    k, lam = 3, "22"
    h = rng.standard_normal((k,) * 4 + (1,))
    before = (check_membership(lam, h), dirac_ops._apply_projector(np.moveaxis(h, -1, 0), lam),
              symbols._pullback(k, lam))
    monkeypatch.setitem(weyl.PREFACTOR, lam, 2 * weyl.PREFACTOR[lam])
    after = (check_membership(lam, h), dirac_ops._apply_projector(np.moveaxis(h, -1, 0), lam),
             symbols._pullback(k, lam))
    for old, new in zip(before, after):
        assert np.abs(old).max() > 0 and (new == 2 * old).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_membership_projection_property(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((3, 3, 3))
    proj = apply_projector("21", h)
    assert check_membership("21", proj[..., None]) <= 1e-10


def test_membership_order_mismatch():
    with pytest.raises(ValueError):
        check_membership("22", np.zeros((3, 3, 3, 1)))
    with pytest.raises(ValueError):
        check_membership("21", np.zeros((27, 1)))  # tensor-shaped input only
    with pytest.raises(ValueError):
        check_membership("21", np.zeros((3, 3, 3)))  # no batch axis


def test_basis_symmetries():
    ws21 = weyl_space(3, "21")
    cols = ws21.basis.reshape(3, 3, 3, ws21.dim)
    assert np.abs(cols - cols.transpose(0, 2, 1, 3)).max() <= 1e-12

    ws311 = weyl_space(3, "311")
    cols = ws311.basis.reshape((3,) * 5 + (ws311.dim,))
    # symmetric in the slots carrying the underlined letters plus the last,
    # skew in the two outer skew slots
    assert np.abs(cols - cols.transpose(0, 3, 2, 1, 4, 5)).max() <= 1e-12
    assert np.abs(cols - cols.transpose(0, 1, 2, 4, 3, 5)).max() <= 1e-12
    assert np.abs(cols + cols.transpose(2, 1, 0, 3, 4, 5)).max() <= 1e-12


def test_basis_is_orthonormal_and_fixed():
    ws = weyl_space(4, "22")
    b = ws.basis
    assert np.abs(b.T @ b - np.eye(ws.dim)).max() <= 1e-12
    assert np.abs(_project(4, "22", b) - b).max() <= 1e-10
    assert np.abs(terms_matrix(weyl.projector_terms("22"), 4) @ b - b).max() <= 1e-10


def test_large_k_tableau_basis():
    # k=5 order-5 tensors: rank from the exact trace, basis from the 126
    # semistandard tableaux
    ws = weyl_space(5, "311")
    assert ws.dim == weyl.projector_rank(5, "311") == weyl_dim(5, "311") == 126
    assert np.abs(_project(5, "311", ws.basis) - ws.basis).max() <= 1e-8


def test_principal_angles_known_value():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    theta = 0.3
    b = np.array([[np.cos(theta), 0.0], [0.0, 1.0], [np.sin(theta), 0.0]])
    ang = principal_angles(a, b)
    assert ang.max() == pytest.approx(theta, abs=1e-12)
    with pytest.raises(ValueError):
        principal_angles(a, a[:, :1])


def test_rejects_small_k():
    with pytest.raises(ValueError):
        weyl_space(1, "21")
    with pytest.raises(ValueError):
        weyl_space(3, "42")
