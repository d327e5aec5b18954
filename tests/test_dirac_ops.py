import numpy as np
import pytest

from diraclab import build_clifford, dirac_ops
from diraclab.dirac_ops import (
    d0,
    d0_star,
    d1,
    d1_projector,
    d2p,
    d2p_projector,
    d2pp,
    d2pp_projector,
    laplacian,
    monogenic_basis,
    nabla,
)
from diraclab.fields import PolyField

from conftest import d1_star, delta_op, keyed, make_field, random_field, terms, total_degree

CONFIGS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]


def rel(x, ref):
    return x / max(ref, 1e-300)


def test_nabla_constant_is_zero(reps):
    rep = reps[2]
    f = make_field(2, 2, "V0", {(0, 0, 0, 0): np.array([1.0 + 0j])})
    assert nabla(0, f, rep).norm() == 0.0


def test_nabla_linear_monomial_by_hand(reps):
    # f = x_{A,1} s  ->  nabla_A f = gamma_1 s, a constant field
    rep = reps[3]
    s = np.array([1.0, 2.0j])
    for A in range(2):
        e = [0] * 6
        e[A * 3] = 1
        f = make_field(2, 3, "V0", {tuple(e): s})
        g = nabla(A, f, rep)
        assert set(terms(g)) == {(0,) * 6}
        assert np.allclose(terms(g)[(0,) * 6], rep.gamma_plus[0] @ s)


def test_nabla_index_range(reps):
    f = PolyField(2, 2, "V0")
    with pytest.raises(ValueError):
        nabla(2, f, reps[2])


def test_delta_commutes_with_nabla(reps, rng):
    rep = reps[2]
    for _ in range(5):
        f = random_field(rng, 3, 2, "V0", degree=3, nterms=5)
        a, b, c = rng.integers(0, 3, size=3)
        lhs = delta_op(b, c, nabla(a, f, rep), rep)
        rhs = nabla(a, delta_op(b, c, f, rep), rep)
        assert rel((lhs - rhs).norm(), f.norm()) <= 1e-12


@pytest.mark.parametrize("k,n", CONFIGS)
def test_complex_property(k, n, rng):
    rep = build_clifford(n)
    for _ in range(5):
        f = random_field(rng, k, n, "V0", degree=4, nterms=6)
        assert rel(d1(d0(f, rep), rep).norm(), f.norm()) <= 1e-9
        F = random_field(rng, k, n, "V1", degree=4, nterms=6)
        h = d1(F, rep)
        assert rel(h.membership_residual().max(initial=0.0), h.norm()) <= 1e-10
        if k >= 3:
            assert rel(d2p(h, rep).norm(), F.norm()) <= 1e-9
            assert rel(d2pp(h, rep).norm(), F.norm()) <= 1e-9


def assert_forms_agree(a, b, f):
    """The direct output `a` and projector output `b` of an operator on `f`
    agree, and `a` lies in its module, relative to `a`.

    An output below 1e-6 of its input vanishes in exact arithmetic and its
    norm is roundoff, so a ratio to it reads ~1 on correct values; there both
    norms and the membership residual are held to the same tolerance relative
    to f instead (the value rule of ``test_acceptance._form_gap``)."""
    vanishes = a.norm() < 1e-6 * f.norm()
    scale = f.norm() if vanishes else a.norm()
    if vanishes:
        assert rel(a.norm(), scale) <= 1e-10 and rel(b.norm(), scale) <= 1e-10
    assert rel((a - b).norm(), scale) <= 1e-10
    assert rel(a.membership_residual().max(initial=0.0), scale) <= 1e-10


@pytest.mark.parametrize("k,n", [(3, 2), (3, 3), (4, 2)])
def test_direct_vs_projector_forms(k, n, rng):
    rep = build_clifford(n)
    for _ in range(4):
        F = random_field(rng, k, n, "V1", degree=3, nterms=5)
        assert_forms_agree(d1(F, rep), d1_projector(F, rep), F)
        h = random_field(rng, k, n, "V2", degree=2, nterms=5)
        assert_forms_agree(d2p(h, rep), d2p_projector(h, rep), h)
        assert_forms_agree(d2pp(h, rep), d2pp_projector(h, rep), h)


def test_forms_agree_where_the_output_vanishes_at_full_degree():
    # a degree-2 V1 field whose D1 image, of order 2, vanishes in exact
    # arithmetic: its degree does not tell, the output's roundoff norm does
    rep = build_clifford(3)
    F = random_field(np.random.default_rng(52), 3, 3, "V1", degree=3, nterms=5)
    a = d1(F, rep)
    assert total_degree(F) == 2 and a.norm() < 1e-6 * F.norm()
    assert_forms_agree(a, d1_projector(F, rep), F)


@pytest.mark.parametrize("k,n", [(3, 2), (3, 3), (4, 2), (5, 2)])
def test_d2pp_matches_all_at_once_route(k, n, rng):
    # one joint stack and one output buffer give the values of the display
    # with all its terms formed side by side, on the rows it gives
    from conftest import d2pp_all_at_once

    rep = build_clifford(n)
    members = [random_field(rng, k, n, "V2", degree=3, nterms=4) for _ in range(4)]
    members.append(d1(random_field(rng, k, n, "V1", degree=4, nterms=6), rep))
    for h in members + [keyed(members)]:
        a, b = d2pp(h, rep), d2pp_all_at_once(h, rep)
        assert np.array_equal(a.expo, b.expo)
        assert rel((a - b).norm(), b.norm()) <= 1e-15


@pytest.mark.parametrize("k,n", CONFIGS)
def test_piece_sums_match_concatenated_sum_bitwise(k, n, rng):
    # nabla and the Laplacian add their pieces into one buffer on the joint
    # rows; the field constructor's sum of the concatenated pieces gives the
    # same rows and bytes, on plain fields of either chirality, keyed fields
    # and stacks.  Every exponent is raised by 2, so no output is empty, and
    # each field holds x^(m + e_i) and x^(m + 2 e_i) for every variable i, so
    # on row m every piece of nabla_A and of the Laplacian meets, n and k n
    # summands in one row, whose sum depends on the order of the adds.
    from conftest import dense, laplacian_concatenated, nabla_concatenated

    rep = build_clifford(n)
    kn, s = k * n, rep.s_dim
    m, eye = rng.integers(2, 4, kn), np.eye(kn, dtype=np.int64)
    hub = PolyField(k, n, "V0", np.concatenate((m + eye, m + 2 * eye)),
                    rng.standard_normal((2 * kn, s)) + 1j * rng.standard_normal((2 * kn, s)))
    plain = [random_field(rng, k, n, "V0", degree=4, nterms=6) for _ in range(3)]
    plain = [PolyField(k, n, "V0", g.expo[:, 1:] + 2, g.vals) + hub for g in plain]
    cases = [plain[0], nabla(k - 1, plain[1], rep), keyed(plain), dense(plain)]
    for f in cases:
        pairs = [(nabla(A, f, rep), nabla_concatenated(A, f, rep)) for A in range(k)]
        pairs.append((laplacian(f, rep), laplacian_concatenated(f)))
        for got, want in pairs:
            assert len(want) > 0 and got.space == want.space
            assert np.array_equal(got.expo, want.expo)
            assert got.vals.tobytes() == want.vals.tobytes()


def test_second_order_kills_constants(reps):
    rep = reps[2]
    const = make_field(3, 2, "V1", {(0,) * 6: np.ones((3, 1), dtype=complex)})
    assert d1(const, rep).norm() == 0.0


def test_first_order_branch_kills_constants(reps, rng):
    # both routes agree (trivially, at zero) on constant inputs
    rep = reps[2]
    h = random_field(rng, 3, 2, "V2", degree=0, nterms=2)
    assert d2p(h, rep).norm() == 0.0
    assert d2p_projector(h, rep).norm() == 0.0


def test_adjoint_composition_is_laplacian(reps, rng):
    rep = reps[2]
    for _ in range(5):
        f = random_field(rng, 2, 2, "V0", degree=2, nterms=5)
        lhs = d0_star(d0(f, rep), rep)
        rhs = laplacian(f, rep)
        assert rel((lhs - rhs).norm(), f.norm()) <= 1e-12


def test_zero_inputs(reps):
    rep = reps[2]
    assert d0_star(PolyField(2, 2, "V1"), rep).norm() == 0.0
    assert d1_star(PolyField(2, 2, "V2"), rep).norm() == 0.0


@pytest.mark.parametrize("k, n", [(2, 2), (3, 3), (4, 2)])
def test_zero_field_keeps_value_axes(k, n, reps):
    # every operator takes the zero field through its general path: the output
    # has its space's value axes, and a keyed input stays keyed
    from diraclab import boundary
    from diraclab.fields import SPACE_INFO, keyed_norms, keyed_residuals, stack

    rep = reps[n]
    s = rep.s_dim
    ops = [(d0, "V0", "V1"), (laplacian, "V0", "V0"), (d0_star, "V1", "V0"),
           (d1, "V1", "V2"), (d1_projector, "V1", "V2"), (d1_star, "V2", "V1"),
           (lambda f, r: nabla(k - 1, f, r), "V0", "S-"),
           (lambda f, r: delta_op(0, k - 1, f, r), "V0", "V0")]
    if k >= 3:
        ops += [(d2p, "V2", "V3p"), (d2p_projector, "V2", "V3p"),
                (d2pp, "V2", "V3pp"), (d2pp_projector, "V2", "V3pp")]
    for op, space, target in ops:
        for count in (None, 3):
            f = PolyField(k, n, space)
            if count:
                f = keyed([f] * count)
            out = op(f, rep)
            assert out.space == target and len(out) == 0
            assert out.vals.shape == (0,) + (k,) * SPACE_INFO[target][0] + (s,)
            assert out.expo.shape == (0, 1 + k * n)
            if count:
                assert np.array_equal(keyed_norms(out, count), np.zeros(count))
                assert np.array_equal(keyed_residuals(out, count), np.zeros(count))
    for count in (None, 3):
        f = PolyField(k, n, "V0")
        out = dirac_ops.delta_nabla_commutator(keyed([f] * count) if count else f, rep)
        assert out.space == "S-" and out.vals.shape == (0, k, k, k, s)
        assert out.expo.shape == (0, 1 + k * n)
        if count:
            assert np.array_equal(keyed_norms(out, count), np.zeros(count))
    zero = stack(keyed([PolyField(k, n, "V0")] * 3), 3)
    chart = boundary.flat_chart(k, n)
    assert np.array_equal(boundary.pi1_kernel_check(chart, rep, zero, zero), np.zeros(3))
    assert boundary.tangential_frame(chart, rep, zero)[1][0].vals.shape == (0, 3, s)
    assert boundary.restrict_to_chart(zero, chart).vals.shape == (0, 3, s)


def test_space_guards(reps, rng):
    rep = reps[2]
    F = random_field(rng, 3, 2, "V1", degree=2, nterms=3)
    with pytest.raises(ValueError):
        d0(F, rep)
    f = random_field(rng, 3, 2, "V0", degree=2, nterms=3)
    with pytest.raises(ValueError):
        d1(f, rep)
    with pytest.raises(ValueError):
        d2p(F, rep)
    h2 = random_field(rng, 2, 2, "V2", degree=2, nterms=3)
    with pytest.raises(ValueError):
        d2p(h2, rep)  # order-5 branch needs k >= 3
    with pytest.raises(ValueError, match="unknown value space"):
        PolyField(2, 2, "S+")  # an S+ valued scalar field is a V0 field
    assert nabla(0, nabla(0, f, rep), rep).space == "V0"


def test_monogenic_basis_members_are_monogenic(reps):
    # the basis is one stack; each member is monogenic, and the dense stack of
    # the members is the basis again, bit for bit
    from conftest import dense, members

    rep = reps[3]
    basis = monogenic_basis(rep, 2, 3, degree=2)
    count = basis.vals.shape[1]
    assert count > 0 and basis.vals.shape == (len(basis), count, rep.s_dim)
    assert_canonical(basis)
    ms = members(basis)
    for f in ms:
        assert d0(f, rep).norm() <= 1e-9 * max(f.norm(), 1.0)
    again = dense(ms)
    assert np.array_equal(again.expo, basis.expo)
    assert again.vals.tobytes() == basis.vals.tobytes()


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_monogenic_basis_is_null_space_of_oracle_matrix(k, n, degree, reps):
    # the basis, whose matrix comes from d0 itself, equals bit for bit the
    # null space of the d0 matrix assembled by hand, taken block by block over
    # multidegree: columns of multidegree delta, rows of slot A at delta - e_A.
    # The blocks hold every nonzero entry of the hand matrix, and their null
    # spaces together have the nullity and the span of the full matrix's
    from conftest import d0_matrix

    rep = reps[n]
    s = rep.s_dim
    monos, mat = d0_matrix(rep, k, n, degree)
    multi = monos.reshape(-1, k, n).sum(axis=2)
    n_out = mat.shape[0] // (k * s)
    col_deg = np.repeat(multi, s, axis=0)
    row_deg = np.array([multi[r] + np.eye(k, dtype=np.int64)[a]
                        for r in range(n_out) for a in range(k) for _ in range(s)])
    in_block = np.zeros(mat.shape, dtype=bool)
    null = []
    for delta in sorted(set(map(tuple, col_deg.tolist()))):
        cols = np.flatnonzero((col_deg == delta).all(axis=1))
        rows = np.flatnonzero((row_deg == delta).all(axis=1))
        in_block[np.ix_(rows, cols)] = True
        _, sv, vh = np.linalg.svd(mat[np.ix_(rows, cols)])
        rank = int((sv > 1e-9 * sv[:1]).sum())
        part = np.zeros((len(cols) - rank, mat.shape[1]), dtype=complex)
        part[:, cols] = vh[rank:].conj()
        null.append(part)
    assert not mat[~in_block].any()
    null = np.concatenate(null)
    _, sv, vh = np.linalg.svd(mat)
    full = vh[int((sv > 1e-9 * sv[0]).sum()):].conj()
    assert len(null) == len(full) > 0
    assert np.abs(null.T @ null.conj() - full.T @ full.conj()).max() <= 1e-12
    null = null.reshape(-1, len(monos), s)
    null[np.abs(null) <= 1e-13] = 0.0
    oracle = PolyField(k, n, "V0", monos, null.transpose(1, 0, 2))
    basis = monogenic_basis(rep, k, n, degree)
    assert basis.vals.shape == oracle.vals.shape
    assert np.array_equal(basis.expo, oracle.expo)
    assert basis.vals.tobytes() == oracle.vals.tobytes()


@pytest.mark.parametrize("lead", [(3,), (3, 3)])
def test_stack_matches_zero_padded_sum_bitwise(lead, rng):
    # each piece adds into its slot of the grouped rows; the zero-padded
    # pieces summed over all slots give the same bytes, also for empty input,
    # for rows that cancel to an exact zero, for signed zeros and for one
    # piece whose rows are canonical already
    from conftest import zero_pad_stack

    def piece(count):
        e = np.unique(np.column_stack((rng.integers(0, 2, count),
                                       rng.integers(0, 3, (count, 4)))), axis=0)
        v = rng.standard_normal((len(e), 3, 2)) + 1j * rng.standard_normal((len(e), 3, 2))
        v[rng.random(v.shape) < 0.2] = -0.0
        return e, v

    slots = list(np.ndindex(lead))
    e, v = piece(12)
    cases = [
        [(slots[int(rng.integers(len(slots)))],) + piece(12) for _ in range(9)],
        [(slot, np.zeros((0, 5), dtype=np.int64), np.zeros((0, 3, 2), dtype=complex))
         for slot in slots[:3]],
        [(slots[0], e, v), (slots[1], e[:4], v[:4]), (slots[0], e[:6], -v[:6]),
         (slots[1], e[:4], -v[:4])],
        [(slots[-1], e, v)],
    ]
    for slotted in cases:
        got, want = dirac_ops._stack(slotted, lead), zero_pad_stack(slotted, lead)
        assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
        assert got[1].shape == want[1].shape
        assert got[1].tobytes() == want[1].tobytes()
    # rows 0-5 cancel to exact zeros in every slot and drop
    assert len(dirac_ops._stack(cases[2], lead)[0]) == len(e) - 6


def test_membership_validation_rejects_bad_tensors(reps, rng):
    raw = rng.standard_normal((3, 3, 3, 1)) + 0j
    with pytest.raises(ValueError):
        make_field(3, 2, "V2", {(0,) * 6: raw})


def test_field_algebra(rng):
    f = random_field(rng, 2, 2, "V0", degree=3, nterms=4)
    g = random_field(rng, 2, 2, "V0", degree=3, nterms=4)
    assert ((f + g) - g - f).norm() <= 1e-12 * (f.norm() + g.norm())
    assert (f.scale(2.0) - f - f).norm() == 0.0
    assert total_degree(f) <= 3


def assert_canonical(f):
    # rows unique and in lexicographic order, key 0 (one member), no all-zero
    # coefficient row
    assert np.array_equal(f.expo, np.unique(f.expo, axis=0))
    assert f.expo.dtype == np.int64 and f.expo.shape == (len(f), 1 + f.k * f.n)
    assert not f.expo[:, 0].any()
    assert np.abs(f.vals).reshape(len(f), -1).max(axis=1).min(initial=np.inf) > 0


def test_canonical_form(reps, rng):
    rep = reps[3]
    f = random_field(rng, 3, 3, "V1", degree=4, nterms=8)
    g = random_field(rng, 3, 3, "V1", degree=4, nterms=8)
    h = d1(f, rep)
    for fld in (f, g, f + g, f - g, h, d1_projector(f, rep), nabla(1, d0_star(f, rep), rep)):
        assert len(fld) > 0
        assert_canonical(fld)
    assert h.vals.shape == (len(h), 3, 3, 3, rep.s_dim)
    assert terms(f - f) == {}
    assert len(f - f) == 0 and (f - f).norm() == 0.0
    # terms round-trips through make_field
    back = make_field(3, 3, "V1", terms(f))
    assert np.array_equal(back.expo, f.expo) and np.array_equal(back.vals, f.vals)


def test_constructor_sums_duplicates_and_drops_zeros():
    one = np.array([1.0 + 0j])
    f = make_field(2, 2, "V0", {(1, 0, 0, 0): np.zeros(1), (0, 0, 0, 0): one})
    assert set(terms(f)) == {(0, 0, 0, 0)}
    expo = [(0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    vals = [one, 2 * one, -one, 3 * one]
    g = PolyField(2, 2, "V0", expo, vals)
    assert_canonical(g)
    assert set(terms(g)) == {(1, 0, 0, 0)}
    assert np.array_equal(terms(g)[(1, 0, 0, 0)], 5 * one)


def test_stack_round_trips_members(reps, rng):
    # each member's slice of a stack, brought back to canonical form, is the
    # member bit for bit: disjoint and overlapping supports and a zero member
    from diraclab.fields import member_norms, stack

    rep = reps[2]
    one = np.array([1.0 + 0j])
    a = make_field(2, 2, "V0", {(1, 0, 0, 0): one, (0, 0, 0, 2): 2 * one})
    b = make_field(2, 2, "V0", {(0, 1, 0, 0): 3 * one})  # disjoint from a
    c = random_field(rng, 2, 2, "V0", degree=3, nterms=6)
    members = [a, b, PolyField(2, 2, "V0"), c, a + c]  # a + c overlaps a and c
    s = stack(keyed(members), len(members))
    assert_canonical(s)
    assert s.vals.shape == (len(s), len(members), rep.s_dim)
    assert len(s) == len(np.unique(np.concatenate([g.expo for g in members]), axis=0))
    for i, g in enumerate(members):
        back = PolyField(2, 2, "V0", s.expo, s.vals[:, i])
        assert np.array_equal(back.expo, g.expo), i
        assert back.vals.tobytes() == g.vals.tobytes(), i
    assert np.allclose(member_norms(s), [g.norm() for g in members], rtol=1e-15, atol=0)
    # a stack of zero fields keeps its batch axis
    assert np.array_equal(member_norms(stack(keyed([PolyField(2, 2, "V0")] * 3), 3)),
                          np.zeros(3))
    with pytest.raises(ValueError, match="one space"):
        keyed([a, make_field(2, 2, "S-", {(0, 0, 0, 0): one})])
    with pytest.raises(ValueError, match="scalar members"):
        stack(keyed([random_field(rng, 2, 2, "V1")]), 1)
    # a one-member field is its own keyed field
    assert np.array_equal(stack(a, 1).expo, stack(keyed([a]), 1).expo)
    assert stack(a, 1).vals.tobytes() == stack(keyed([a]), 1).vals.tobytes()
    with pytest.raises(ValueError, match="at least one"):
        keyed([])


@pytest.mark.parametrize("space", ["V2", "V3p", "V3pp"])
def test_batched_membership_residual_matches_rows(space, reps, rng):
    # one check_membership call over all rows gives each row's residual
    from diraclab import weyl
    from diraclab.fields import SPACE_INFO

    order, _, lam = SPACE_INFO[space]
    shape = (5,) + (3,) * order + (reps[2].s_dim,)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[1] = weyl.apply_projector(lam, vals[1])  # one member row
    f = PolyField(3, 2, space, np.eye(5, 6, dtype=np.int64), vals)
    per_row = [weyl.check_membership(lam, v[..., None])[0] for v in f.vals]
    batched = weyl.check_membership(lam, np.moveaxis(f.vals, 0, -1))
    assert np.allclose(batched, per_row, rtol=1e-12, atol=1e-15)
    assert sum(r <= 1e-10 for r in per_row) == 1 and max(per_row) > 1e-6
    assert np.allclose(f.membership_residual(), per_row, rtol=1e-12, atol=1e-15)
