import itertools

import numpy as np
import pytest

from diraclab import build_clifford, weyl
from diraclab.dirac_ops import d0_star
from diraclab.fields import PolyField
from diraclab.tensoridx import inverse
from diraclab.symbols import (
    _pullback,
    build_bundle,
    green_inverse_residual,
    hodge_eig_bounds,
    intertwine_check,
    kernel_identity_check,
    numeric_rank,
    verify_exactness,
)

from conftest import d1_star

CONFIGS = [(3, 2), (3, 3), (2, 2), (2, 3)]


def unit_xi(rng, k, n, min_first=0.0):
    while True:
        xi = rng.standard_normal(k * n)
        xi /= np.linalg.norm(xi)
        if np.linalg.norm(xi[:n]) >= min_first:
            return xi


@pytest.mark.parametrize("k,n", CONFIGS)
def test_symbol_compositions_vanish(k, n, rng):
    rep = build_clifford(n)
    for _ in range(10):
        b = build_bundle(rep, k, unit_xi(rng, k, n))
        assert np.abs(b.sigma1 @ b.sigma0).max() <= 1e-10
        if b.has_order5:
            assert np.abs(b.sigma2p @ b.sigma1).max() <= 1e-10
            assert np.abs(b.sigma2pp @ b.sigma1).max() <= 1e-10


def test_zero_frequency_bundle(reps):
    b = build_bundle(reps[2], 3, np.zeros(6))
    for mat in (b.sigma0, b.sigma1, b.sigma2p, b.sigma2pp, b.L0, b.L1, b.L2):
        assert np.abs(mat).max() == 0.0
    with pytest.raises(ValueError):
        verify_exactness(b)


@pytest.mark.parametrize("k,n", CONFIGS + [(4, 2)])
def test_stacked_build_matches_single_frequency(k, n, rng):
    # a stack of frequencies, with a zero row and doubled rows, gives per row
    # the matrices of a single-frequency build; the checks on a stack give
    # one value per row
    rep = build_clifford(n)
    xi = np.stack([unit_xi(rng, k, n, min_first=0.2) for _ in range(6)])
    xi = np.concatenate([xi, np.zeros((1, k * n)), 2.0 * xi[:2]]).reshape(3, 3, k * n)
    stacked = build_bundle(rep, k, xi)
    names = ("sigma0", "sigma1", "sigma2p", "sigma2pp", "L0", "L1", "L2")
    for idx in np.ndindex(3, 3):
        single = build_bundle(rep, k, xi[idx])
        assert single.dims == stacked.dims
        for name in names:
            a, b = getattr(stacked, name), getattr(single, name)
            if b is None:
                assert a is None
                continue
            assert a.shape == xi.shape[:-1] + b.shape
            # relative max-abs: L2 at 2 xi has entries of order 10^3
            assert np.abs(a[idx] - b).max() <= 1e-13 * max(np.abs(b).max(), 1.0)
    rows = xi.reshape(-1, k * n)
    nonzero = np.linalg.norm(rows, axis=1) > 0
    flat = build_bundle(rep, k, rows[nonzero])
    per_row = [build_bundle(rep, k, x) for x in rows[nonzero]]
    # roundoff-level residuals: one value per row, each within its tolerance
    scale = np.linalg.norm(flat.sigma1, axis=(1, 2)) * np.linalg.norm(flat.L1, axis=(1, 2))
    assert (intertwine_check(flat) <= 1e-10 * scale).all()
    assert (green_inverse_residual(flat) <= 1e-10).all()
    if k >= 3:
        assert kernel_identity_check(flat).shape == (len(per_row),)
        assert (kernel_identity_check(flat) <= 1e-9).all()
    for name, (lo, hi) in hodge_eig_bounds(flat).items():
        single = np.array([hodge_eig_bounds(b)[name] for b in per_row])
        # Weyl's inequality: entries equal to 1e-13 relative max-abs, as checked
        # above (floored at 1), move each eigenvalue by at most
        # dim * 1e-13 * max(max|L|, 1)
        mats = getattr(flat, name)
        atol = mats.shape[-1] * 1e-13 * np.maximum(np.abs(mats).max(axis=(-2, -1)), 1.0)
        for got, want in ((lo, single[:, 0]), (hi, single[:, 1])):
            assert (np.abs(got - want) <= atol + 1e-12 * np.abs(want)).all()
    ranks, exact = verify_exactness(flat)
    assert exact.all()
    assert (ranks["dim_ker_sigma1"] == verify_exactness(per_row[0])[0]["dim_ker_sigma1"]).all()
    with pytest.raises(ValueError):
        verify_exactness(stacked)


@pytest.mark.parametrize("lam", ["21", "22", "311"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_pullback_matches_transposed_terms(k, lam):
    # c C_lam^T W through the factors, left to right, equals C_lam's terms
    # with inverted permutations applied one by one
    from conftest import apply_terms

    m = weyl.PARTITIONS[lam][1]
    basis = weyl.weyl_space(k, lam).basis.reshape((k,) * m + (-1,))
    transpose = {inverse(p): c for p, c in weyl.projector_terms(lam).items()}
    want = weyl.PREFACTOR[lam] * apply_terms(transpose, basis)
    got = _pullback(k, lam)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_order5_stack_is_tall(k, reps):
    # dim V3' + dim V3'' >= dim V2, so the thin SVD in kernel_identity_check
    # keeps every right singular vector of the kernel
    assert weyl.weyl_dim(k, "22") + weyl.weyl_dim(k, "311") >= weyl.weyl_dim(k, "21")
    if k <= 4:
        b = build_bundle(reps[2], k, unit_xi(np.random.default_rng(k), k, 2, 0.2))
        assert b.dims["V3p"] + b.dims["V3pp"] >= b.dims["V2"]


def test_kernel_identity_rejects_wide_stack(reps, rng):
    from types import SimpleNamespace

    b = build_bundle(reps[2], 3, unit_xi(rng, 3, 2, 0.2))
    cut = b.dims["V2"] // 2 - 1  # fewer rows than columns
    wide = SimpleNamespace(has_order5=True, k=b.k, n=b.n, s_dim=b.s_dim, xi=b.xi,
                           sigma2p=b.sigma2p[:cut], sigma2pp=b.sigma2pp[:cut])
    with pytest.raises(ArithmeticError):
        kernel_identity_check(wide)


def test_exactness_example_dims(rng, reps):
    # three variables in the plane: value-space dimensions (1, 3, 8, 6, 6),
    # measured ranks (1, 1, 2, 2)
    rep = reps[2]
    b = build_bundle(rep, 3, unit_xi(rng, 3, 2))
    ranks, exact = verify_exactness(b)
    assert b.dims == {"V0": 1, "V1": 3, "V2": 8, "V3p": 6, "V3pp": 6}
    assert ranks["rank_sigma0"] == 1
    assert ranks["dim_ker_sigma1"] == 1
    assert ranks["rank_sigma1"] == 2
    assert ranks["dim_ker_order5"] == 2
    assert exact


@pytest.mark.parametrize("k,n", CONFIGS)
def test_exactness_sweep(k, n, rng):
    rep = build_clifford(n)
    s = rep.s_dim
    for _ in range(25):
        ranks, exact = verify_exactness(build_bundle(rep, k, unit_xi(rng, k, n)))
        assert exact
        # injective at slot 0, ker sigma1 = im sigma0, and at slot 2 the
        # joint kernel = im sigma1, or no slot 2 for k = 2
        assert ranks["rank_sigma0"] == s
        assert ranks["dim_ker_sigma1"] == ranks["rank_sigma0"]
        if k >= 3:
            assert ranks["dim_ker_order5"] == ranks["rank_sigma1"]
        else:
            assert ranks["dim_ker_order5"] is None


def test_exact_frequencies_share_their_ranks():
    # exactness fixes every rank by the dimensions: rank sigma0 = s,
    # dim ker sigma1 = s, rank sigma1 = (k-1)s and dim ker order-5 = (k-1)s,
    # so the ellipticity suite needs no rank comparison across samples
    rng = np.random.default_rng(34)
    for k, n in itertools.product(range(2, 6), range(1, 5)):
        rep = build_clifford(n)
        s = rep.s_dim
        xi = rng.standard_normal((50, k * n))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        ranks, exact = verify_exactness(build_bundle(rep, k, xi))
        assert exact.shape == (50,) and exact.any(), (k, n)
        want = {"rank_sigma0": s, "dim_ker_sigma1": s, "rank_sigma1": (k - 1) * s,
                "dim_ker_order5": (k - 1) * s if k >= 3 else None}
        for key, r in ranks.items():
            if want[key] is None:
                assert r is None
            else:
                assert (r[exact] == want[key]).all(), (k, n, key)


def test_two_variable_slot0_ranks(rng, reps):
    rep = reps[3]
    ranks, _ = verify_exactness(build_bundle(rep, 2, unit_xi(rng, 2, 3)))
    assert ranks["rank_sigma0"] == rep.s_dim == 2
    assert ranks["dim_ker_sigma1"] == 2


def test_rank_scale_invariance(rng, reps):
    rep = reps[2]
    xi = unit_xi(rng, 3, 2)
    a = verify_exactness(build_bundle(rep, 3, xi))[0]
    b = verify_exactness(build_bundle(rep, 3, 10.0 * xi))[0]
    keys = ("rank_sigma0", "dim_ker_sigma1", "dim_ker_order5")
    assert [a[key] for key in keys] == [b[key] for key in keys]
    # the one rank rule, relative to the largest singular value: a zero
    # matrix and an empty spectrum have rank 0, and a stack gets one rank each
    assert weyl.sv_rank(np.zeros(3)) == 0 and weyl.sv_rank(np.zeros(0)) == 0
    sv = np.array([[1.0, 1.01e-9, 0.99e-9], [1e6, 1e-3, 1e-4], [0.0, 0.0, 0.0]])
    assert weyl.sv_rank(sv).tolist() == [2, 1, 0]
    assert weyl.sv_rank(np.zeros((2, 0))).tolist() == [0, 0]
    mats = np.stack([np.diag([3.0, 2.0, 1.0]), np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])])
    assert numeric_rank(mats).tolist() == [3, 0, 2]
    assert numeric_rank(mats[1]) == 0 and numeric_rank(np.zeros((0, 3))) == 0


def test_kernel_identity_sweep(rng, reps):
    rep = reps[2]
    for _ in range(50):
        b = build_bundle(rep, 3, unit_xi(rng, 3, 2, min_first=0.2))
        assert kernel_identity_check(b) <= 1e-9


def test_kernel_identity_on_image_elements(rng, reps):
    # elements of the image of sigma1 lie in the joint kernel and satisfy the
    # identity; checked by brute-force composition
    rep = reps[3]
    for _ in range(10):
        xi = unit_xi(rng, 3, 3, min_first=0.2)
        b = build_bundle(rep, 3, xi)
        eta = rng.standard_normal(b.dims["V1"]) + 1j * rng.standard_normal(b.dims["V1"])
        theta_c = b.sigma1 @ eta
        assert np.abs(b.sigma2p @ theta_c).max() <= 1e-10 * max(np.abs(theta_c).max(), 1e-30)
        assert np.abs(b.sigma2pp @ theta_c).max() <= 1e-10 * max(np.abs(theta_c).max(), 1e-30)
        ws2 = weyl.weyl_space(3, "21")
        iso2 = np.kron(ws2.basis, np.eye(rep.s_dim))
        theta = (iso2 @ theta_c).reshape(3, 3, 3, rep.s_dim)
        xiv = xi.reshape(3, rep.n)
        xp = -1j * np.einsum("Aj,jst->Ast", xiv, rep.gamma_plus)
        xm = -1j * np.einsum("Aj,jst->Ast", xiv, rep.gamma_minus)
        scal = 2.0 * xiv @ xiv.T
        pp = np.einsum("Ast,Btu->ABsu", xp, xm)
        lhs = float((xiv[0] ** 2).sum()) * theta
        rhs = (
            np.einsum("ABst,Ct->ABCs", pp, theta[0, 0])
            + np.einsum("ACst,Bt->ABCs", pp, theta[0, 0])
            - np.einsum("BC,As->ABCs", scal, theta[0, 0])
        )
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(np.abs(theta).max(), 1e-30)


def test_kernel_identity_requires_first_block(rng, reps):
    rep = reps[2]
    xi = np.zeros(6)
    xi[2:] = rng.standard_normal(4)
    xi /= np.linalg.norm(xi)
    with pytest.raises(ValueError):
        kernel_identity_check(build_bundle(rep, 3, xi))
    with pytest.raises(ValueError):
        kernel_identity_check(build_bundle(rep, 2, unit_xi(rng, 2, 2)))


@pytest.mark.parametrize("k,n", CONFIGS)
def test_intertwining(k, n, rng):
    rep = build_clifford(n)
    for _ in range(10):
        b = build_bundle(rep, k, unit_xi(rng, k, n))
        bound = 1e-10 * np.linalg.norm(b.sigma1) * np.linalg.norm(b.L1)
        assert intertwine_check(b) <= bound
    zero = build_bundle(rep, k, np.zeros(k * n))
    assert intertwine_check(zero) == 0.0


@pytest.mark.parametrize("k,n", CONFIGS)
def test_hodge_positivity_and_homogeneity(k, n, rng):
    rep = build_clifford(n)
    xi = unit_xi(rng, k, n)
    b = build_bundle(rep, k, xi)
    bounds = hodge_eig_bounds(b)
    assert bounds["L0"][0] > 0 and bounds["L1"][0] > 0
    if k >= 3:
        assert bounds["L2"][0] > 0
    b2 = build_bundle(rep, k, 2.0 * xi)
    for a, c in ((b2.L0, b.L0), (b2.L1, b.L1), (b2.L2, b.L2)):
        if a.size:
            assert np.abs(a - 16.0 * c).max() <= 1e-10 * max(np.abs(c).max(), 1e-30)
    assert green_inverse_residual(b) <= 1e-10


def test_two_variable_mode_flags(rng, reps):
    b = build_bundle(reps[2], 2, unit_xi(rng, 2, 2))
    assert not b.has_order5
    assert b.sigma2p is None and b.sigma2pp is None
    assert np.allclose(b.L2, b.sigma1 @ b.sigma1.conj().T)


# --- operator symbols from the polynomial operators ------------------------
#
# A constant-coefficient operator P of order r determines its symbol through
# its action on monomials: the constant term of P(x^e u) is e! P_e u, with
# P_e the coefficient of d^e, and the symbol at xi is sum_e P_e (-i xi)^e.
# Every (monomial, input) pair is one member of one keyed field, so each
# operator runs once.  The formal adjoints must reproduce the conjugate
# transposes of the forward symbols, and the direct operator forms the
# bundle's matrices, which are built from the projector forms.


def _operator_symbol(op, rep, k, n, space, inputs, order, xi):
    """The symbol at xi of `op` on `space` fields, restricted to the span of
    `inputs` (one value array each): shape (output size, len(inputs))."""
    kn = k * n
    monos = np.array([e for e in itertools.product(range(order + 1), repeat=kn)
                      if sum(e) == order])
    factorial = np.cumprod([1] + list(range(1, order + 1)))
    weight = np.prod((-1j * xi) ** monos / factorial[monos], axis=1)
    mono, col = np.divmod(np.arange(len(monos) * len(inputs)), len(inputs))
    out = op(PolyField(k, n, space, np.column_stack((np.arange(len(mono)), monos[mono])),
                       np.asarray(inputs)[col]), rep)
    const = ~out.expo[:, 1:].any(axis=1)
    key = out.expo[const, 0]
    sig = np.zeros((len(inputs), int(np.prod(out.vals.shape[1:]))), dtype=complex)
    np.add.at(sig, col[key], weight[mono[key], None] * out.vals[const].reshape(len(key), -1))
    return sig.T


def test_d0_star_symbol_is_adjoint(rng, reps):
    rep = reps[3]
    k, n = 2, 3
    xi = rng.standard_normal(k * n)
    b = build_bundle(rep, k, xi)
    units = np.eye(k * rep.s_dim).reshape(-1, k, rep.s_dim)
    sig = _operator_symbol(d0_star, rep, k, n, "V1", units, 1, xi)
    assert np.abs(sig - b.sigma0.conj().T).max() <= 1e-12


def test_d1_star_symbol_is_adjoint(rng, reps):
    rep = reps[2]
    k, n = 3, 2
    s = rep.s_dim
    xi = rng.standard_normal(k * n)
    units = np.eye(k**3 * s).reshape((-1,) + (k,) * 3 + (s,))
    sig = _operator_symbol(d1_star, rep, k, n, "V2", units, 2, xi)
    iso2 = np.kron(weyl.weyl_space(k, "21").basis, np.eye(s))
    b = build_bundle(rep, k, xi)
    assert np.abs(sig @ iso2 - b.sigma1.conj().T).max() <= 1e-12


@pytest.mark.parametrize("k,n", [(3, 2), (3, 3), (2, 2), (2, 3), (4, 2)])
def test_operator_symbols_match_bundle(k, n, rng, reps):
    # the direct polynomial operators and the frequency-domain matrices, built
    # from the projector forms, realize the same maps: extract each
    # operator's symbol from its action on monomials and compare with the
    # assembled bundle at a random frequency
    from diraclab.dirac_ops import d1, d2p, d2pp

    rep = reps[n]
    s = rep.s_dim
    xi = rng.standard_normal(k * n)
    b = build_bundle(rep, k, xi)

    def iso(lam):
        return np.kron(weyl.weyl_space(k, lam).basis, np.eye(s))

    iso2 = iso("21")
    sig1 = _operator_symbol(d1, rep, k, n, "V1", np.eye(k * s).reshape(-1, k, s), 2, xi)
    assert np.abs(iso2.conj().T @ sig1 - b.sigma1).max() <= 1e-12
    if k < 3:  # the order-5 branch needs k >= 3
        return
    v2 = iso2.T.reshape((-1,) + (k,) * 3 + (s,))  # the V2 basis, one array each
    sig2pp = _operator_symbol(d2pp, rep, k, n, "V2", v2, 2, xi)
    assert np.abs(iso("311").conj().T @ sig2pp - b.sigma2pp).max() <= 1e-12
    sig2p = _operator_symbol(d2p, rep, k, n, "V2", v2, 1, xi)
    assert np.abs(iso("22").conj().T @ sig2p - b.sigma2p).max() <= 1e-12


def test_kernel_identity_chunks_match_one_pass(rng, reps, monkeypatch):
    # the decomposition and the check run in chunks of frequencies; each
    # frequency's singular values, vh and check value are the one-pass values
    # bit for bit, at any chunk size and batch shape.  A fresh bundle per
    # chunk size, so the decomposition is chunked anew each time.
    from diraclab import symbols

    for k, n in ((3, 2), (3, 3), (4, 2)):
        xi = np.stack([unit_xi(rng, k, n, min_first=0.2) for _ in range(24)])
        xi = xi.reshape(4, 6, k * n)
        b = build_bundle(reps[n], k, xi)
        sv, vh = np.linalg.svd(np.concatenate([b.sigma2p, b.sigma2pp], axis=-2),
                               full_matrices=False)[1:]
        whole = kernel_identity_check(b)
        assert whole.shape == (4, 6)
        for block in (1, 5, 24, 256):
            monkeypatch.setattr(symbols, "KERNEL_BLOCK", block)
            b = build_bundle(reps[n], k, xi)
            got = b.order5_svd
            assert got[0].tobytes() == sv.tobytes(), (k, n, block)
            assert got[1].tobytes() == vh.tobytes(), (k, n, block)
            assert kernel_identity_check(b).tobytes() == whole.tobytes(), (k, n, block)
        monkeypatch.undo()


def test_kernel_identity_memory_is_bounded(rng, reps, monkeypatch):
    # 2000 frequencies at (3, 3) peaked 51 MiB above live in one pass; in
    # chunks the scratch stays near one chunk's.  The decomposition keeps its
    # (sv, vh), 8 MiB here, growing with the batch; its scratch beyond them
    # read 31 MiB in one pass.  The 200 frequencies of an ellipticity run are
    # one chunk.
    import tracemalloc

    from diraclab import symbols

    xi = rng.standard_normal((2000, 9))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    b = build_bundle(reps[3], 3, xi)
    b.sigma2p, b.sigma2pp  # cached with the bundle, as before verify_exactness
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        kept = sum(a.nbytes for a in b.order5_svd)
        svd_scratch = tracemalloc.get_traced_memory()[1] - live - kept
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        kernel_identity_check(b)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert svd_scratch <= 10 * 2**20, svd_scratch / 2**20
    assert peak <= 10 * 2**20, peak / 2**20
    calls = []
    inner = symbols._kernel_residual
    monkeypatch.setattr(symbols, "_kernel_residual",
                        lambda *a: calls.append(len(a[-1])) or inner(*a))
    kernel_identity_check(build_bundle(reps[3], 3, xi[:200]))
    assert calls == [200]
