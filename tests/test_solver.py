import json

import numpy as np
import pytest
from conftest import (
    apply_rows,
    apply_spectral,
    dirac_residual_in_f_hat_planes,
    grid_inner,
    recover_bump_in_real_space,
    solve_d0,
    solve_spectrum_in_passes,
    sum_sq,
)

from diraclab import build_clifford
from diraclab.solver import (
    CompatibilityError,
    GridField,
    ResourceLimitError,
    anchor_exterior,
    bump_dirac_data,
    dump_field,
    exterior_mask,
    hartogs_report,
    load_field,
    make_bump,
    recover_bump,
    resolution_sweep,
)

L = float(2 * np.pi)
CENTER4 = np.full(4, np.pi)


def band_limited(rng, rep, k, n, N, space_dim, width=3):
    """Random field with spectrum supported on |m_j| < width."""
    shape = (N,) * (k * n) + (space_dim,)
    spec = np.zeros(shape, dtype=complex)
    lo = rng.standard_normal((width,) * (k * n) + (space_dim,)) + 1j * rng.standard_normal(
        (width,) * (k * n) + (space_dim,)
    )
    spec[(slice(0, width),) * (k * n)] = lo
    values = np.fft.ifftn(spec, axes=tuple(range(k * n)))
    return GridField(k, n, N, L, "V0" if space_dim == rep.s_dim else "V1", values)


def test_bump_profile_values(reps):
    rep = reps[2]
    b = make_bump(rep, 2, 2, 16, L, CENTER4, 0.6)
    center_idx = tuple(int(round(c / (L / 16))) for c in CENTER4)
    assert b.values[center_idx][0] == pytest.approx(np.exp(-1.0), abs=1e-15)
    grids = np.meshgrid(*([np.arange(16) * (L / 16)] * 4), indexing="ij")
    r2 = sum((g - c) ** 2 for g, c in zip(grids, CENTER4))
    outside = r2 >= 0.6**2
    assert np.abs(b.values[outside]).max() == 0.0


def test_bump_fit_guard(reps):
    rep = reps[2]
    with pytest.raises(ValueError):
        make_bump(rep, 2, 2, 8, L, np.full(4, 0.5), 0.6)
    with pytest.raises(ValueError):
        make_bump(rep, 2, 2, 8, L, CENTER4, -1.0)


@pytest.mark.parametrize("build", [make_bump, bump_dirac_data])
@pytest.mark.parametrize("center, radius", [
    (np.full(5, np.pi), 0.6),  # five entries for k*n = 4
    (CENTER4, -0.6),
    (np.full(4, 0.2), 0.6),  # the ball leaves the cell
    (CENTER4, 0.0),
])
def test_bump_geometry_rejected(reps, build, center, radius):
    # the bump and its Dirac data share one validated geometry
    with pytest.raises(ValueError):
        build(reps[2], 2, 2, 8, L, center, radius)


def test_bump_norm_quadrature_converges(reps):
    # Richardson comparison on a two-axis cell where high resolutions are
    # cheap; the quadrature norm weighs each grid point by its cell, (L / N)^2
    rep = reps[1]
    norms = {
        N: np.linalg.norm(make_bump(rep, 2, 1, N, L, np.full(2, np.pi), 1.4).values)
        * np.sqrt(L**2 / N**2)
        for N in (256, 512)
    }
    assert norms[256] > 0
    assert abs(norms[512] / norms[256] - 1.0) <= 1e-6


def test_fft_round_trip(reps):
    rep = reps[2]
    b = make_bump(rep, 2, 2, 16, L, CENTER4, 0.6)
    back = np.fft.ifftn(np.fft.fftn(b.values, axes=range(4)), axes=range(4))
    assert np.abs(back - b.values).max() <= 1e-13 * max(np.abs(b.values).max(), 1e-30)


def test_matrix_free_d0_matches_dense_symbol(rng, reps):
    # mode by mode, d0 and d0_star agree with the symbol builder's sigma0
    from diraclab.solver import _mode_xi
    from diraclab.symbols import build_bundle

    # k = 3 exercises three blocks, n = 3 the s = 2 cross terms; N = 3 keeps
    # the dense symbols of the nine-axis grid small
    for k, n, N in ((2, 2, 4), (2, 3, 4), (3, 2, 4), (3, 3, 3)):
        rep = reps[n]
        s0 = build_bundle(rep, k, _mode_xi(k, n, N, L, np.arange(N ** (k * n)))).sigma0
        for tag, mat in (("d0", s0), ("d0_star", np.conj(np.swapaxes(s0, 1, 2)))):
            dim = mat.shape[2]
            f = band_limited(rng, rep, k, n, N, dim, width=2)
            f.space = "V0" if tag == "d0" else "V1"
            fh = np.fft.fftn(f.values, axes=range(k * n)).reshape(-1, dim)
            ref = np.fft.ifftn(np.einsum("bij,bj->bi", mat, fh).reshape(
                (N,) * (k * n) + (mat.shape[1],)), axes=range(k * n))
            out = apply_spectral(tag, f, rep).values
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_spectral_laplacian(rng, reps):
    # d0_star after d0 equals the scalar multiplier |xi|^2 mode by mode
    rep = reps[2]
    k = n = 2
    N = 8
    f = band_limited(rng, rep, k, n, N, rep.s_dim)
    lhs = apply_spectral("d0_star", apply_spectral("d0", f, rep), rep)
    fh = np.fft.fftn(f.values, axes=range(4))
    m = np.fft.fftfreq(N, d=1.0 / N)
    grids = np.meshgrid(*([m] * 4), indexing="ij")
    xi2 = sum(g**2 for g in grids) * (2 * np.pi / L) ** 2
    rhs = np.fft.ifftn(fh * xi2[..., None], axes=range(4))
    assert np.abs(lhs.values - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1e-30)


def test_discrete_adjointness(rng, reps):
    rep = reps[2]
    f = band_limited(rng, rep, 2, 2, 12, rep.s_dim)
    g = band_limited(rng, rep, 2, 2, 12, 2 * rep.s_dim)
    lhs = grid_inner(apply_spectral("d0", f, rep), g)
    rhs = grid_inner(f, apply_spectral("d0_star", g, rep))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


def test_single_variable_adjointness(rng, reps):
    # <nabla_A f, g> = <f, nabla_A g> on the torus, one vector variable at a
    # time; multipliers built directly from the gamma blocks
    rep = reps[2]
    k = n = 2
    N = 8
    f = band_limited(rng, rep, k, n, N, rep.s_dim)  # S+ valued
    g_vals = band_limited(rng, rep, k, n, N, rep.s_dim).values  # S- valued
    m = np.fft.fftfreq(N, d=1.0 / N)
    grids = np.meshgrid(*([m] * (k * n)), indexing="ij")

    def nabla_grid(values, A, gamma):
        vh = np.fft.fftn(values, axes=range(k * n))
        out = np.zeros_like(vh)
        for j in range(n):
            mult = 1j * (2 * np.pi / L) * grids[A * n + j]
            out += mult[..., None] * np.einsum("st,...t->...s", gamma[j], vh)
        return np.fft.ifftn(out, axes=range(k * n))

    vol_w = (L / N) ** (k * n)
    for A in range(k):
        lhs = np.vdot(nabla_grid(f.values, A, rep.gamma_plus), g_vals) * vol_w
        rhs = np.vdot(f.values, nabla_grid(g_vals, A, rep.gamma_minus)) * vol_w
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


def test_operator_tag_guards(rng, reps):
    rep = reps[2]
    f = band_limited(rng, rep, 2, 2, 8, rep.s_dim)
    with pytest.raises(ValueError):
        apply_spectral("d0_star", f, rep)  # d0_star wants V1 data
    for tag in ("d1", "nope"):  # the grid carries D0 and its adjoint only
        with pytest.raises(ValueError, match="unknown operator tag"):
            apply_spectral(tag, apply_spectral("d0", f, rep), rep)


def test_zero_mode_of_derivative_data(reps):
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 16, L, CENTER4, 0.6)
    f = apply_spectral("d0", phi, rep)
    fh = np.fft.fftn(f.values, axes=range(4))
    assert np.abs(fh[0, 0, 0, 0]).max() <= 1e-12 * np.linalg.norm(fh)


def test_solve_recovers_bump(reps):
    rep = reps[2]
    u, metrics = recover_bump(rep, 2, 2, 16)
    assert metrics["recovery_rel_l2"] <= 1e-10
    assert metrics["dirac_residual_rel_l2"] <= 1e-10
    assert metrics["hartogs"]["ratio"] <= 1e-10
    assert metrics["recovery_identity_residual"] <= 1e-10


@pytest.mark.parametrize("k, n, N", [(2, 2, 16), (2, 3, 6), (3, 1, 12)])
def test_pipeline_matches_the_real_space_route(k, n, N, reps):
    # recover_bump keeps f = D0 phi as its spectrum; the route that forms f
    # in real space, solves it with solve_d0 and checks the residual against
    # it gives the same metrics within 1e-14, and broken data the same
    # compat_rel within 1e-12 relative and the same rejection
    rep = reps[n]
    _, got = recover_bump(rep, k, n, N)
    want = recover_bump_in_real_space(rep, k, n, N)
    assert got["recovery_identity_witness"] == want["recovery_identity_witness"]
    for key in ("recovery_rel_l2", "dirac_residual_rel_l2", "zero_mode_rel",
                "compat_rel", "recovery_identity_residual"):
        assert abs(got[key] - want[key]) <= 1e-14, key
    for key, value in want["hartogs"].items():
        assert abs(got["hartogs"][key] - value) <= 1e-14 * max(1.0, value), key
    _, got = recover_bump(rep, k, n, N, tol=np.inf, break_compat=True)
    want = recover_bump_in_real_space(rep, k, n, N, tol=np.inf, break_compat=True)
    assert got["compat_rel"] == pytest.approx(want["compat_rel"], rel=1e-12, abs=0)
    assert got["compat_rel"] > 1e-3
    with pytest.raises(CompatibilityError) as err:
        recover_bump(rep, k, n, N, break_compat=True)
    with pytest.raises(CompatibilityError) as ref:
        recover_bump_in_real_space(rep, k, n, N, break_compat=True)
    assert str(err.value) == str(ref.value)


def test_broken_data_is_mean_free_with_its_closed_form_defect(reps):
    # --break-compat negates f's last block, f = (nabla_0 phi, ...,
    # -nabla_{k-1} phi): its zero mode stays exactly 0, and at each mode a
    # share 4 a (1 - a) of |f_hat|^2 = |xi|^2 |phi_hat|^2, a = |xi_{k-1}|^2 /
    # |xi|^2, lies off the range of sigma0, so compat_rel is a property of
    # the continuum data and reads nearly the same at every N
    from diraclab.solver import _freqs

    compat = {}
    for k, n, N in [(2, 2, 16), (2, 2, 24), (2, 2, 32), (2, 3, 8), (3, 1, 12)]:
        rep = reps[n]
        _, metrics = recover_bump(rep, k, n, N, tol=np.inf, break_compat=True)
        assert metrics["zero_mode_rel"] == 0.0, (k, n, N)
        phi = make_bump(rep, k, n, N, L, np.full(k * n, L / 2), 0.6).planes
        phi_sq = (np.abs(np.fft.fftn(phi, axes=tuple(range(1, k * n + 1)))) ** 2).sum(0)
        sq = [x**2 for x in np.meshgrid(*[_freqs(N, L)] * (k * n), indexing="ij",
                                        sparse=True)]
        xi2, last = sum(sq), sum(sq[-n:])
        a = np.divide(last, xi2, out=np.zeros(phi_sq.shape), where=xi2 > 0)
        f_sq = xi2 * phi_sq
        want = np.sqrt((4 * a * (1 - a) * f_sq).sum() / f_sq.sum())
        assert metrics["compat_rel"] == pytest.approx(want, rel=1e-12, abs=0), (k, n, N)
        compat[k, n, N] = metrics["compat_rel"]
    at22 = [compat[2, 2, N] for N in (16, 24, 32)]
    assert all(0.7 <= c <= 0.95 for c in at22) and max(at22) <= 1.03 * min(at22), at22


@pytest.mark.parametrize("k, n, N", [(2, 2, 16), (2, 3, 6), (3, 1, 12)])
def test_sweep_matches_the_real_space_route(k, n, N, reps):
    # the sweep transforms its data in its own planes; solve_d0, which leaves
    # f as it is, the anchoring and the recovery error give its row bit for bit
    from diraclab.solver import _recovery

    rep, center = reps[n], np.full(k * n, L / 2)
    f = bump_dirac_data(rep, k, n, N, L, center, 0.6)
    u, diag = solve_d0(f, rep, tol=None)
    u = anchor_exterior(u, exterior_mask(u, center, 0.6))
    err, _ = _recovery(u, make_bump(rep, k, n, N, L, center, 0.6))
    row, = resolution_sweep(rep, k, n, [N])
    assert (row["recovery_rel_l2"], row["zero_mode_rel"]) == (err, diag["zero_mode_rel"])
    assert err > 0


def test_dirac_residual_names_its_worst_point(reps):
    # the witness is a grid point and component of the largest |D0 u - f|,
    # with f - D0 u formed from the spectra as the residual forms it, and the
    # value is that difference's norm relative to ||f||
    from diraclab.solver import _sigma_rows

    rep = reps[2]
    N = 12
    u, metrics = recover_bump(rep, 2, 2, N)
    phi = make_bump(rep, 2, 2, N, L, CENTER4, 0.6)
    rows = _sigma_rows(rep, 2, 2, N, L)
    fh = apply_rows(rows, np.fft.fftn(phi.planes, axes=(1, 2, 3, 4)))
    f = np.fft.ifftn(fh, axes=(1, 2, 3, 4))
    diff = np.fft.ifftn(fh - apply_rows(rows, np.fft.fftn(u.planes, axes=(1, 2, 3, 4))),
                        axes=(1, 2, 3, 4))
    mod2 = diff.real**2 + diff.imag**2
    witness = metrics["dirac_residual_witness"]
    assert set(witness) == {"point", "component"}
    assert mod2[(witness["component"], *witness["point"])] == mod2.max() > 0
    assert metrics["dirac_residual_rel_l2"] == pytest.approx(
        np.linalg.norm(diff) / np.linalg.norm(f), rel=1e-12, abs=0)


def broken_rows(rep, k, n, N, L):
    """The rows of sigma0 with the last block's s rows negated: the rows of
    f = (nabla_0 phi, ..., -nabla_{k-1} phi), which --break-compat solves."""
    from diraclab.solver import _sigma_rows

    rows, s = _sigma_rows(rep, k, n, N, L), rep.s_dim
    return rows[:-s] + [[-w for w in row] for row in rows[-s:]]


@pytest.mark.parametrize("phi_rows", [True, False, "negated"])
@pytest.mark.parametrize("tol", [1.0, None])
@pytest.mark.parametrize("k, n, N", [(2, 2, 16), (2, 3, 6), (3, 1, 12)])
def test_fused_pass_matches_the_pass_by_pass_oracle(k, n, N, tol, phi_rows, cpus, reps,
                                                    monkeypatch):
    # the solve's one pass over the slabs, from phi_hat with the rows of
    # sigma0 (phi_rows) or with their last block negated, or from a given
    # f_hat, gives the u_hat, zero_mode_rel and compat_rel of separate passes
    # over f_hat held as a grid bit for bit, and ||f_hat||^2, at every count
    # of parts; tol = 1.0 measures both guards and raises nothing, since both
    # shares are at most 1
    from diraclab import solver

    rep, center = reps[n], np.full(k * n, L / 2)
    rows = None
    if phi_rows:
        rows = (broken_rows if phi_rows == "negated" else solver._sigma_rows)(
            rep, k, n, N, L)
        x = solver._fft(make_bump(rep, k, n, N, L, center, 0.6).planes)
        fh = apply_rows(rows, x)
    else:  # off the range of sigma0 and not mean-free
        f = bump_dirac_data(rep, k, n, N, L, center, 0.6).planes
        x = fh = solver._fft(f + 1e-3 * complex_normal(np.random.default_rng(N), f.shape))
    want_uh, want_rel0, want_compat = solve_spectrum_in_passes(fh, rep, k, n, L, tol)
    if not phi_rows:
        assert want_rel0 > 0 and want_compat != 0
    if phi_rows == "negated":  # mean-free, but off the range of sigma0
        assert want_rel0 == 0 and (tol is None or want_compat > 0.5)
    before = x.tobytes()
    seen, fftn = [], solver._fftn

    def spy(a, out, inverse=False):  # u_hat, before it is transformed back
        if inverse:
            seen.append(a.copy())
        return fftn(a, out, inverse=inverse)

    monkeypatch.setattr(solver, "_fftn", spy)
    monkeypatch.setattr(solver, "_SPLIT_POINTS", 0)
    for count in (1, 3):
        cpus(count)
        seen.clear()
        _, diag, f_sq = solver._solve_spectrum(x, rep, k, n, L, tol, rows)
        assert seen[0].tobytes() == want_uh.tobytes(), count
        assert diag["zero_mode_rel"] == want_rel0
        assert diag.get("compat_rel") == want_compat
        assert f_sq == sum_sq(fh)
        assert x.tobytes() == before


@pytest.mark.parametrize("k, n, N", [(2, 2, 12), (2, 3, 6), (3, 1, 12)])
def test_dirac_residual_matches_the_f_hat_plane_route(k, n, N, reps):
    # the residual check forms f_hat - sigma0 v_hat from phi_hat slab by slab,
    # f_hat by the rows of sigma0 or by those with the last block negated,
    # into the planes of phi_hat, v_hat and, at k = 3, one more V0 grid; the
    # route that holds f_hat as a grid and writes the difference into its
    # planes gives its value and witness bit for bit
    from diraclab import solver

    rep, center = reps[n], np.full(k * n, L / 2)
    for broken in (False, True):
        u, metrics = recover_bump(rep, k, n, N, tol=np.inf, break_compat=broken)
        rows = (broken_rows if broken else solver._sigma_rows)(rep, k, n, N, L)
        phi_hat = solver._fft(make_bump(rep, k, n, N, L, center, 0.6).planes)
        fh = apply_rows(rows, phi_hat)
        f_sq = sum_sq(fh)
        want = dirac_residual_in_f_hat_planes(u, fh, rep)
        assert solver._dirac_residual(u, phi_hat, f_sq, rep, rows) == want, broken
        assert (metrics["dirac_residual_rel_l2"],
                metrics["dirac_residual_witness"]) == want, broken


def test_certification_samples_generic_modes(reps):
    # the sampled modes are drawn over the whole grid, so they include modes
    # with xi_00 != 0 and with X = xi.reshape(k, n) of full rank; the
    # witness is one of them
    from diraclab.solver import _certify_modes, _certify_recovery_identity, _mode_xi

    for k, n, N in ((2, 2, 32), (3, 2, 8), (2, 3, 6)):
        idx = _certify_modes(k, n, N)
        assert len(np.unique(idx)) == len(idx) == 2048
        assert idx.min() >= 1 and idx.max() < N ** (k * n)
        assert np.array_equal(idx, _certify_modes(k, n, N))
        xi = _mode_xi(k, n, N, L, idx)
        assert (xi[:, 0] != 0).mean() > 0.8
        assert (np.linalg.matrix_rank(xi.reshape(-1, k, n)) == min(k, n)).mean() > 0.9
        resid, witness = _certify_recovery_identity(reps[n], k, n, N, L)
        assert 0.0 < resid <= 1e-10
        assert np.ravel_multi_index(witness["mode"], (N,) * (k * n)) in idx
    # a grid with fewer nonzero modes than the sample takes all of them
    assert np.array_equal(np.sort(_certify_modes(2, 2, 4)), np.arange(1, 4**4))


def test_solve_recovers_mixed_spinor_bump(reps):
    # n = 3 has s = 2; a bump on both basis spinors makes sigma0, sigma0* and
    # the compatibility defect mix the two spinor planes of each block
    rep = reps[3]
    center = np.full(6, np.pi)
    profile = make_bump(rep, 2, 3, 6, L, center, 1.2).values[..., 0].real
    phi = GridField(2, 3, 6, L, "V0", np.multiply.outer(profile, [0.6, 0.8j]))
    u, diag = solve_d0(apply_spectral("d0", phi, rep), rep)
    assert diag["compat_rel"] <= 1e-12
    u = anchor_exterior(u, exterior_mask(u, center, 1.2))
    assert np.linalg.norm(u.values - phi.values) <= 1e-10 * np.linalg.norm(phi.values)


def test_solve_zero_data(reps):
    rep = reps[2]
    f = GridField(2, 2, 8, L, "V1", np.zeros((8,) * 4 + (2,), dtype=complex))
    u, diag = solve_d0(f, rep)
    assert np.abs(u.values).max() == 0.0
    # the same diagnostics as nonzero data, certification included
    phi = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    _, reference = solve_d0(apply_spectral("d0", phi, rep), rep)
    assert list(diag) == list(reference)
    assert diag["zero_mode_rel"] == 0.0 and diag["compat_rel"] == 0.0
    assert 0.0 <= diag["recovery_identity_residual"] <= 1e-10


def test_solve_refuses_nonzero_mean(reps):
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    f = apply_spectral("d0", phi, rep)
    bad = GridField(2, 2, 8, L, "V1", f.values + 0.1)
    with pytest.raises(CompatibilityError, match="zero-frequency"):
        solve_d0(bad, rep)


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
def test_compatibility_guard_is_scale_free(reps, scale, N):
    # the cell, the bump's radius and its centre scale together; the guard's
    # defect is a ratio of like quantities, so it must not move with L or N
    rep = reps[2]
    cell = L * scale
    phi = make_bump(rep, 2, 2, N, cell, CENTER4 * scale, 0.6 * scale)
    f = apply_spectral("d0", phi, rep)
    _, diag = solve_d0(f, rep)
    assert diag["compat_rel"] <= 1e-12
    noise = np.random.default_rng(5).standard_normal(f.values.shape)
    noise *= 1e-3 * np.abs(f.values).max()
    noise -= noise.mean(axis=tuple(range(4)), keepdims=True)
    bad = GridField(2, 2, N, cell, "V1", f.values + noise)
    with pytest.raises(CompatibilityError, match="compatibility"):
        solve_d0(bad, rep)
    _, measured = solve_d0(bad, rep, tol=np.inf)
    _, unit_cell = solve_d0(
        GridField(2, 2, N, L, "V1", bad.values * scale), rep, tol=np.inf
    )
    assert measured["compat_rel"] == pytest.approx(unit_cell["compat_rel"], rel=1e-9)


def test_solve_refuses_incompatible_data(rng, reps):
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    f = apply_spectral("d0", phi, rep)
    noise = rng.standard_normal(f.values.shape) * np.abs(f.values).max()
    noise -= noise.mean(axis=tuple(range(4)), keepdims=True)
    bad = GridField(2, 2, 8, L, "V1", f.values + noise)
    with pytest.raises(CompatibilityError, match="compatibility"):
        solve_d0(bad, rep)


def test_solve_without_tol_measures_and_never_raises(reps):
    # tol=None, the sweep's setting, skips both guards and the range defect:
    # data off the range and with a mean solves, the zero-mode share is
    # measured, and the solution is the one tol=inf gives; sigma0 and sigma0*
    # vanish exactly at xi = 0, so the data's mean never reaches u_hat
    rep = reps[2]
    f = apply_spectral("d0", make_bump(rep, 2, 2, 8, L, CENTER4, 0.6), rep)
    noise = np.random.default_rng(3).standard_normal(f.values.shape)
    bad = GridField(2, 2, 8, L, "V1", f.values + noise * np.abs(f.values).max())
    u, diag = solve_d0(bad, rep, tol=None)
    ref, measured = solve_d0(bad, rep, tol=np.inf)
    assert "compat_rel" not in diag and measured["compat_rel"] > 1e-3
    assert diag["zero_mode_rel"] == measured["zero_mode_rel"] > 1e-3
    assert u.values.tobytes() == ref.values.tobytes()
    from diraclab.solver import _sigma_rows

    for star in (False, True):
        assert all(w.flat[0] == 0 for row in _sigma_rows(rep, 2, 2, 8, L, star=star)
                   for w in row)


def test_discrete_green_intertwining(rng, reps):
    # G2 d1 = d1 G1 mode by mode (matrix identity on sampled frequencies)
    rep = reps[2]
    from diraclab.symbols import build_bundle

    for _ in range(10):
        xi = rng.standard_normal(6)
        xi /= np.linalg.norm(xi)
        b = build_bundle(rep, 3, xi)
        lhs = np.linalg.inv(b.L2) @ b.sigma1
        rhs = b.sigma1 @ np.linalg.inv(b.L1)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_hartogs_degenerate_region(reps):
    # a support that covers the cell leaves no exterior region to anchor on
    # or to measure decay on
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    with pytest.raises(ValueError, match="no exterior region"):
        exterior_mask(phi, CENTER4, 10.0)
    # a center with too few or too many entries would measure the wrong region
    for center in (CENTER4[:2], np.full(5, np.pi)):
        with pytest.raises(ValueError, match="center must have shape"):
            exterior_mask(phi, center, 0.6)


def test_anchor_exterior_fixes_constant(reps):
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    shifted = GridField(2, 2, 8, L, "V0", phi.values + (0.5 + 0.25j))
    fixed = anchor_exterior(shifted, exterior_mask(shifted, CENTER4, 0.6))
    assert np.abs(fixed.values - phi.values).max() <= 1e-12


def test_memory_guard(monkeypatch, reps):
    rep = reps[2]
    monkeypatch.setenv("DIRACLAB_MEM_LIMIT_GIB", "0.0001")
    with pytest.raises(ResourceLimitError):
        make_bump(rep, 2, 2, 32, L, CENTER4, 0.6)


def test_memory_guard_estimates_track_peaks(monkeypatch, reps):
    # each guarded call's traced peak above live memory lies between half
    # the guard's estimate and the estimate.  The pipelines guard what they
    # hold together once, before any work, and their estimate bounds those of
    # the calls they make; they run at N = 24, since the solve's
    # certification holds about 1 MiB at every N, one plane at N = 16
    import tracemalloc

    from diraclab import solver

    rep = reps[2]
    N = 16
    phi = make_bump(rep, 2, 2, N, L, CENTER4, 0.6)
    f = apply_spectral("d0", phi, rep)
    calls = {
        "make_bump": lambda: make_bump(rep, 2, 2, N, L, CENTER4, 0.6),
        "bump_dirac_data": lambda: bump_dirac_data(rep, 2, 2, N, L, CENTER4, 0.6),
        "d0": lambda: apply_spectral("d0", phi, rep),
        "d0_star": lambda: apply_spectral("d0_star", f, rep),
        "solve_d0": lambda: solve_d0(f, rep),
    }
    def rejected():
        with pytest.raises(CompatibilityError):
            recover_bump(rep, 2, 2, 24, break_compat=True)

    pipelines = {
        "recover_bump": lambda: recover_bump(rep, 2, 2, 24),
        "break_compat": rejected,
        "resolution_sweep": lambda: resolution_sweep(rep, 2, 2, [16, 24]),
    }
    calls.update(pipelines)
    for call in calls.values():
        call()  # fills the symbol builder's per-k caches, which outlive a call
    guard = solver._require_memory
    estimates = []
    monkeypatch.setattr(solver, "_require_memory",
                        lambda *args: estimates.append(guard(*args)))
    tracemalloc.start()
    try:
        for name, call in calls.items():
            estimates.clear()
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - live
            del result
            if name in pipelines:
                assert max(estimates) == estimates[0], (name, estimates)
            else:
                assert len(estimates) == 1, name
            assert estimates[0] / 2 <= peak <= estimates[0], (name, peak, estimates[0])
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", ["recover_bump", "resolution_sweep"])
def test_pipelines_refuse_what_they_hold_together(call, monkeypatch, reps):
    # at k = n = 2 and N = 77 each call of the pipeline fits a 2 GiB cap on
    # its own, but what the pipeline holds at once (k s + s planes in both)
    # does not: it is refused before any grid is made.  At N - 1 it passes
    # its guard and makes one
    from diraclab import solver

    rep, N = reps[2], 77
    monkeypatch.setenv("DIRACLAB_MEM_LIMIT_GIB", "2.0")
    monkeypatch.setattr(solver, "make_bump", None)  # a grid made would raise TypeError
    monkeypatch.setattr(solver, "bump_dirac_data", None)
    s = rep.s_dim
    for planes in (s, 2 * s):  # make_bump's and bump_dirac_data's
        solver._require_memory(2, 2, N, planes)  # each fits on its own

    def run(size):
        if call == "recover_bump":
            recover_bump(rep, 2, 2, size)
        else:
            resolution_sweep(rep, 2, 2, [8, size])

    with pytest.raises(TypeError):
        run(N - 1)
    with pytest.raises(ResourceLimitError, match=str(N)):
        run(N)


def test_grid_fields_store_contiguous_planes(tmp_path, reps):
    # every producer stores one contiguous plane per component behind the
    # component-last `values`; the file format stays component-last
    rep = reps[2]
    k = n = 2
    N = 8
    phi = make_bump(rep, k, n, N, L, CENTER4, 0.6)
    f = apply_spectral("d0", phi, rep)
    u, _ = solve_d0(f, rep)
    path = tmp_path / "u.bin"
    dump_field(u, path)
    produced = {
        "make_bump": phi,
        "bump_dirac_data": bump_dirac_data(rep, k, n, N, L, CENTER4, 0.6),
        "d0": f,
        "d0_star": apply_spectral("d0_star", f, rep),
        "solve_d0": u,
        "anchor_exterior": anchor_exterior(u, exterior_mask(u, CENTER4, 0.6)),
        "load_field": load_field(path),
    }
    for name, fld in produced.items():
        assert fld.values.shape == (N,) * (k * n) + (fld.dim,), name
        assert fld.planes.flags.c_contiguous, name
        last = np.ascontiguousarray(fld.values)
        rebuilt = GridField(k, n, N, L, fld.space, last)
        assert np.array_equal(rebuilt.values, last), name
        assert rebuilt.planes.flags.c_contiguous, name
    # a component-first array, such as arithmetic on values, is not copied
    shifted = f.values + 0.1
    assert np.shares_memory(GridField(k, n, N, L, "V1", shifted).values, shifted)
    with open(path, "rb") as fh:
        fh.readline()
        assert fh.read() == np.ascontiguousarray(u.values).astype("<c16").tobytes()


def test_dump_load_round_trip(tmp_path, reps):
    rep = reps[2]
    b = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    path = tmp_path / "field.bin"
    dump_field(b, path)
    back = load_field(path)
    assert back.space == "V0" and back.N == 8 and back.L == pytest.approx(L)
    assert np.array_equal(back.values, b.values)


def test_dump_load_hold_one_copy(tmp_path, reps):
    # dump_field copies one leading-axis slab at a time; load_field reads
    # into one buffer that GridField turns into its planes
    import tracemalloc

    f = apply_spectral("d0", make_bump(reps[2], 2, 2, 16, L, CENTER4, 0.6), reps[2])
    path = tmp_path / "f.bin"
    field_bytes = f.values.nbytes
    bound = field_bytes + field_bytes // 16  # one field plus one slab
    dump_field(f, path)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        dump_field(f, path)
        assert tracemalloc.get_traced_memory()[1] - live <= bound
        tracemalloc.reset_peak()
        back = load_field(path)
        live, peak = tracemalloc.get_traced_memory()  # live holds the result
        assert peak - live <= bound
    finally:
        tracemalloc.stop()
    assert f.dim == 2 and np.array_equal(back.values, f.values)


DROP = object()  # a header edit that removes the key


def _rewrite_dump(path, edit_header=None, trim=0):
    """Rewrite a dump with its header edited, key by key from a dict or
    wholly by a function, and `trim` bytes cut off its payload."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    if callable(edit_header):
        header = edit_header(header)
    else:
        for key, value in (edit_header or {}).items():
            if value is DROP:
                del header[key]
            else:
                header[key] = value
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(payload[: len(payload) - trim])


@pytest.mark.parametrize(
    "edit,trim,match",
    [
        ({"space": "V9"}, 0, "unknown space"),
        ({"dtype": "complex64"}, 0, "not complex128"),
        (None, 16, "payload has"),
        ({"L": DROP}, 0, "header lacks L"),
        ({"k": "2"}, 0, "k = '2' is not a positive integer"),
        ({"n": True}, 0, "n = True is not a positive integer"),
        ({"N": 0}, 16 * 8**4, "N = 0 is not a positive integer"),  # empty payload
        ({"L": 0.0}, 0, "L = 0.0 is not positive and finite"),
        ({"L": float("inf")}, 0, "L = inf is not positive and finite"),
        ({"dim": 5}, 0, "dim 5 is not 1, the V0 dimension at k = 2, n = 2"),
        # the payload fits the header's dim, which is not the space's
        ({"space": "V1"}, 0, "dim 1 is not 2, the V1 dimension at k = 2, n = 2"),
        # JSON, but no object
        (lambda header: 5, 0, "header 5 is not a JSON object"),
        (lambda header: None, 0, "header None is not a JSON object"),
        # 16 N^4 = 2^68 bytes, which an int64 product wraps to 0
        ({"N": 65536}, 16 * 8**4, "payload has 0 bytes, the header needs "
         "295147905179352825856"),
    ],
    ids=["unknown-space", "wrong-dtype", "truncated-payload", "missing-L", "k-string",
         "n-bool", "N-zero", "L-zero", "L-infinite", "dim-mismatch", "space-dim-mismatch",
         "header-number", "header-null", "N-overflow"],
)
def test_load_field_rejects_inconsistent_files(tmp_path, reps, edit, trim, match):
    path = tmp_path / "field.bin"
    dump_field(make_bump(reps[2], 2, 2, 8, L, CENTER4, 0.6), path)
    _rewrite_dump(path, edit, trim)
    with pytest.raises(ValueError, match=match) as err:
        load_field(path)
    assert str(path) in str(err.value)


def test_analytic_data_is_genuinely_aliased(reps):
    # sampled continuum data violates the grid compatibility condition
    # (unlike grid-derivative data), which is what the sweep studies
    rep = reps[2]
    f = bump_dirac_data(rep, 2, 2, 16, L, CENTER4, 0.6)
    u, diag = solve_d0(f, rep, tol=np.inf)
    assert np.isfinite(diag["compat_rel"])
    assert diag["compat_rel"] > 1e-8


def test_solve_peaks_hold_few_planes(reps):
    # at N = 32 a complex plane is 16 MiB; f_hat would hold two, phi and u
    # one each.  The main solve forms f_hat = sigma0 phi_hat slab by slab
    # and never holds it, and the scratch of every pass is slab-sized, so it
    # holds 3 planes (phi_hat and two of u_hat, u, the anchoring's gather of
    # the exterior values, phi, or the residual's v_hat, whose planes take
    # the difference with phi_hat's); the rejected solve (phi_hat and u_hat)
    # and a sweep row (f_hat and u_hat) hold 3 at most too.  Each
    # peaks a little above that: the slab scratch and the certification
    import tracemalloc

    rep = reps[2]
    N = 32
    plane = 16 * N**4

    def rejected():
        with pytest.raises(CompatibilityError):
            recover_bump(rep, 2, 2, N, break_compat=True)

    calls = {
        "recover_bump": (lambda: recover_bump(rep, 2, 2, N), 3.5),
        "break_compat": (rejected, 3.5),
        "resolution_sweep": (lambda: resolution_sweep(rep, 2, 2, [N]), 3.5),
    }
    tracemalloc.start()
    try:
        for name, (call, budget) in calls.items():
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - live
            del result
            assert peak <= budget * plane, (name, peak / plane)
    finally:
        tracemalloc.stop()


def test_solve_peaks_stay_under_their_guards_on_many_cpus(cpus, reps, monkeypatch):
    # with one CPU per two slabs (16 at N = 32), a pass runs at most as many
    # parts as keep its slab scratch within the plane the guard adds for it:
    # the main solve, the rejected solve and a sweep row each peak under
    # their guard's estimate (the main solve near 5.1 planes, over its 4, if
    # every pass ran N/2 parts).  Every part makes the scratch it holds for
    # the whole pass before it takes its first slab, and here none takes one
    # before all have started, so all of that scratch is held at once
    import threading
    import tracemalloc

    from diraclab import solver

    rep, N = reps[2], 32
    cpus(N // 2)
    run = solver._Team.run

    def synced(team, fn, n, scratch=2):
        start = threading.Barrier(team.parts(n, scratch), timeout=60)

        def part(ids):
            def waited():
                start.wait()
                yield from ids
            fn(waited())

        return run(team, part, n, scratch)

    def rejected():
        with pytest.raises(CompatibilityError):
            recover_bump(rep, 2, 2, N, break_compat=True)

    calls = {
        "recover_bump": lambda: recover_bump(rep, 2, 2, N),
        "break_compat": rejected,
        "resolution_sweep": lambda: resolution_sweep(rep, 2, 2, [N]),
    }
    for call in calls.values():
        call()  # fills the symbol builder's per-k caches, which outlive a call
    guard, estimates = solver._require_memory, []
    monkeypatch.setattr(solver, "_require_memory",
                        lambda *args: estimates.append(guard(*args)))
    monkeypatch.setattr(solver._Team, "run", synced)
    tracemalloc.start()
    try:
        for name, call in calls.items():
            estimates.clear()
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - live
            del result
            assert max(estimates) == estimates[0], (name, estimates)
            assert peak <= estimates[0], (name, peak / (16 * N**4))
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# the grid work split over the CPUs of the affinity set


@pytest.fixture()
def cpus(monkeypatch):
    """Set how many CPUs the affinity read returns, and record the pins the
    solver asks for instead of making them."""
    import os

    pins = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pins.append(set(mask)))

    def force(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        pins.clear()
        return pins

    return force


def serial_rows(rows, x):
    """The multiplier loop on one thread, one slab at a time: the oracle."""
    out = np.empty((len(rows),) + x.shape[1:], dtype=complex)
    tmp = np.empty((1,) + x.shape[2:], dtype=complex)
    for i in range(x.shape[1]):
        xs = x[:, i:i + 1]
        for row, plane in zip(rows, out[:, i:i + 1]):
            ws = [w[i:i + 1] if w.shape[0] > 1 else w for w in row]
            np.multiply(ws[0], xs[0], out=plane)
            for w, xc in zip(ws[1:], xs[1:]):
                plane += np.multiply(w, xc, out=tmp)
    return out


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("count", [1, 2, 3, "N"])
@pytest.mark.parametrize("kn", [1, 2, 3, 4])
def test_parallel_kernels_match_serial_bitwise(kn, count, cpus):
    # every split of the slabs gives np.fft.fftn's, ifftn's and the serial
    # multiplier loop's bytes
    from diraclab.solver import _fftn

    rng = np.random.default_rng(kn)
    axes = tuple(range(1, kn + 1))
    for N in (4, 5, 7, 8):
        cpus(N if count == "N" else count)
        for comps in (1, 2, 3):
            x = complex_normal(rng, (comps,) + (N,) * kn)
            want = np.fft.fftn(x, axes=axes, out=np.empty(x.shape, dtype=complex))
            got = _fftn(x, np.empty(x.shape, dtype=complex))
            assert got.tobytes() == want.tobytes(), (N, comps)
            want, got = x.copy(), x.copy()
            np.fft.ifftn(want, axes=axes, out=want)
            _fftn(got, got, inverse=True)
            assert got.tobytes() == want.tobytes(), (N, comps)
            # weight grids of full length or length 1 on each axis, as the
            # block-factored symbol entries are
            rows = [[complex_normal(rng, tuple(N if rng.random() < 0.5 else 1
                                               for _ in range(kn)))
                     for _ in range(comps)]
                    for _ in range(1 + (N + comps) % 3)]
            want = serial_rows(rows, x)
            assert apply_rows(rows, x).tobytes() == want.tobytes(), (N, comps)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("kn", [2, 3, 4])
def test_transforms_of_compact_data_match_numpy_bitwise(kn, count, cpus):
    # slabs of grid axis 1 that are all zero are written as zeros, not
    # transformed: zero slabs first, in the middle and last, one nonzero slab,
    # no nonzero slab, and a grid of -0.0, whose transform holds a -0.0 (its
    # slabs are not zero bytes, so they are transformed), all give
    # np.fft.fftn's and ifftn's bytes
    from diraclab.solver import _fftn

    cpus(count)
    rng = np.random.default_rng(30 + kn)
    axes = tuple(range(1, kn + 1))
    N = 8
    supports = [range(3, 8), range(2, 5), range(0, 5), range(4, 5), range(0), [1, 6], "-0"]
    for comps in (1, 2):
        for support in supports:
            x = np.zeros((comps,) + (N,) * kn, dtype=complex)
            if support == "-0":
                x[...] = complex(-0.0, -0.0)
                assert np.signbit(np.fft.fftn(x, axes=axes).view(np.float64)).any()
                support = []
            for i in support:
                x[:, i] = complex_normal(rng, x[:, i].shape)
            want = np.fft.fftn(x, axes=axes)
            assert _fftn(x, np.empty(x.shape, dtype=complex)).tobytes() == want.tobytes()
            got = x.copy()
            _fftn(got, got)
            assert got.tobytes() == want.tobytes()
            want = np.fft.ifftn(x, axes=axes)
            got = x.copy()
            _fftn(got, got, inverse=True)
            assert got.tobytes() == want.tobytes(), (comps, list(support))


@pytest.mark.parametrize("count, n, parts", [(1, 8, 1), (2, 8, 2), (3, 8, 3),
                                             (8, 8, 4), (3, 5, 2), (4, 3, 1)])
def test_parts_follow_affinity_set_and_half_n(count, n, parts, cpus):
    # one part per CPU, at most n // 2 parts; each extra part pins its thread
    # to a CPU of its own, and the caller gets its affinity back
    import threading

    from diraclab.solver import _on_cores

    pins = cpus(count)
    seen, lock = [], threading.Lock()

    def part(slabs):
        for i in slabs:
            with lock:
                seen.append(i)

    assert _on_cores(part, n) == parts
    assert sorted(seen) == list(range(n))
    if parts == 1:
        assert pins == []
    else:
        assert sorted(pins[:-1], key=min) == [{p} for p in range(parts)]
        assert pins[-1] == set(range(count))


def test_parts_take_every_slab_once_under_contention(cpus):
    # more parts than cores, switching threads as often as the interpreter
    # allows: every index still goes to exactly one part
    import sys
    import threading

    from diraclab.solver import _on_cores

    cpus(16)
    taken, lock = [], threading.Lock()

    def part(slabs):
        for i in slabs:
            with lock:
                taken.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            taken.clear()
            assert _on_cores(part, 64) == 16
            assert sorted(taken) == list(range(64))
    finally:
        sys.setswitchinterval(interval)


def test_parts_without_affinity_call_follow_cpu_count(monkeypatch):
    import os

    from diraclab.solver import _on_cores

    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _on_cores(lambda slabs: list(slabs), 8) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _on_cores(lambda slabs: list(slabs), 8) == 1


def test_part_exception_reaches_caller(cpus):
    # an exception in a part on another thread is raised in the caller, and
    # no thread outlives the call
    import threading

    from diraclab.solver import _on_cores

    cpus(3)
    before = threading.active_count()

    def part(slabs):
        list(slabs)
        if threading.current_thread() is not threading.main_thread():
            raise ZeroDivisionError("in a part thread")

    with pytest.raises(ZeroDivisionError, match="in a part thread"):
        _on_cores(part, 8)
    assert threading.active_count() == before


def test_solve_leaves_no_thread_behind(reps):
    import threading

    before = threading.active_count()
    timings = {}
    recover_bump(reps[2], 2, 2, 8, timings=timings)
    assert threading.active_count() == before
    assert 1 <= timings["workers"] <= 4


# ---------------------------------------------------------------------------
# the elementwise passes and reductions on the slabs, and the solve's team


def serial_bump(rep, k, n, N, L, center, radius):
    """make_bump's planes from the whole-grid r2, on one thread: the oracle."""
    from diraclab.solver import grid_axes

    r2 = sum((g - c) ** 2 for g, c in zip(grid_axes(N, L, k * n), center)) / radius**2
    planes = np.zeros((rep.s_dim,) + r2.shape, dtype=complex)
    inside = r2 < 1.0
    planes[0][inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return planes


def serial_bump_dirac(rep, k, n, N, L, center, radius):
    """bump_dirac_data's planes from the whole-grid chain factor: the oracle."""
    from diraclab.solver import grid_axes

    grids = grid_axes(N, L, k * n)
    r2 = sum((g - c) ** 2 for g, c in zip(grids, center)) / radius**2
    inside = r2 < 1.0
    gap = 1.0 - r2[inside]
    chain = np.zeros(r2.shape)
    chain[inside] = np.exp(-1.0 / gap) / gap**2
    gspin = rep.gamma_plus[:, :, 0]
    planes = np.empty((k, rep.s_dim) + chain.shape, dtype=complex)
    for A in range(k):
        slopes = [-2.0 * (grids[A * n + j] - center[A * n + j]) / radius**2
                  for j in range(n)]
        for t in range(rep.s_dim):
            np.multiply(chain, sum(a * gspin[j, t] for j, a in enumerate(slopes)),
                        out=planes[A, t])
    # the slabs of grid axis 1 outside the ball's reach on that axis hold
    # +0.0, where the zero chain times a negative weight gives -0.0
    planes[:, :, (grids[0] - center[0]).ravel() ** 2 / radius**2 >= 1.0] = 0.0
    return planes.reshape((k * rep.s_dim,) + chain.shape)


def serial_exterior(u, center, radius):
    from diraclab.solver import grid_axes

    deltas = (np.abs(g - c) for g, c in zip(grid_axes(u.N, u.L, u.k * u.n), center))
    d2 = sum(np.minimum(d, u.L - d) ** 2 for d in deltas)
    return (d2 > (2.0 * radius) ** 2).ravel()


# (k, n, N, L, center, radius): off-grid centres, and one whose ball touches
# the grid points of two slabs exactly (r2 = 1 there, which is outside)
GEOMETRIES = [
    (2, 1, 16, L, [2.9, 3.3, 3.1, 2.2][:2], 0.7),
    (2, 2, 8, L, [3.0, 2.7, 3.5, 3.2], 0.9),
    (2, 2, 9, L, [2.1, 4.0, 3.3, 2.8], 1.0),
    (3, 1, 10, L, [2.6, 3.4, 3.0], 0.8),
    (2, 3, 5, L, [2.6, 3.7, 2.6, 3.6, 2.7, 3.7], 1.2),
    (2, 2, 8, 8.0, [4.0, 4.0, 4.0, 4.0], 1.0),
]


@pytest.mark.parametrize("count", [1, 2, 3, "N"])
@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["21", "22", "22-odd", "31", "23", "22-touching"])
def test_sliced_passes_match_serial_bitwise(geometry, count, cpus, reps):
    # every split of the slabs gives the whole-grid passes' bytes; the
    # maxima of the exterior report do not depend on the order either
    k, n, N, cell, center, radius = geometry
    rep, center = reps[n], np.array(center)
    cpus(N if count == "N" else count)
    phi = make_bump(rep, k, n, N, cell, center, radius)
    want = serial_bump(rep, k, n, N, cell, center, radius)
    assert phi.planes.tobytes() == want.tobytes()
    assert np.abs(want).max() > 0  # the ball holds grid points
    f = bump_dirac_data(rep, k, n, N, cell, center, radius)
    assert f.planes.tobytes() == serial_bump_dirac(rep, k, n, N, cell, center,
                                                   radius).tobytes()
    mask = exterior_mask(f, center, radius)
    assert mask.tobytes() == serial_exterior(f, center, radius).tobytes()
    # values of many sizes outside the ball, so the exterior mean depends on
    # the order of its sum
    noise = complex_normal(np.random.default_rng(N), f.values.shape)
    u = GridField(k, n, N, cell, "V1", f.values + noise * np.exp(np.arange(f.dim)))
    flat = u.planes.reshape(u.dim, -1)
    want = u.values - flat[:, mask].mean(axis=1)
    assert anchor_exterior(u, mask).values.tobytes() == np.ascontiguousarray(want).tobytes()
    # the witness comes with the report unasked, the same at a second call
    report, witness = hartogs_report(u, mask)
    assert hartogs_report(u, mask) == (report, witness)
    mag = np.abs(flat)
    assert report["global_max"] == mag.max() and report["exterior_max"] == mag[:, mask].max()
    point = np.ravel_multi_index(witness["point"], (N,) * (k * n))
    assert mask[point] and mag[witness["component"], point] == report["exterior_max"]


@pytest.mark.parametrize("kn", [1, 2, 3, 4])
def test_sliced_sums_agree_at_every_count(kn, cpus):
    # the recovery error ||u - phi|| / ||phi||, its squared norms summed slab
    # by slab, and its witness read the same bits at every count, and the
    # witness names the largest |u - phi|; each norm agrees with
    # np.linalg.norm to 1e-14 on entries of many sizes: with u - phi one unit
    # entry the error is 1 / ||phi||, and with phi one unit entry ||u - phi||
    from diraclab.solver import _recovery

    rng = np.random.default_rng(10 + kn)
    for N in (4, 5, 8):
        for comps in (1, 2, 3):
            shape = (comps,) + (N,) * kn
            scale = np.exp(3 * rng.standard_normal(shape))  # entries of many sizes
            x, y = complex_normal(rng, shape) * scale, complex_normal(rng, shape)
            unit = np.zeros(shape, dtype=complex)
            unit[(0,) * len(shape)] = 1
            x[unit != 0] = 0  # so (x + unit) - x is unit exactly
            got = {}
            for case, pair in {"both": (y, x), "phi": (x + unit, x),
                               "diff": (x + y, unit)}.items():
                u, phi = (GridField(kn, 1, N, L, "V0", np.moveaxis(a, 0, -1)) for a in pair)
                seen = set()
                for count in (1, 2, 3, N):
                    cpus(count)
                    err, witness = _recovery(u, phi)
                    seen.add((err, json.dumps(witness)))
                assert len(seen) == 1, (N, comps, case, seen)
                got[case] = err, witness
            assert 1 / got["phi"][0] == pytest.approx(np.linalg.norm(x), rel=1e-14, abs=0)
            assert got["diff"][0] == pytest.approx(np.linalg.norm(x + y - unit),
                                                   rel=1e-14, abs=0)
            err, witness = got["both"]
            assert err == pytest.approx(np.linalg.norm(y - x) / np.linalg.norm(x),
                                        rel=1e-14, abs=0)
            diff = y - x
            mod2 = diff.real**2 + diff.imag**2
            assert mod2[(witness["component"], *witness["point"])] == mod2.max()


def test_split_solves_read_the_same_at_every_count(cpus, reps, monkeypatch):
    # with every grid split among the parts, the whole pipeline (bump, d0,
    # solve, anchor, metrics, sweep) and the rejection of broken data give
    # the same bytes and values at every count
    import json

    from diraclab import solver

    monkeypatch.setattr(solver, "_SPLIT_POINTS", 0)
    rep, seen = reps[2], set()
    for count in (1, 2, 3, 8):
        cpus(count)
        u, metrics = recover_bump(rep, 2, 2, 8)
        rows = resolution_sweep(rep, 2, 2, [8, 10])
        for row in rows:
            del row["timings"]
        with pytest.raises(CompatibilityError) as err:
            recover_bump(rep, 2, 2, 8, break_compat=True)
        seen.add((u.values.tobytes(), json.dumps([metrics, rows]), str(err.value)))
    assert len(seen) == 1


def _counted_starts(monkeypatch):
    """Record every thread started from now on."""
    import threading

    started, start = [], threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def test_one_team_per_solve(cpus, reps, monkeypatch):
    # a solve and a sweep each start parts - 1 threads once and run all of
    # their regions on them; every thread is joined and the caller's pins
    # are made once and undone at the end
    import threading

    from diraclab import solver

    monkeypatch.setattr(solver, "_SPLIT_POINTS", 0)
    pins = cpus(3)
    started = _counted_starts(monkeypatch)
    before = threading.active_count()
    timings = {}
    # at N = 16 the solve's pass, whose parts hold k s + 3 = 5 slabs each,
    # may run 16 // 5 = 3 parts
    recover_bump(reps[2], 2, 2, 16, timings=timings)
    assert timings["workers"] == 3 and len(started) == 2
    # the bump 1, phi's transform 2, the solve's pass 1, u_hat's transform 2,
    # the mask 1, the anchoring 2, the bump again 1, the recovery error 1, the
    # exterior maxima 1, and the residual check 8: u's transform 2, the
    # difference 1, its transforms in phi_hat's and v_hat's planes 2 + 2 and
    # its sums 1
    assert timings["regions"] == 20 and timings["fft_planes"] == 5
    assert threading.active_count() == before
    assert sorted(pins[:-1], key=min) == [{0}, {1}, {2}] and pins[-1] == {0, 1, 2}
    started.clear()
    rows = resolution_sweep(reps[2], 2, 2, [8, 10, 12])
    assert len(started) == 2 and threading.active_count() == before
    assert [row["timings"]["fft_planes"] for row in rows] == [3, 3, 3]
    assert all(row["timings"]["regions"] > 5 and row["timings"]["s"] > 0 for row in rows)
    # a broken solve transforms phi forward only before the guard rejects it
    with solver._team() as team, pytest.raises(CompatibilityError):
        recover_bump(reps[2], 2, 2, 8, break_compat=True)
    assert team.fft_planes == 1


def test_team_survives_a_raising_region_and_ends_with_the_solve(cpus, reps, monkeypatch):
    # a part that raises reaches the caller, and the team's threads wait for
    # the next region; a solve that raises still joins its team
    import threading

    from diraclab import solver

    pins = cpus(3)
    before = threading.active_count()

    def part(slabs):
        list(slabs)
        if threading.current_thread() is not threading.main_thread():
            raise ZeroDivisionError("in a part thread")

    with solver._team():
        with pytest.raises(ZeroDivisionError, match="in a part thread"):
            solver._on_cores(part, 8)
        assert threading.active_count() == before + 2
        assert solver._on_cores(lambda slabs: list(slabs), 8) == 3
    assert threading.active_count() == before and pins[-1] == {0, 1, 2}
    monkeypatch.setattr(solver, "_SPLIT_POINTS", 0)
    pins.clear()
    with pytest.raises(CompatibilityError):
        recover_bump(reps[2], 2, 2, 8, break_compat=True)
    assert threading.active_count() == before and pins[-1] == {0, 1, 2}


def test_team_regions_take_every_slab_once_under_contention(cpus):
    # one team of more parts than cores runs region after region, switching
    # threads as often as the interpreter allows: every index of every
    # region goes to exactly one part, and the team starts its threads once
    import sys
    import threading

    from diraclab import solver

    cpus(16)
    before = threading.active_count()
    taken, lock = [], threading.Lock()

    def part(slabs):
        for i in slabs:
            with lock:
                taken.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with solver._team() as team:
            for n in range(2, 66):
                taken.clear()
                assert solver._on_cores(part, n) == min(16, n // 2)
                assert sorted(taken) == list(range(n))
            assert len(team.threads) == 15
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_region_inside_a_callers_part_completes(cpus):
    # a part on the calling thread may run a region of its own on the same
    # team: each region waits for its own parts, so both cover their range
    import threading

    from diraclab import solver

    cpus(2)
    seen = {"outer": [], "inner": []}

    def inner(slabs):
        seen["inner"].extend(slabs)

    def outer(slabs):
        for i in slabs:
            seen["outer"].append(i)
            if threading.current_thread() is threading.main_thread() and not seen["inner"]:
                solver._on_cores(inner, 8)

    with solver._team() as team:
        assert solver._on_cores(outer, 8) == 2
        assert len(team.threads) == 1
    assert sorted(seen["outer"]) == sorted(seen["inner"]) == list(range(8))


def test_solve_gives_the_caller_its_affinity_back(reps, monkeypatch):
    # with real pins: the calling thread runs on its first CPU during a
    # split solve and on all of them again afterwards
    import os

    from diraclab import solver

    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no affinity call on this platform")
    monkeypatch.setattr(solver, "_SPLIT_POINTS", 0)
    before = os.sched_getaffinity(0)
    seen = []
    real = solver._Team.run

    def run(team, fn, n, scratch=2):
        seen.append(os.sched_getaffinity(0))
        return real(team, fn, n, scratch)

    monkeypatch.setattr(solver._Team, "run", run)
    recover_bump(reps[2], 2, 2, 8)
    assert os.sched_getaffinity(0) == before
    if len(before) > 1:  # pinned from the first split region on
        assert {min(before)} in seen


def test_small_slabs_stay_on_one_thread(cpus, reps, monkeypatch):
    # below _SPLIT_POINTS points per slab a solve splits nothing and starts
    # no thread, at any number of CPUs
    from diraclab import solver

    cpus(4)
    started = _counted_starts(monkeypatch)
    timings = {}
    recover_bump(reps[2], 2, 2, 8, timings=timings)  # 512 points per slab
    resolution_sweep(reps[2], 2, 2, [8, 12])
    assert timings["workers"] == 1 and started == []
    team = solver._Team()
    team.fit(solver._SPLIT_POINTS - 1)
    assert team.width == 1
    team.fit(solver._SPLIT_POINTS)
    assert team.width == 4
