import json

import numpy as np
import pytest

from diraclab import build_clifford
from diraclab.solver import (
    CompatibilityError,
    GridField,
    ResourceLimitError,
    anchor_exterior,
    apply_spectral,
    bump_dirac_data,
    dump_field,
    grid_inner,
    hartogs_report,
    load_field,
    make_bump,
    recover_bump,
    solve_d0,
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


def test_bump_norm_quadrature_converges(reps):
    # Richardson comparison on a two-axis cell where high resolutions are cheap
    rep = reps[1]
    norms = {
        N: make_bump(rep, 2, 1, N, L, np.full(2, np.pi), 1.4).norm()
        for N in (256, 512)
    }
    assert norms[256] > 0
    assert abs(norms[512] / norms[256] - 1.0) <= 1e-6


def test_fft_round_trip(reps):
    rep = reps[2]
    b = make_bump(rep, 2, 2, 16, L, CENTER4, 0.6)
    back = np.fft.ifftn(np.fft.fftn(b.values, axes=range(4)), axes=range(4))
    assert np.abs(back - b.values).max() <= 1e-13 * max(np.abs(b.values).max(), 1e-30)


def test_spectral_complex_property(rng, reps):
    rep = reps[2]
    f = band_limited(rng, rep, 2, 2, 12, rep.s_dim)
    df = apply_spectral("d0", f, rep)
    ddf = apply_spectral("d1", df, rep)
    assert np.linalg.norm(ddf.values) <= 1e-10 * np.linalg.norm(df.values)


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
        apply_spectral("d1", f, rep)  # d1 wants V1 data
    with pytest.raises(ValueError):
        apply_spectral("nope", f, rep)


def test_zero_mode_of_derivative_data(reps):
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 16, L, CENTER4, 0.6)
    f = apply_spectral("d0", phi, rep)
    fh = np.fft.fftn(f.values, axes=range(4))
    assert np.abs(fh[0, 0, 0, 0]).max() <= 1e-12 * np.linalg.norm(fh)


def test_solve_recovers_bump(reps):
    rep = reps[2]
    u, phi, metrics = recover_bump(rep, 2, 2, 16)
    assert metrics["recovery_rel_l2"] <= 1e-10
    assert metrics["dirac_residual_rel_l2"] <= 1e-10
    assert metrics["hartogs"]["ratio"] <= 1e-10
    assert metrics["recovery_identity_residual"] <= 1e-10


def test_solve_zero_data(reps):
    rep = reps[2]
    f = GridField(2, 2, 8, L, "V1", np.zeros((8,) * 4 + (2,), dtype=complex))
    u, diag = solve_d0(f, rep)
    assert np.abs(u.values).max() == 0.0


def test_solve_refuses_nonzero_mean(reps):
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    f = apply_spectral("d0", phi, rep)
    bad = GridField(2, 2, 8, L, "V1", f.values + 0.1)
    with pytest.raises(CompatibilityError, match="zero-frequency"):
        solve_d0(bad, rep)


def test_solve_refuses_incompatible_data(rng, reps):
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    f = apply_spectral("d0", phi, rep)
    noise = rng.standard_normal(f.values.shape) * np.abs(f.values).max()
    noise -= noise.mean(axis=tuple(range(4)), keepdims=True)
    bad = GridField(2, 2, 8, L, "V1", f.values + noise)
    with pytest.raises(CompatibilityError, match="compatibility"):
        solve_d0(bad, rep)


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
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    rpt = hartogs_report(phi, (tuple(CENTER4), 10.0))
    assert rpt["note"] == "no exterior region"
    with pytest.raises(ValueError):
        anchor_exterior(phi, (tuple(CENTER4), 10.0))


def test_anchor_exterior_fixes_constant(reps):
    rep = reps[2]
    phi = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    shifted = GridField(2, 2, 8, L, "V0", phi.values + (0.5 + 0.25j))
    fixed = anchor_exterior(shifted, phi.support)
    assert np.abs(fixed.values - phi.values).max() <= 1e-12


def test_memory_guard(monkeypatch, reps):
    rep = reps[2]
    monkeypatch.setenv("DIRACLAB_MEM_LIMIT_GIB", "0.0001")
    with pytest.raises(ResourceLimitError):
        make_bump(rep, 2, 2, 32, L, CENTER4, 0.6)


def test_dump_load_round_trip(tmp_path, reps):
    rep = reps[2]
    b = make_bump(rep, 2, 2, 8, L, CENTER4, 0.6)
    path = tmp_path / "field.bin"
    dump_field(b, path)
    back = load_field(path)
    assert back.space == "V0" and back.N == 8 and back.L == pytest.approx(L)
    assert np.array_equal(back.values, b.values)


def _rewrite_dump(path, edit_header=None, trim=0):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    if edit_header:
        header.update(edit_header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(payload[: len(payload) - trim])


@pytest.mark.parametrize(
    "edit,trim,match",
    [
        ({"space": "V9"}, 0, "unknown space"),
        ({"dtype": "complex64"}, 0, "not complex128"),
        (None, 16, "payload has"),
    ],
    ids=["unknown-space", "wrong-dtype", "truncated-payload"],
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
    u, diag = solve_d0(f, rep, tol=np.inf, check_compat=True, certify=False)
    assert np.isfinite(diag["compat_rel"])
    assert diag["compat_rel"] > 1e-8
