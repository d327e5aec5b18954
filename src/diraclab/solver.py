"""Periodic spectral solver for the non-homogeneous system D0 u = f.

Everything lives on a uniform grid over the cell [0, L)^{kn}.  Operators act
as Fourier multipliers: forward FFT, multiply each discrete mode by the
corresponding symbol matrix, inverse FFT.  The multiplier of a derivative on
the cell is the symbol evaluated at xi = -(2 pi / L) m for integer mode m,
which keeps grid operators equal to true derivatives on trigonometric
polynomials.

The solve realizes u = D0* D0 D0* applied to the frequency-wise inverse of
L1.  Because L1 sigma0 = |xi|^4 sigma0 (the compatibility branch is
annihilated), the recovery multiplier times sigma0 is the identity at every
nonzero mode, a fact the solver certifies on a sample of modes before
running.  The zero mode of the solution is fixed afterwards by anchoring on
the exterior of the declared data support, the periodic stand-in for decay at
infinity.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import weyl

DEFAULT_MEM_GIB = 2.0
MEM_ENV_VAR = "DIRACLAB_MEM_LIMIT_GIB"
_CHUNK = 1 << 14


class ResourceLimitError(RuntimeError):
    """Configuration would exceed the memory cap."""


class CompatibilityError(RuntimeError):
    """Input data violates a solvability precondition."""


@dataclass
class GridField:
    """Periodic sample grid of vector-valued data.

    values has shape (N,)*(k*n) + (dim,).  V2 data is stored in compressed
    coordinates (orthonormal Weyl basis tensor spinor).  support, when set,
    declares a ball (center, radius) outside which the field vanishes.
    """

    k: int
    n: int
    N: int
    L: float
    space: str
    values: np.ndarray
    support: Optional[tuple] = field(default=None)

    @property
    def dim(self):
        return self.values.shape[-1]

    def norm(self):
        vol = self.L ** (self.k * self.n)
        return float(np.linalg.norm(self.values) * np.sqrt(vol / self.N ** (self.k * self.n)))


def field_dim(space, k, s_dim):
    if space == "V0":
        return s_dim
    if space == "V1":
        return k * s_dim
    if space == "V2":
        return weyl.weyl_space(k, "21").dim * s_dim
    raise ValueError(f"no grid representation for space {space!r}")


def _require_memory(k, n, N, dim, n_buffers=6):
    cap_gib = float(os.environ.get(MEM_ENV_VAR, DEFAULT_MEM_GIB))
    need = n_buffers * (N ** (k * n)) * max(dim, 1) * 16
    if need > cap_gib * 2**30:
        raise ResourceLimitError(
            f"grid {N}^{k * n} x {dim} needs about {need / 2**30:.2f} GiB "
            f"(> cap {cap_gib} GiB; override via {MEM_ENV_VAR})"
        )


def grid_axes(N, L, kn):
    ax = np.arange(N) * (L / N)
    return np.meshgrid(*([ax] * kn), indexing="ij", sparse=True)


def grid_inner(a, b):
    """Discrete L2 inner product over the cell (conjugate-linear in a)."""
    if a.values.shape != b.values.shape:
        raise ValueError("grid shapes differ")
    vol = a.L ** (a.k * a.n)
    return complex(np.vdot(a.values, b.values) * vol / a.N ** (a.k * a.n))


def make_bump(rep, k, n, N, L, center, radius, spinor=None):
    """Smooth compactly supported spinor bump on the periodic cell.

    The profile is exp(-1/(1-r^2)) for r < 1 (r the scaled distance from the
    center), identically zero outside the ball.  The ball must sit strictly
    inside the cell with clearance at least one radius on every side.
    """
    kn = k * n
    center = np.asarray(center, dtype=float)
    if center.shape != (kn,):
        raise ValueError(f"center must have shape ({kn},)")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if np.any(center - 2 * radius < 0) or np.any(center + 2 * radius > L):
        raise ValueError(
            "bump ball does not fit inside the cell with the required margin"
        )
    _require_memory(k, n, N, rep.s_dim)
    if spinor is None:
        spinor = np.zeros(rep.s_dim, dtype=complex)
        spinor[0] = 1.0
    spinor = np.asarray(spinor, dtype=complex)
    grids = grid_axes(N, L, kn)
    r2 = sum((g - c) ** 2 for g, c in zip(grids, center)) / radius**2
    profile = np.zeros(r2.shape)
    inside = r2 < 1.0
    profile[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    values = profile[..., None] * spinor
    return GridField(k, n, N, L, "V0", values, support=(tuple(center), radius))


def bump_dirac_data(rep, k, n, N, L, center, radius, spinor=None):
    """Exact samples of the continuum Dirac image of the bump.

    Evaluates the closed-form gradient of the bump profile and contracts with
    the gamma matrices, giving V1 data that is independent of the grid
    operators.  Used for discretization-convergence studies; the sampled data
    satisfies the compatibility condition only up to aliasing.
    """
    kn = k * n
    center = np.asarray(center, dtype=float)
    if spinor is None:
        spinor = np.zeros(rep.s_dim, dtype=complex)
        spinor[0] = 1.0
    spinor = np.asarray(spinor, dtype=complex)
    _require_memory(k, n, N, k * rep.s_dim)
    grids = grid_axes(N, L, kn)
    r2 = sum((g - c) ** 2 for g, c in zip(grids, center)) / radius**2
    inside = r2 < 1.0
    profile = np.zeros(r2.shape)
    profile[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    chain = np.zeros(r2.shape)
    chain[inside] = profile[inside] / (1.0 - r2[inside]) ** 2
    gspin = np.einsum("jst,t->js", rep.gamma_plus, spinor)
    values = np.zeros(r2.shape + (k, rep.s_dim), dtype=complex)
    for A in range(k):
        for j in range(n):
            dv = -2.0 * (grids[A * n + j] - center[A * n + j]) / radius**2 * chain
            values[..., A, :] += dv[..., None] * gspin[j]
    values = values.reshape(r2.shape + (k * rep.s_dim,))
    return GridField(k, n, N, L, "V1", values, support=(tuple(center), radius))


# ---------------------------------------------------------------------------
# frequency-domain machinery


def _mode_chunks(kn, N, chunk=_CHUNK):
    total = N**kn
    freq = np.fft.fftfreq(N, d=1.0 / N)  # integer modes as floats
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        modes = np.empty((len(idx), kn))
        for t in range(kn):
            modes[:, t] = freq[(idx // N ** (kn - 1 - t)) % N]
        yield idx, modes


def _batch_symbols(rep, k, xi):
    """xi: (B, k, n) physical frequencies -> xp, xm, scal batches."""
    xp = -1j * np.einsum("bAj,jst->bAst", xi, rep.gamma_plus)
    xm = -1j * np.einsum("bAj,jst->bAst", xi, rep.gamma_minus)
    scal = 2.0 * np.einsum("bAj,bBj->bAB", xi, xi)
    return xp, xm, scal


def _batch_sigma0(rep, k, xi):
    xp, _, _ = _batch_symbols(rep, k, xi)
    b, s = xi.shape[0], rep.s_dim
    return xp.reshape(b, k * s, s)


def _batch_sigma1(rep, k, xi):
    """Compressed sigma1 blocks, (B, d2*s, k*s), assembled without the full
    order-3 tensor."""
    xp, xm, scal = _batch_symbols(rep, k, xi)
    s = rep.s_dim
    ws2 = weyl.weyl_space(k, "21")
    w = ws2.basis.reshape((k, k, k, ws2.dim))
    pp = np.einsum("bAsu,bBut->bABst", xp, xm)
    p1 = 0.5 * np.einsum("ABCr,bABut->bruCt", w, pp)
    p2 = 0.5 * np.einsum("ABCr,bACut->bruBt", w, pp)
    p3 = -0.5 * np.einsum("ABCr,bBC,ut->bruAt", w, scal, np.eye(s))
    out = p1 + p2 + p3
    b = xi.shape[0]
    return out.reshape(b, ws2.dim * s, k * s)


def _batch_L1(rep, k, xi):
    s0 = _batch_sigma0(rep, k, xi)
    s1 = _batch_sigma1(rep, k, xi)
    s0h = np.conj(np.swapaxes(s0, -1, -2))
    pr = s0 @ s0h
    return pr @ pr + np.conj(np.swapaxes(s1, -1, -2)) @ s1


_TAGS = {
    "d0": ("V0", "V1"),
    "d0_star": ("V1", "V0"),
    "d1": ("V1", "V2"),
    "box1": ("V1", "V1"),
}


def _tag_matrix(tag, rep, k, xi):
    if tag == "d0":
        return _batch_sigma0(rep, k, xi)
    if tag == "d0_star":
        return np.conj(np.swapaxes(_batch_sigma0(rep, k, xi), -1, -2))
    if tag == "d1":
        return _batch_sigma1(rep, k, xi)
    if tag == "box1":
        return _batch_L1(rep, k, xi)
    raise ValueError(f"unknown operator tag {tag!r}")


def apply_spectral(tag, fld, rep):
    """Apply one of the grid operators {d0, d1, d0_star, box1} spectrally."""
    if tag not in _TAGS:
        raise ValueError(f"unknown operator tag {tag!r}")
    space_in, space_out = _TAGS[tag]
    if fld.space != space_in:
        raise ValueError(f"{tag} expects a {space_in} grid field, got {fld.space}")
    kn = fld.k * fld.n
    out_dim = field_dim(space_out, fld.k, rep.s_dim)
    _require_memory(fld.k, fld.n, fld.N, max(fld.dim, out_dim))
    fh = np.fft.fftn(fld.values, axes=tuple(range(kn)))
    flat = fh.reshape(-1, fld.dim)
    out = np.empty((flat.shape[0], out_dim), dtype=complex)
    scale = 2 * np.pi / fld.L
    for idx, modes in _mode_chunks(kn, fld.N):
        xi = (-scale * modes).reshape(len(idx), fld.k, fld.n)
        mat = _tag_matrix(tag, rep, fld.k, xi)
        out[idx] = np.einsum("bij,bj->bi", mat, flat[idx])
    out = out.reshape(fh.shape[:-1] + (out_dim,))
    values = np.fft.ifftn(out, axes=tuple(range(kn)))
    return GridField(fld.k, fld.n, fld.N, fld.L, space_out, values, support=None)


def _certify_recovery_identity(rep, k, n, N, L, sample=2048, tol=1e-10):
    """Check sigma0* sigma0 sigma0* L1^{-1} sigma0 == Id on sample modes."""
    kn = k * n
    total = N**kn
    count = min(sample, total - 1)
    idx = np.arange(1, count + 1)
    freq = np.fft.fftfreq(N, d=1.0 / N)
    modes = np.empty((count, kn))
    for t in range(kn):
        modes[:, t] = freq[(idx // N ** (kn - 1 - t)) % N]
    xi = (-(2 * np.pi / L) * modes).reshape(count, k, n)
    s0 = _batch_sigma0(rep, k, xi)
    s0h = np.conj(np.swapaxes(s0, -1, -2))
    L1 = _batch_L1(rep, k, xi)
    mult = s0h @ s0 @ s0h @ np.linalg.inv(L1)
    resid = np.abs(mult @ s0 - np.eye(rep.s_dim)).max()
    if resid > tol:
        raise ArithmeticError(
            f"frequency-wise recovery identity failed ({resid:.2e} > {tol:.0e})"
        )
    return float(resid)


def solve_d0(f, rep, tol=1e-6, check_compat=True, certify=True):
    """Solve D0 u = f on the torus through the Hodge inverse at each mode.

    Parameters
    ----------
    f : GridField
        V1 data.  Must have (numerically) vanishing mean and satisfy the
        compatibility condition; both guards use `tol` relative to the data
        norm and raise :class:`CompatibilityError` when violated.
    check_compat : bool
        Disable only for convergence studies on non-band-limited data.

    Returns
    -------
    (GridField, dict)
        The zero-mean solution and a diagnostics record.
    """
    if f.space != "V1":
        raise ValueError(f"solve_d0 expects V1 data, got {f.space}")
    k, n, N, L = f.k, f.n, f.N, f.L
    kn = k * n
    _require_memory(k, n, N, f.dim)
    fh = np.fft.fftn(f.values, axes=tuple(range(kn)))
    flat = fh.reshape(-1, f.dim)
    fnorm = float(np.linalg.norm(flat))
    diag = {}
    if fnorm == 0.0:
        u = GridField(k, n, N, L, "V0", np.zeros(fh.shape[:-1] + (rep.s_dim,), complex))
        return u, {"zero_mode_rel": 0.0, "compat_rel": 0.0, "certified": True}
    rel0 = float(np.linalg.norm(flat[0]) / fnorm)
    diag["zero_mode_rel"] = rel0
    if rel0 > tol:
        raise CompatibilityError(
            f"zero-frequency component too large ({rel0:.3e} > {tol:.1e}); "
            "data must have vanishing mean"
        )
    if check_compat:
        compat = 0.0
        scale = 2 * np.pi / L
        for idx, modes in _mode_chunks(kn, N):
            xi = (-scale * modes).reshape(len(idx), k, n)
            s1 = _batch_sigma1(rep, k, xi)
            compat += float(
                (np.abs(np.einsum("bij,bj->bi", s1, flat[idx])) ** 2).sum()
            )
        compat = np.sqrt(compat) / fnorm
        diag["compat_rel"] = float(compat)
        if compat > tol:
            raise CompatibilityError(
                f"compatibility defect too large ({compat:.3e} > {tol:.1e})"
            )
    if certify:
        diag["recovery_identity_residual"] = _certify_recovery_identity(
            rep, k, n, N, L
        )
    scale = 2 * np.pi / L
    out = np.empty((flat.shape[0], rep.s_dim), dtype=complex)
    for idx, modes in _mode_chunks(kn, N):
        xi = (-scale * modes).reshape(len(idx), k, n)
        s0 = _batch_sigma0(rep, k, xi)
        s0h = np.conj(np.swapaxes(s0, -1, -2))
        L1 = _batch_L1(rep, k, xi)
        nonzero = np.linalg.norm(modes, axis=1) > 0
        inv = np.zeros_like(L1)
        if nonzero.any():
            inv[nonzero] = np.linalg.inv(L1[nonzero])
        mult = s0h @ s0 @ s0h @ inv
        out[idx] = np.einsum("bij,bj->bi", mult, flat[idx])
    out[0] = 0.0
    values = np.fft.ifftn(
        out.reshape(fh.shape[:-1] + (rep.s_dim,)), axes=tuple(range(kn))
    )
    u = GridField(k, n, N, L, "V0", values, support=None)
    return u, diag


def _exterior_mask(k, n, N, L, center, distance):
    grids = grid_axes(N, L, k * n)
    d2 = None
    for g, c in zip(grids, center):
        delta = np.abs(g - c)
        delta = np.minimum(delta, L - delta)  # periodic min-image distance
        d2 = delta**2 if d2 is None else d2 + delta**2
    return d2 > distance**2


def anchor_exterior(u, support, margin=2.0):
    """Fix the additive constant so the solution vanishes far from the data.

    The grid solve leaves the zero mode free (it sets it to zero); the decay
    normalization of the continuum problem corresponds on the torus to
    subtracting the mean of u over the region at distance > margin * radius
    from the declared support ball.
    """
    center, radius = support
    mask = _exterior_mask(u.k, u.n, u.N, u.L, center, margin * radius)
    if not mask.any():
        raise ValueError("no exterior region: support covers the whole cell")
    shift = u.values[mask].mean(axis=0)
    return GridField(u.k, u.n, u.N, u.L, u.space, u.values - shift, support=u.support)


def hartogs_report(u, support, margin=1.0):
    """Exterior decay metrics for a solution produced from supported data.

    Reports the max of |u| over the region at distance >= margin * radius
    outside the support ball, against the global max.
    """
    center, radius = support
    mask = _exterior_mask(u.k, u.n, u.N, u.L, center, radius + margin * radius)
    umax = float(np.abs(u.values).max())
    if not mask.any():
        return {"exterior_max": None, "global_max": umax, "ratio": None,
                "note": "no exterior region"}
    emax = float(np.abs(u.values[mask]).max())
    return {
        "exterior_max": emax,
        "global_max": umax,
        "ratio": emax / umax if umax > 0 else 0.0,
    }


def recover_bump(rep, k, n, N, L=2 * np.pi, radius=0.6, center=None, tol=1e-6,
                 break_compat=False):
    """Full pipeline: bump -> grid d0 -> solve -> anchored recovery metrics."""
    if center is None:
        center = np.full(k * n, L / 2)
    phi = make_bump(rep, k, n, N, L, center, radius)
    f = apply_spectral("d0", phi, rep)
    f.support = phi.support
    if break_compat:
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(f.values.shape) * np.abs(f.values).max()
        f = GridField(k, n, N, L, "V1", f.values + noise, support=f.support)
    u0, diag = solve_d0(f, rep, tol=tol)
    u = anchor_exterior(u0, phi.support)
    du = apply_spectral("d0", u, rep)
    fn = np.linalg.norm(f.values)
    metrics = {
        "recovery_rel_l2": float(
            np.linalg.norm(u.values - phi.values) / np.linalg.norm(phi.values)
        ),
        "dirac_residual_rel_l2": float(np.linalg.norm(du.values - f.values) / fn),
        "hartogs": hartogs_report(u, phi.support),
    }
    metrics.update(diag)
    return u, phi, metrics


def resolution_sweep(rep, k, n, Ns, L=2 * np.pi, radius=0.6, center=None):
    """Discretization-convergence study against exact continuum data.

    For each N the V1 data is the analytically sampled Dirac image of the
    bump (not band-limited), so the recovery error is a genuine function of
    resolution.  The compatibility guard is skipped: sampled continuum data
    satisfies it only up to aliasing, which is the quantity under study.
    """
    if center is None:
        center = np.full(k * n, L / 2)
    rows = []
    for N in Ns:
        f = bump_dirac_data(rep, k, n, N, L, center, radius)
        u0, diag = solve_d0(f, rep, tol=np.inf, check_compat=False, certify=True)
        u = anchor_exterior(u0, f.support)
        phi = make_bump(rep, k, n, N, L, center, radius)
        err = float(
            np.linalg.norm(u.values - phi.values) / np.linalg.norm(phi.values)
        )
        rows.append({"N": int(N), "recovery_rel_l2": err,
                     "zero_mode_rel": diag["zero_mode_rel"]})
    return rows


def dump_field(fld, path):
    """Write a field as a JSON header line plus raw little-endian payload."""
    header = {
        "k": fld.k,
        "n": fld.n,
        "N": fld.N,
        "L": fld.L,
        "space": fld.space,
        "dim": fld.dim,
        "dtype": "complex128",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(fld.values).astype("<c16").tobytes())


def load_field(path):
    """Read a field written by :func:`dump_field`, checking it against its header."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    if header["space"] not in ("V0", "V1", "V2"):
        raise ValueError(f"field {path}: unknown space {header['space']!r}")
    if header.get("dtype") != "complex128":
        raise ValueError(f"field {path}: dtype {header.get('dtype')!r} is not complex128")
    kn = header["k"] * header["n"]
    shape = (header["N"],) * kn + (header["dim"],)
    if len(payload) != 16 * int(np.prod(shape)):
        raise ValueError(
            f"field {path}: payload has {len(payload)} bytes, the header "
            f"needs {16 * int(np.prod(shape))}"
        )
    values = np.frombuffer(payload, dtype="<c16").reshape(shape).astype(complex)
    return GridField(
        header["k"], header["n"], header["N"], header["L"], header["space"], values
    )
