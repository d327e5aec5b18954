"""Timing study for the frequency-domain solve kernel.

Times the closed form the solver applies, u_hat = sigma0* f_hat / |xi|^2 with
sigma0* matrix-free (`solve_d0` with its compatibility guard, without
certification), against the Hodge route it replaced and keeps as its oracle:
sigma0* sigma0 sigma0* L1^{-1}, with sigma0 and L1 from `symbols.build_bundle`
over batches of modes and L1 inverted mode by mode.  Both solve the same bump
data on the 2+2-variable torus; the script prints both times and the largest
difference between the solutions.

Run:  PYTHONPATH=src python benchmarks/multiplier_kernel.py [N]   (default 32)
"""

import sys
import time

import numpy as np

from diraclab import build_bundle, build_clifford
from diraclab.solver import _mode_xi, apply_spectral, make_bump, solve_d0


def hodge_route(f, rep):
    """Solution values of D0 u = f through the per-mode inverse of L1.

    It transforms the same contiguous component planes as the solver.  The
    modes go one slab of the first grid axis at a time; the zero mode of the
    solution is set to 0, as in the solver.
    """
    k, n, N, L = f.k, f.n, f.N, f.L
    axes = tuple(range(1, k * n + 1))
    slab = N ** (k * n - 1)
    flat = np.fft.fftn(f.planes, axes=axes).reshape(f.dim, N, slab)
    out = np.empty((rep.s_dim, N, slab), dtype=complex)
    for i in range(N):
        xi = _mode_xi(k, n, N, L, np.arange(i * slab, (i + 1) * slab))
        bundle = build_bundle(rep, k, xi)
        s0, L1 = bundle.sigma0, bundle.L1
        s0h = np.conj(np.swapaxes(s0, -1, -2))
        nonzero = (xi**2).sum(axis=1) > 0
        inv = np.zeros_like(L1)
        inv[nonzero] = np.linalg.inv(L1[nonzero])
        out[:, i] = np.einsum("bij,jb->ib", s0h @ s0 @ s0h @ inv, flat[:, i])
    out = np.fft.ifftn(out.reshape((rep.s_dim,) + (N,) * (k * n)), axes=axes)
    return np.moveaxis(out, 0, -1)


def compare(N):
    """Time both routes on the bump at resolution N; return the measurements."""
    rep = build_clifford(2)
    phi = make_bump(rep, 2, 2, N, 2 * np.pi, np.full(4, np.pi), 0.6)
    f = apply_spectral("d0", phi, rep)
    t0 = time.perf_counter()
    u, _ = solve_d0(f, rep, certify=False)
    t_closed = time.perf_counter() - t0
    t0 = time.perf_counter()
    u_hodge = hodge_route(f, rep)
    t_hodge = time.perf_counter() - t0
    return {
        "N": N,
        "modes": N**4,
        "closed_form_s": t_closed,
        "hodge_route_s": t_hodge,
        "max_abs_diff": float(np.abs(u.values - u_hodge).max()),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    r = compare(int(argv[0]) if argv else 32)
    print(f"grid {r['N']}^4 = {r['modes']} modes")
    for label, key in (("closed form", "closed_form_s"), ("Hodge route", "hodge_route_s")):
        print(f"{label:12s}: {r[key]:8.3f} s  ({r['modes'] / r[key]:,.0f} modes/s)")
    print(f"speedup x{r['hodge_route_s'] / r['closed_form_s']:.1f}, "
          f"solutions agree to {r['max_abs_diff']:.2e}")
    return r


if __name__ == "__main__":
    main()
