"""Periodic spectral solver for the non-homogeneous system D0 u = f.

Everything lives on a uniform grid over the cell [0, L)^{kn}.  Operators act
as Fourier multipliers: forward FFT, multiply each discrete mode by the
corresponding symbol matrix, inverse FFT.  The multiplier of a derivative on
the cell is the symbol evaluated at xi = -(2 pi / L) m for integer mode m,
which keeps grid operators equal to true derivatives on trigonometric
polynomials.

Grid fields are stored component-first, so transforms and multipliers run on
contiguous planes, one per component.

The solve applies u_hat = sigma0* f_hat / |xi|^2, with sigma0 and sigma0*
matrix-free: k s^2 multiply-adds of weight grids, the entries of the Dirac
symbol on one block's n axes.  Because sigma0* sigma0 = |xi|^2 Id and
L1 sigma0 = |xi|^4 sigma0, this closed form equals the Hodge route
sigma0* sigma0 sigma0* L1^{-1} at every nonzero mode, a fact the solver
certifies on a seeded sample of modes drawn from the whole grid.  The zero
mode of the solution is fixed afterwards by anchoring on the exterior region
(:func:`exterior_mask`: periodic distance > 2 radius from the data support's
center), the periodic stand-in for decay at infinity; the exterior decay is
measured on the same region.

Cores: every pass over a grid (the bump and its Dirac data, the FFTs, the
multipliers, the division by |xi|^2, the exterior mask, the anchoring, and the
norms and maxima of the metrics) cuts its planes into slabs and shares them
out among one thread per CPU of the process's affinity set (:func:`_on_cores`);
NumPy releases the GIL in its FFT and ufunc loops.  :func:`recover_bump` and
:func:`resolution_sweep` start those threads once, each pinned to its CPU, run
every pass on them and join them before they return (:func:`_team`); a pass
called on its own gets threads for that pass alone.  A solve whose slabs hold
fewer than _SPLIT_POINTS grid points (N <= 16 at k = n = 2) keeps every pass
on one thread, where a second costs more than it saves.  Each slab takes the
same arithmetic as on one core, so every grid is bitwise the same at every CPU
count.  A norm is the exact sum (math.fsum) of one partial sum per slab,
each from NumPy's pairwise sums, not from BLAS, whose idle threads would
busy-wait on the CPUs the parts run on; so it too reads the same at every
count.  To use one core, run under `taskset`.

Memory: the multipliers and the division by |xi|^2 run one slab of the first
grid axis at a time per part, so their scratch is slabs, not grids, and a
pass whose parts each hold m slabs at once runs at most N // m parts, so that
its scratch fits in one plane (m = k s + 3 in :func:`recover_bump`'s pass,
which holds f_hat's slab).  The bump, its Dirac data, the exterior mask, the
norms and the maxima work one slab at a time too; the anchoring gathers the
exterior values slab by slab into one array and makes no index array.  The
pipelines spend their own buffers: :func:`recover_bump` transforms phi in its
own planes and keeps f as phi_hat and rows of weight grids (sigma0's, or, for
a broken solve, sigma0's with the last block negated); the solve and the
residual check form f_hat one slab at a time where they read it, so f_hat is
never held as a grid, and f is never formed in real space.  phi is built
again for the recovery error.  The residual check writes f_hat - sigma0 v_hat
(v_hat = FFT(u)) into the planes of phi_hat and v_hat, with (k - 2) s planes
more where k > 2.  :func:`resolution_sweep` transforms its data in its own
planes.  Counted in planes (one complex grid per component: s for V0, k s for
V1), every solve path holds at most one V1 grid and one V0 grid, (k + 1) s
planes (3 at k = n = 2, where s = 1): a solve phi_hat, u and a third V0 grid
(u's gather, phi or v_hat) and the residual's (k - 2) s planes, whether its
data is compatible, rejected, or let through by a tolerance above its defect;
a sweep row f_hat and u_hat.
"""

import contextlib
import json
import math
import os
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import symbols
from .clifford import dirac_symbol, spinor_dim

DEFAULT_MEM_GIB = 2.0
MEM_ENV_VAR = "DIRACLAB_MEM_LIMIT_GIB"


class ResourceLimitError(RuntimeError):
    """Configuration would exceed the memory cap."""


class CompatibilityError(RuntimeError):
    """Input data violates a solvability precondition."""


@dataclass
class GridField:
    """Periodic sample grid of vector-valued data.

    values, of shape (N,)*(k*n) + (dim,), is a view of the C-contiguous
    component-first buffer `planes`; an array passed in is copied only when
    its components are not contiguous planes already.  space is "V0" (S+
    valued, dim s) or "V1" (k S- components, dim k s).
    """

    k: int
    n: int
    N: int
    L: float
    space: str
    values: np.ndarray

    def __post_init__(self):
        planes = np.ascontiguousarray(np.moveaxis(np.asarray(self.values), -1, 0))
        self.values = np.moveaxis(planes, 0, -1)

    @property
    def planes(self):
        return np.moveaxis(self.values, -1, 0)

    @property
    def dim(self):
        return self.values.shape[-1]


def _require_bytes(need, what):
    """Refuse `what` if its `need` bytes exceed the memory cap; else return
    `need`."""
    cap_gib = float(os.environ.get(MEM_ENV_VAR, DEFAULT_MEM_GIB))
    if need > cap_gib * 2**30:
        raise ResourceLimitError(
            f"{what} needs about {need / 2**30:.2f} GiB "
            f"(> cap {cap_gib} GiB; override via {MEM_ENV_VAR})"
        )
    return need


def _require_memory(k, n, N, planes):
    """Refuse, or return the bytes of, a call holding `planes` complex grids at
    once, plus one plane for what callers leave out (weights, masks, buffers)."""
    return _require_bytes((planes + 1) * (N ** (k * n)) * 16,
                          f"grid {N}^{k * n} x {planes:g} planes")


def grid_axes(N, L, kn):
    ax = np.arange(N) * (L / N)
    return np.meshgrid(*([ax] * kn), indexing="ij", sparse=True)


def _bump_geometry(k, n, N, L, center, radius, components):
    """Validated center, grid axes and a function giving the squared scaled
    distance r2 on one slab of grid axis 1, or None where the slab misses the
    ball, of a bump whose field has `components` values per grid point;
    raises as :func:`make_bump` documents."""
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
    _require_memory(k, n, N, components)  # r2 and its temporaries are slabs
    grids = grid_axes(N, L, kn)

    def r2(i):
        terms = [(_slab(g, i) - c) ** 2 for g, c in zip(grids, center)]
        # the other terms are >= 0, and adding them cannot round the sum below
        # the first: if that alone reaches the radius, every point is outside
        if terms[0].item() / radius**2 >= 1.0:
            return None
        return sum(terms) / radius**2

    return center, grids, r2


def make_bump(rep, k, n, N, L, center, radius):
    """Smooth compactly supported bump on the first basis spinor of the
    periodic cell.

    The profile is exp(-1/(1-r^2)) for r < 1 (r the scaled distance from the
    center), identically zero outside the ball.  The ball must sit strictly
    inside the cell with clearance at least one radius on every side; a
    center not of shape (k*n,), a radius <= 0 or a ball that does not fit
    raises ValueError.
    """
    r2 = _bump_geometry(k, n, N, L, center, radius, rep.s_dim)[2]
    planes = np.zeros((rep.s_dim,) + (N,) * (k * n), dtype=complex)

    def part(slabs):
        for i in slabs:
            q = r2(i)
            if q is not None:
                inside = q < 1.0
                planes[0, i:i + 1][inside] = np.exp(-1.0 / (1.0 - q[inside]))

    _on_cores(part, N)
    return GridField(k, n, N, L, "V0", np.moveaxis(planes, 0, -1))


def bump_dirac_data(rep, k, n, N, L, center, radius):
    """Exact samples of the continuum Dirac image of the bump.

    Evaluates the closed-form gradient of the bump profile and contracts with
    the gamma matrices, giving V1 data that is independent of the grid
    operators.  Used for discretization-convergence studies; the sampled data
    satisfies the compatibility condition only up to aliasing.  The bump is
    validated as in :func:`make_bump`; slabs of grid axis 1 that miss it
    hold +0.0.
    """
    center, grids, r2 = _bump_geometry(k, n, N, L, center, radius, k * rep.s_dim)
    gspin = rep.gamma_plus[:, :, 0]  # gamma_j applied to the first basis spinor
    weights = []
    for A in range(k):
        # d(profile)/dx_Aj = -2 (x_Aj - c_Aj) / radius^2 * chain; the sum over
        # j of these 1-D factors times gspin[j] varies on block A's n axes only
        slopes = [-2.0 * (grids[A * n + j] - center[A * n + j]) / radius**2
                  for j in range(n)]
        weights += [sum(a * gspin[j, t] for j, a in enumerate(slopes))
                    for t in range(rep.s_dim)]
    planes = np.empty((k * rep.s_dim,) + (N,) * (k * n), dtype=complex)

    def part(slabs):
        for i in slabs:
            q = r2(i)
            if q is None:  # zero bytes, which the transforms skip
                planes[:, i:i + 1] = 0.0
                continue
            chain = np.zeros((1,) + planes.shape[2:])
            inside = q < 1.0
            gap = 1.0 - q[inside]
            chain[inside] = np.exp(-1.0 / gap) / gap**2
            for w, plane in zip(weights, planes[:, i:i + 1]):
                np.multiply(chain, _slab(w, i), out=plane)

    _on_cores(part, N)
    return GridField(k, n, N, L, "V1", np.moveaxis(planes, 0, -1))


# ---------------------------------------------------------------------------
# frequency-domain machinery


def _freqs(N, L):
    """The frequencies -(2 pi / L) m of one grid axis, in FFT order."""
    return -(2 * np.pi / L) * np.fft.fftfreq(N, d=1.0 / N)


def _mode_xi(k, n, N, L, idx):
    """Physical frequencies, shape (len(idx), k*n), of flat row-major modes."""
    return _freqs(N, L)[np.stack(np.unravel_index(idx, (N,) * (k * n)), axis=-1)]


def _cpus():
    """The CPUs this thread may run on, in order; where the platform has no
    affinity call, os.cpu_count() of them."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


def _pin(cpus):
    """Keep the calling thread on the CPUs `cpus`, where the platform allows
    it.  A kernel that does not balance load between CPUs leaves a new thread
    on its creator's CPU for good, so each part is placed on a CPU of its own."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no affinity call, or the CPU is gone
        pass


#: A solve whose slabs (one index of grid axis 1) hold fewer grid points than
#: this runs every pass on one thread: each slab costs the GIL a few numpy
#: calls, so small slabs gain nothing from a second part.  Warm
#: `recover_bump`, 2-vCPU x86-64 VM, one BLAS thread, interleaved medians,
#: two parts against one CPU, by points per slab: 512 (k = 2, n = 1, N = 512)
#: +53%; 1728 (k = n = 2, N = 12) +21%; 2744 (N = 14) and 4096 (N = 16) -1 to
#: +4%; 5832 (N = 18) -10%; 8000 (N = 20) -15%; 13824 (N = 24) -31%; 7776
#: (k = 2, n = 3, N = 6) -34%.  The plane's size alone does not decide it:
#: k = 2, n = 1, N = 512 has 262144 points per plane and 512 per slab.
_SPLIT_POINTS = 5000

_local = threading.local()  # the team of the solve running on this thread


class _Team:
    """One thread per CPU of the affinity set, each pinned to its CPU and
    started when a region first needs it, that runs the parts of every
    parallel region (:func:`_on_cores`) until :meth:`close`.  Part 0 runs on
    the thread that opened the team, pinned to the first CPU from then on.
    `regions` counts the regions run and `fft_planes` the component planes
    through :func:`_fftn`."""

    def __init__(self):
        self.cpus = _cpus()
        self.width = len(self.cpus)  # the most parts a region may have
        self.threads, self.inboxes = [], []
        self.regions = self.fft_planes = 0

    def fit(self, slab_points):
        """Let the regions that follow split their slabs among the parts only
        if each holds at least _SPLIT_POINTS grid points."""
        self.width = len(self.cpus) if slab_points >= _SPLIT_POINTS else 1

    def _serve(self, p, inbox):
        _pin({self.cpus[p]})
        while (job := inbox.get()) is not None:
            job(p)
            job = None  # holding it would keep the region's arrays alive

    def parts(self, n, scratch):
        """The parts a region of n slabs runs, if each holds `scratch` slabs
        of scratch at once: one per CPU, at most n // scratch."""
        return max(1, min(self.width, n // scratch))

    def run(self, fn, n, scratch=2):
        """Call fn(slabs) once per part; see :func:`_on_cores`."""
        self.regions += 1
        parts = self.parts(n, scratch)
        if parts == 1:
            fn(iter(range(n)))
            return 1
        first = not self.threads
        while len(self.threads) < parts - 1:
            inbox = queue.SimpleQueue()
            thread = threading.Thread(target=self._serve,
                                      args=(len(self.threads) + 1, inbox))
            thread.start()
            self.threads.append(thread)
            self.inboxes.append(inbox)
        if first:
            _pin({self.cpus[0]})
        ids, lock, done = iter(range(n)), threading.Lock(), queue.SimpleQueue()
        errors = [None] * parts

        def slabs():
            while True:
                with lock:  # each index goes to exactly one part
                    i = next(ids, None)
                if i is None:
                    return
                yield i

        def job(p):
            try:
                fn(slabs())
            except BaseException as exc:  # re-raised by the caller, once all are done
                errors[p] = exc
            done.put(p)

        for inbox in self.inboxes[:parts - 1]:
            inbox.put(job)
        job(0)
        for _ in range(parts):
            done.get()
        for exc in errors:
            if exc is not None:
                raise exc
        return parts

    def close(self):
        """Join every thread and give the opening thread its affinity back."""
        for inbox in self.inboxes:
            inbox.put(None)
        for thread in self.threads:
            thread.join()
        if self.threads:
            _pin(self.cpus)


@contextlib.contextmanager
def _team():
    """The team of the solve running on this thread, or, if there is none, a
    new one that is closed when the block ends, whatever it raises."""
    team = getattr(_local, "team", None)
    if team is not None:
        yield team
        return
    team = _local.team = _Team()
    try:
        yield team
    finally:
        _local.team = None
        team.close()


def _on_cores(fn, n, scratch=2):
    """Call fn(slabs) once per part, where `slabs` yields indices of range(n)
    that the parts take from one shared range, each the next one when it is
    done with its last, so a part whose CPU is busy takes fewer.  There is one
    part per CPU of the affinity set, at most n // scratch of them for parts
    that each hold `scratch` slabs of scratch at once, so that the region's
    scratch fits in the one plane :func:`_require_memory` adds; the first
    runs on the calling thread, each other on a thread of the team
    (:func:`_team`), each pinned to its CPU.  Inside a solve the parts run on
    the solve's team; elsewhere on a team of their own, closed before this
    returns.  Returns the number of parts once all are done; re-raises the
    first part's exception."""
    with _team() as team:
        return team.run(fn, n, scratch)


def _slab(a, i):
    """Slab i of the first axis of a grid, or the grid itself where that axis
    has length 1 (a weight or a sparse axis that does not vary on it)."""
    return a[i:i + 1] if a.shape[0] > 1 else a


def _per_slab(fn, n, shape=(), scratch=2):
    """fn(i) for every slab i of range(n), computed on the cores, as the rows
    of one array in slab order: each row is the same whichever part takes it,
    so reductions of the array do not depend on the number of parts.  fn
    holds at most `scratch` slabs of scratch (:func:`_on_cores`)."""
    out = np.empty((n,) + shape)

    def part(slabs):
        for i in slabs:
            out[i] = fn(i)

    _on_cores(part, n, scratch)
    return out


def _fftn(x, out, inverse=False):
    """The FFT (inverse FFT) of every component plane of x over all grid axes,
    into out, which may be x itself.  As np.fft.fftn does, one 1-D transform
    per axis, the last axis first: first the axes after grid axis 1 on slabs
    of grid axis 1, then grid axis 1 on slabs of grid axis 2.  Each line goes
    through the same np.fft call, so out is np.fft.fftn's (ifftn's) bit for
    bit.  A slab of grid axis 1 whose bytes are all zero (not -0.0), as most
    of a compactly supported field's are, is written as zeros untransformed;
    the bytes are scanned only where the slab's first element is zero."""
    fn = np.fft.ifft if inverse else np.fft.fft
    kn = x.ndim - 1

    def later_axes(slabs):
        for i in slabs:
            src, dst = x[:, i:i + 1], out[:, i:i + 1]
            bits = src.view(np.int64)
            if not bits.flat[0] and not bits.any():
                dst[...] = 0
                continue
            for axis in range(kn, 1, -1):
                src = fn(src, axis=axis, out=dst)

    def first_axis(slabs):
        for i in slabs:
            part = out[:, :, i:i + 1]
            fn(part, axis=1, out=part)

    with _team() as team:  # one team for both passes
        team.fft_planes += x.shape[0]
        if kn == 1:
            return fn(x, axis=1, out=out)
        _on_cores(later_axes, x.shape[1])
        _on_cores(first_axis, x.shape[2])
    return out


def _fft(planes):
    """Forward FFT of every component plane into a new contiguous buffer."""
    return _fftn(planes, np.empty(planes.shape, dtype=complex))


def _sigma_rows(rep, k, n, N, L, star=False):
    """sigma0 (block A: xi_plus at xi_A) or sigma0* (the sum over A of xi_minus
    at xi_A) as rows of weight grids, entry (r, t) of the Dirac symbol on one
    N^n frequency mesh, reshaped to vary on block A's n axes only."""
    s = rep.s_dim
    mesh = np.stack(np.meshgrid(*[_freqs(N, L)] * n, indexing="ij"), axis=-1)
    sym = np.moveaxis(dirac_symbol(rep, mesh)[1 if star else 0], (-2, -1), (0, 1))
    w = {(A, r, t): sym[r, t].reshape((1,) * (A * n) + (N,) * n + (1,) * ((k - 1 - A) * n))
         for A in range(k) for r in range(s) for t in range(s)}
    if star:
        return [[w[A, r, t] for A in range(k) for t in range(s)] for r in range(s)]
    return [[w[A, r, t] for t in range(s)] for A in range(k) for r in range(s)]


def _row_on_slab(row, xs, i, dst, tmp):
    """sum_c row[c] * xs[c] for xs the slab i of the first grid axis of
    component planes, into dst; tmp is a slab of scratch."""
    # a weight grid has length 1 on the axes of the other blocks
    ws = [_slab(w, i) for w in row]
    np.multiply(ws[0], xs[0], out=dst)
    for w, xc in zip(ws[1:], xs[1:]):
        dst += np.multiply(w, xc, out=tmp)
    return dst


def _f_slab(x, rows, i, f, tmp):
    """Slab i of the first grid axis of f_hat: x's own slab, or, given rows,
    the planes sum_c rows[r][c] x[c] formed in the slab scratch f."""
    xs = x[:, i:i + 1]
    if rows is None:
        return xs
    for row, plane in zip(rows, f):
        _row_on_slab(row, xs, i, plane, tmp)
    return f


def _sq_stats(sq):
    """For float pairs sq, squared real and imaginary parts of component-first
    slabs: their sum, and their largest sum of a pair (a squared modulus,
    written over sq's real parts) and its flat index among the pairs."""
    total = sq.sum()
    mod2 = np.add(sq[..., 0::2], sq[..., 1::2], out=sq[..., 0::2])
    j = int(mod2.argmax())
    return total, mod2.flat[j], j


def _witness(best, at, shape):
    """The grid point and component of the largest of the slabs' maxima
    `best`: slab i's lies at flat index at[i] of its array of `shape`
    (components, then the slab's axis of length 1, then the other axes)."""
    i = int(best.argmax())
    c, _, *point = np.unravel_index(int(at[i]), shape)
    return {"point": [i, *map(int, point)], "component": int(c)}


def _certify_modes(k, n, N):
    """Flat indices of up to 2048 distinct nonzero modes, drawn with a fixed
    seed from the whole grid, so every block and axis takes generic values."""
    total = N ** (k * n)
    count = min(2048, total - 1)
    return 1 + np.random.default_rng(0).choice(total - 1, size=count, replace=False)


def _certify_recovery_identity(rep, k, n, N, L):
    """Check the Hodge route sigma0* sigma0 sigma0* L1^{-1}, inverted per mode,
    against the closed form sigma0* / |xi|^2 on sample modes.  Both scale as
    1/|xi|, so the residual, times |xi|, is free of units; above 1e-10 it
    raises ArithmeticError.  Returns it and the grid multi-index of its mode."""
    idx = _certify_modes(k, n, N)
    xi = _mode_xi(k, n, N, L, idx)
    bundle = symbols.build_bundle(rep, k, xi)
    s0 = bundle.sigma0
    s0h = np.conj(np.swapaxes(s0, -1, -2))
    xi2 = (xi**2).sum(axis=-1)[:, None, None]
    hodge = s0h @ s0 @ s0h @ np.linalg.inv(bundle.L1)
    per_mode = (np.abs(hodge - s0h / xi2) * np.sqrt(xi2)).max(axis=(1, 2))
    worst = int(per_mode.argmax())
    resid = float(per_mode[worst])
    if resid > 1e-10:
        raise ArithmeticError(
            f"frequency-wise recovery identity failed ({resid:.2e} > 1e-10)"
        )
    mode = np.unravel_index(idx[worst], (N,) * (k * n))
    return resid, {"mode": [int(m) for m in mode]}


def _lap(timings, key, t0):
    """Add the seconds since t0 to timings[key] (if timings is a dict); return now."""
    if timings is not None:
        timings[key] = timings.get(key, 0.0) + (time.perf_counter() - t0)
    return time.perf_counter()


def _solve_spectrum(x, rep, k, n, L, tol, rows=None, timings=None):
    """Solve D0 u = f on the torus by the closed form u_hat = sigma0* f_hat /
    |xi|^2, from the spectrum f_hat of V1 data: x itself, or, given rows, the
    planes sum_c rows[r][c] x[c] of the V0 spectrum x (sigma0's rows give the
    Dirac image of x).  x is left as it is.

    f must have (numerically) vanishing mean and satisfy D1 f = 0, i.e. f_hat
    in the range of sigma0 at xi != 0.  The guards measure the zero-mode
    share ("zero_mode_rel") and the distance ||f_hat - sigma0 u_hat|| to that
    range ("compat_rel"), both relative to ||f_hat|| and so free of units at
    every L and N, and raise :class:`CompatibilityError` above tol, the
    zero-mode guard first.  tol=None, for convergence studies on data that
    is not band-limited, measures the zero-mode share only and raises
    nothing.  One pass over the slabs of the first grid axis forms each slab
    of f_hat (given rows, in slab scratch, so f_hat is never a grid), adds up
    its squares and keeps its zero mode, writes u_hat's slab and sums the
    defect's squares on it.  Returns the zero-mean solution, a diagnostics
    record and ||f_hat||^2.  timings gets the seconds of the inverse FFT,
    the pass with the guards and of the certification ("fft_s",
    "multiplier_s", "certify_s"), and the parts the grid work is split into
    ("workers", see :func:`_on_cores`)."""
    t = time.perf_counter()
    N, kn = x.shape[1], k * n
    sigma = _sigma_rows(rep, k, n, N, L) if tol is not None else None
    star = _sigma_rows(rep, k, n, N, L, star=True)
    dim = len(x) if rows is None else len(rows)
    uh = np.empty((len(star),) + x.shape[1:], dtype=complex)
    sq = _freqs(N, L) ** 2
    rest = [sq.reshape((N,) + (1,) * (kn - 1 - t)) for t in range(1, kn)]
    # per slab: ||f_hat||^2, then the defect's squares per row of sigma0
    sums = np.empty((N, 1 + (dim if tol is not None else 0)))
    zero = np.empty(dim, dtype=complex)

    # a part's scratch: given rows f_hat's slab, then acc and tmp; without,
    # acc and tmp, whose slabs take the squares of x's slab once they are done
    scratch = (max(2, dim) if rows is None else dim + 2, 1) + x.shape[2:]

    def part(slabs):
        buf = np.empty(scratch, dtype=complex)
        f, (acc, tmp) = buf[:dim], buf[-2:]
        for i in slabs:
            fs = _f_slab(x, rows, i, f, tmp)
            if i == 0:
                zero[:] = fs[(slice(None),) + (0,) * kn]
            # sigma0* is exactly 0 at xi = 0, so u_hat's zero mode is 0
            # whatever f_hat's
            us = uh[:, i:i + 1]
            for row, plane in zip(star, us):
                _row_on_slab(row, fs, i, plane, tmp)
            xi2 = sum(rest, sq[i])
            if i == 0:
                xi2.flat[0] = 1.0  # u_hat stays 0 at xi = 0
            us /= xi2
            del xi2  # freed before the next slab's is made
            if tol is not None:
                for r, (row, plane) in enumerate(zip(sigma, fs), 1):
                    d = np.subtract(plane, _row_on_slab(row, us, i, acc, tmp), out=acc)
                    if i == 0:
                        d[(0,) * kn] = 0.0  # the zero mode is the other guard's
                    d = d.view(np.float64)
                    sums[i, r] = np.square(d, out=d).sum()
            # last: the squares of f_hat's slab (given rows in its own place)
            sums[i, 0] = np.square(fs.view(np.float64), out=f.view(np.float64)).sum()

    # and one slab more: |xi|^2 (half a slab) and NumPy's buffer for its cast
    workers = _on_cores(part, N, scratch[0] + 1)
    f_sq = np.float64(math.fsum(sums[:, 0]))
    fnorm = float(np.sqrt(f_sq)) or 1.0  # zero data: both guards read 0
    rel0 = float(np.linalg.norm(zero) / fnorm)
    diag = {"zero_mode_rel": rel0}
    if tol is not None and rel0 > tol:
        raise CompatibilityError(
            f"zero-frequency component too large ({rel0:.3e} > {tol:.1e}); "
            "data must have vanishing mean"
        )
    if tol is not None:
        compat = float(np.sqrt(np.float64(math.fsum(sums[:, 1:].ravel()))) / fnorm)
        diag["compat_rel"] = compat
        if compat > tol:
            raise CompatibilityError(
                f"compatibility defect too large ({compat:.3e} > {tol:.1e})"
            )
    t = _lap(timings, "multiplier_s", t)
    if timings is not None:
        timings["workers"] = workers
    (diag["recovery_identity_residual"],
     diag["recovery_identity_witness"]) = _certify_recovery_identity(rep, k, n, N, L)
    t = _lap(timings, "certify_s", t)
    _fftn(uh, uh, inverse=True)
    _lap(timings, "fft_s", t)
    return GridField(k, n, N, L, "V0", np.moveaxis(uh, 0, -1)), diag, f_sq


def exterior_mask(u, center, radius):
    """The flat mask of u's grid points at periodic (min-image) distance
    > 2 radius from the center of the data's support ball: the exterior
    region.  Raises ValueError if the center is not of shape (k*n,) or the
    region is empty."""
    if np.shape(center) != (u.k * u.n,):
        raise ValueError(f"center must have shape ({u.k * u.n},)")
    grids = grid_axes(u.N, u.L, u.k * u.n)
    mask = np.empty(u.planes.shape[1:], dtype=bool)

    def part(slabs):
        for i in slabs:
            deltas = (np.abs(_slab(g, i) - c) for g, c in zip(grids, center))
            d2 = sum(np.minimum(d, u.L - d) ** 2 for d in deltas)
            np.greater(d2, (2.0 * radius) ** 2, out=mask[i:i + 1])

    _on_cores(part, u.N)
    if not mask.any():
        raise ValueError("no exterior region: support covers the whole cell")
    return mask.ravel()


def anchor_exterior(u, mask):
    """Fix the additive constant so the solution vanishes far from the data.

    The grid solve leaves the zero mode free (it sets it to zero); the decay
    normalization of the continuum problem corresponds on the torus to
    subtracting the mean of u over the exterior region (:func:`exterior_mask`).
    """
    # the exterior values slab by slab into one (dim, M) array laid out as
    # u.planes.reshape(u.dim, -1)[:, mask] is, point by point, so the mean
    # adds them in its order; no index array of the grid is made
    rows, inside = u.planes.reshape(u.dim, u.N, -1), mask.reshape(u.N, -1)
    counts = np.count_nonzero(inside, axis=1)
    ends = np.cumsum(counts)
    values = np.empty((int(ends[-1]), u.dim), dtype=complex).T

    def gather(slabs):
        for i in slabs:
            values[:, ends[i] - counts[i]:ends[i]] = rows[:, i, inside[i]]

    _on_cores(gather, u.N)
    shift = values.mean(axis=1).reshape((u.dim,) + (1,) * (u.k * u.n - 1))
    del values  # freed before the output plane is made
    out = np.empty(u.planes.shape, dtype=complex)

    def part(slabs):
        for i in slabs:
            np.subtract(u.planes[:, i], shift, out=out[:, i])

    _on_cores(part, u.N)
    return GridField(u.k, u.n, u.N, u.L, u.space, np.moveaxis(out, 0, -1))


def hartogs_report(u, mask):
    """Exterior decay metrics for a solution produced from supported data.

    Reports the max of |u| over the exterior region `mask`
    (:func:`exterior_mask`, never empty) against the global max, and, as a
    second value, the grid point and component of the exterior max.
    """
    mask = mask.reshape(u.planes.shape[1:])

    def maxima(i):  # the slab's largest |u|, and its largest exterior |u| and where
        mag = np.abs(u.planes[:, i:i + 1])
        outside = np.where(mask[i], mag, -1.0)  # -1: below every |u|
        j = int(outside.argmax())
        return mag.max(), outside.flat[j], j

    m = _per_slab(maxima, u.N, (3,))
    umax, emax = float(m[:, 0].max()), float(m[:, 1].max())
    report = {"exterior_max": emax, "global_max": umax,
              "ratio": emax / umax if umax > 0 else 0.0}
    return report, _witness(m[:, 1], m[:, 2], (u.dim, 1) + mask.shape[1:])


def _dirac_residual(u, x, f_sq, rep, rows):
    """||D0 u - f|| / ||f|| on the grid, for f the inverse FFT of f_hat =
    sum_c rows[r][c] x[c] (as in :func:`_solve_spectrum`, whose ||f_hat||^2
    is f_sq), and the grid point and component of the largest |D0 u - f|.
    With v_hat = FFT(u), the difference f_hat - sigma0 v_hat is formed slab by
    slab in the planes of x and v_hat (and in (k - 2) s planes more where
    k > 2), which it spends, transformed back and squared.  The FFTs are part
    of what it checks."""
    sigma = _sigma_rows(rep, u.k, u.n, u.N, u.L)
    vh = _fft(u.planes)
    shape = (len(sigma), 1) + x.shape[2:]
    bufs = [x, vh]  # the planes that take the difference
    extra = len(sigma) - len(x) - len(vh)
    if extra > 0:
        bufs.append(np.empty((extra,) + x.shape[1:], dtype=complex))
    outs = [plane for b in bufs for plane in b]

    # a part's scratch: f_hat's slab, then acc and tmp
    scratch = (len(sigma) + 2,) + shape[1:]

    def part(slabs):
        buf = np.empty(scratch, dtype=complex)
        f, (acc, tmp) = buf[:-2], buf[-2:]
        for i in slabs:
            fs = _f_slab(x, rows, i, f, tmp)
            for row, plane in zip(sigma, fs):
                np.subtract(plane, _row_on_slab(row, vh[:, i:i + 1], i, acc, tmp),
                            out=plane)
            # every row has read the slab of x and v_hat it overwrites
            for plane, out in zip(fs, outs):
                out[i:i + 1] = plane

    _on_cores(part, u.N, scratch[0] + 1)  # and NumPy's buffers
    for b in bufs:
        _fftn(b, b, inverse=True)

    def slab(i):  # its sum of squares, and its largest squared modulus and where
        sq = np.empty(shape, dtype=complex).view(np.float64)
        for out, dst in zip(outs, sq):
            np.square(out[i:i + 1].view(np.float64), out=dst)
        return _sq_stats(sq)

    sums = _per_slab(slab, u.N, (3,), 2 * len(sigma))  # sq and half of it copied
    fsq = f_sq / u.N ** (u.k * u.n)
    resid = float(np.sqrt(math.fsum(sums[:, 0])) / np.sqrt(fsq))
    return resid, _witness(sums[:, 1], sums[:, 2], shape)


def _recovery(u, phi):
    """||u - phi|| / ||phi|| on the grid, each squared norm the exact sum of
    one partial sum per slab, and the grid point and component of the largest
    |u - phi|."""
    def slab(i):  # phi's sum of squares, then u - phi's, its largest and where
        us, ps = u.planes[:, i:i + 1], phi.planes[:, i:i + 1]
        d = np.square(ps.view(np.float64))
        total = d.sum()
        d = np.subtract(us, ps, out=d.view(complex)).view(np.float64)
        return (total, *_sq_stats(np.square(d, out=d)))

    sums = _per_slab(slab, u.N, (4,), 2 * u.dim)  # d and half of it copied
    diff_sq, phi_sq = math.fsum(sums[:, 1]), math.fsum(sums[:, 0])
    return (float(np.sqrt(diff_sq) / np.sqrt(phi_sq)),
            _witness(sums[:, 2], sums[:, 3], (u.dim, 1) + u.planes.shape[2:]))


def recover_bump(rep, k, n, N, L=2 * np.pi, radius=0.6, center=None, tol=1e-6,
                 break_compat=False, timings=None):
    """Full pipeline: bump -> grid d0 -> solve -> anchored recovery metrics.

    phi is transformed in its own planes, and f = D0 phi is kept as phi_hat
    with the rows of sigma0: the solve and the residual check form f_hat =
    sigma0 phi_hat slab by slab where they read it, so f_hat is never a grid.
    phi is built again (:func:`make_bump`) for the recovery error.
    break_compat negates the rows of sigma0's last block, so f =
    (nabla_0 phi, ..., nabla_{k-2} phi, -nabla_{k-1} phi): its zero mode is
    still 0, but at each mode a share 4 a (1 - a) of |f_hat|^2, a =
    |xi_{k-1}|^2 / |xi|^2, lies off the range of sigma0, which the
    compatibility guard rejects.  timings gets the stage times of
    :func:`_solve_spectrum`, "data_s" (the bump and its spectrum),
    "anchor_s" and "residual_s" (the recovery error, the exterior decay and
    the Dirac residual), and the counts of the solve's team (:func:`_team`):
    "fft_planes" and "regions".  Every grid pass runs on that one team.
    Returns the anchored solution and the metrics."""
    if center is None:
        center = np.full(k * n, L / 2)
    s = rep.s_dim
    # at the peak, (k + 1) s planes: phi_hat, u and, for the residual, v_hat
    # and (k - 2) s more (or the anchoring's gather, or phi)
    _require_memory(k, n, N, k * s + s)
    with _team() as team:
        team.fit(N ** (k * n - 1))
        t = time.perf_counter()
        x = make_bump(rep, k, n, N, L, center, radius).planes
        _fftn(x, x)
        rows = _sigma_rows(rep, k, n, N, L)
        if break_compat:
            rows[-s:] = [[-w for w in row] for row in rows[-s:]]
        _lap(timings, "data_s", t)
        u, diag, f_sq = _solve_spectrum(x, rep, k, n, L, tol, rows, timings)
        t = time.perf_counter()
        mask = exterior_mask(u, center, radius)
        u = anchor_exterior(u, mask)  # rebinding frees the unanchored solution
        t = _lap(timings, "anchor_s", t)
        recovery, recovery_at = _recovery(u, make_bump(rep, k, n, N, L, center, radius))
        hartogs, exterior_at = hartogs_report(u, mask)
        del mask
        residual, residual_at = _dirac_residual(u, x, f_sq, rep, rows)
        metrics = {
            "recovery_rel_l2": recovery,
            "recovery_witness": recovery_at,
            "dirac_residual_rel_l2": residual,
            "dirac_residual_witness": residual_at,
            "hartogs": hartogs,
            "exterior_witness": exterior_at,
        }
        _lap(timings, "residual_s", t)
        if timings is not None:
            timings.update(fft_planes=team.fft_planes, regions=team.regions)
    metrics.update(diag)
    return u, metrics


def resolution_sweep(rep, k, n, Ns, L=2 * np.pi, radius=0.6, center=None):
    """Discretization-convergence study against exact continuum data.

    For each N the V1 data is the analytically sampled Dirac image of the
    bump (not band-limited), so the recovery error is a genuine function of
    resolution.  The data is transformed in its own planes and solved with
    ``tol=None``, which skips the compatibility guard: sampled continuum data
    satisfies it only up to aliasing, which is the quantity under study.
    Every row runs on one team (:func:`_team`) and carries its own
    "timings": its seconds ("s") and its "fft_planes" and "regions".
    """
    if center is None:
        center = np.full(k * n, L / 2)
    # at the peak, the largest row's solve: f_hat and u_hat
    _require_memory(k, n, max(Ns), k * rep.s_dim + rep.s_dim)
    rows = []
    with _team() as team:
        for N in Ns:
            t, planes, regions = time.perf_counter(), team.fft_planes, team.regions
            team.fit(N ** (k * n - 1))
            fh = bump_dirac_data(rep, k, n, N, L, center, radius).planes
            u, diag, _ = _solve_spectrum(_fftn(fh, fh), rep, k, n, L, None)
            del fh  # freed before the anchoring, to lower the peak
            u = anchor_exterior(u, exterior_mask(u, center, radius))
            err, _ = _recovery(u, make_bump(rep, k, n, N, L, center, radius))
            del u  # not carried into the next resolution's solve
            rows.append({"N": int(N), "recovery_rel_l2": err,
                         "zero_mode_rel": diag["zero_mode_rel"],
                         "timings": {"s": time.perf_counter() - t,
                                     "fft_planes": team.fft_planes - planes,
                                     "regions": team.regions - regions}})
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
        # the payload is component-last; one leading-axis slab at a time
        # keeps the copy to 1/N of the field
        for slab in fld.values:
            fh.write(np.ascontiguousarray(slab, dtype="<c16"))


def _check_header(h):
    """Raise ValueError if a dumped field's header is incomplete or inconsistent."""
    if not isinstance(h, dict):
        raise ValueError(f"header {h!r} is not a JSON object")
    missing = sorted({"k", "n", "N", "L", "space", "dim", "dtype"} - set(h))
    if missing:
        raise ValueError(f"header lacks {', '.join(missing)}")
    for key in ("k", "n", "N", "dim"):
        if type(h[key]) is not int or h[key] < 1:
            raise ValueError(f"{key} = {h[key]!r} is not a positive integer")
    if type(h["L"]) not in (int, float) or not 0 < h["L"] < np.inf:
        raise ValueError(f"L = {h['L']!r} is not positive and finite")
    if h["space"] not in ("V0", "V1"):
        raise ValueError(f"unknown space {h['space']!r}")
    if h["dtype"] != "complex128":
        raise ValueError(f"dtype {h['dtype']!r} is not complex128")
    dim = spinor_dim(h["n"]) * (h["k"] if h["space"] == "V1" else 1)
    if h["dim"] != dim:
        raise ValueError(f"dim {h['dim']!r} is not {dim}, the {h['space']} "
                         f"dimension at k = {h['k']}, n = {h['n']}")


def load_field(path):
    """Read a field written by :func:`dump_field`, checking it against its header."""
    with open(path, "rb") as fh:
        try:  # a header that is not JSON gets the path too
            header = json.loads(fh.readline().decode())
            _check_header(header)
        except ValueError as exc:
            raise ValueError(f"field {path}: {exc}") from None
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        shape = (header["N"],) * (header["k"] * header["n"]) + (header["dim"],)
        need = 16 * math.prod(shape)  # exact: an int64 product can wrap to 0
        if size != need:
            raise ValueError(f"field {path}: payload has {size} bytes, "
                             f"the header needs {need}")
        values = np.empty(shape, dtype="<c16")
        if fh.readinto(values) != size:
            raise ValueError(f"field {path}: payload ended early")
    return GridField(header["k"], header["n"], header["N"], header["L"], header["space"],
                     values.astype(complex, copy=False))
