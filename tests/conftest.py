import math

import numpy as np
import pytest

from diraclab import boundary, build_clifford, dirac_ops, dirac_symbol, solver
from diraclab.fields import PolyField, _canonical, draw_width, random_keyed, stack
from diraclab.tensoridx import inverse


@pytest.fixture(scope="session")
def reps():
    """Clifford data for the dimensions the suites sweep over."""
    return {n: build_clifford(n) for n in range(1, 5)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# fields by hand: the library draws its fields from uniforms and builds its
# keyed fields from arrays, and reads no field as a dict


def make_field(k, n, space, terms, validate=True):
    """Build a field from a dict exponent tuple -> coefficient array."""
    if not terms:
        return PolyField(k, n, space)
    out = PolyField(k, n, space, list(terms),
                    np.stack([np.asarray(v, dtype=complex) for v in terms.values()]))
    return out.validate() if validate else out


def terms(f):
    """Exponent tuple -> coefficient array of a one-member field."""
    if f.expo[:, 0].any():
        raise ValueError("terms of a sample-keyed field, which holds several members")
    return {tuple(e): v for e, v in zip(f.expo[:, 1:].tolist(), f.vals)}


def total_degree(f):
    """Largest total degree of a field (-1 for the zero field); the key is no degree."""
    return int(f.expo[:, 1:].sum(axis=1).max(initial=-1))


def keyed(members):
    """One sample-keyed field holding B fields of one space, in order.

    Member b's rows carry the key b in ``expo`` column 0, so members keep
    their own rows (no union of rows is formed) and may be tensor-valued;
    concatenated canonical members are already canonical.
    """
    members = list(members)
    if not members:
        raise ValueError("a keyed field needs at least one member")
    head = members[0]
    if any((g.k, g.n, g.space) != (head.k, head.n, head.space) or g.expo[:, 0].any()
           for g in members):
        raise ValueError("a keyed field holds one-member fields of one space")
    expo = np.concatenate([g.expo for g in members])
    expo[:, 0] = np.repeat(np.arange(len(members)), [len(g) for g in members])
    vals = np.concatenate([g.vals for g in members])
    return PolyField(head.k, head.n, head.space, expo, vals)


def random_field(rng, k, n, space, degree=3, nterms=8):
    """Seeded random field: the one-member case of ``fields.random_keyed``,
    from one ``rng.random`` call."""
    u = rng.random((1, draw_width(k, n, space, degree, nterms)))
    return random_keyed(k, n, space, u, degree, nterms)


# ---------------------------------------------------------------------------
# sums of pieces by concatenation, which the field constructor brings back to
# canonical form: the route that dirac_ops._stack must match bit for bit


def _concatenated(k, n, space, pieces):
    expo, vals = zip(*pieces)
    return PolyField(k, n, space, np.concatenate(expo), np.concatenate(vals))


def nabla_concatenated(A, f, rep):
    """nabla_A f, its n pieces concatenated."""
    gam = dirac_ops._gamma_block(rep, f.chirality)
    return _concatenated(f.k, f.n, dirac_ops._flip_scalar_space(f),
                         dirac_ops._nabla_pieces(f.expo, f.vals, gam, A, f.n))


def laplacian_concatenated(f):
    """The scalar Laplacian, its k n pieces concatenated."""
    return _concatenated(f.k, f.n, f.space,
                         [(e, 0.5 * v) for B in range(f.k)
                          for e, v in dirac_ops._delta_pieces(f.expo, f.vals, B, B, f.n)])


def delta_op(B, C, f, rep):
    """The scalar anticommutator operator Delta_BC applied to a field, one
    slot (B, C) at a time: composed with ``nabla`` both ways, the oracle of
    ``dirac_ops.delta_nabla_commutator``, which forms every slot at once."""
    del rep
    return _concatenated(f.k, f.n, f.space,
                         dirac_ops._delta_pieces(f.expo, f.vals, B, C, f.n))


def d1_star(h, rep):
    """Formal adjoint of d1, the oracle of sigma1's conjugate transpose.

    ``(d1* h)[C] = sum_{A,B} ( grad_B grad_A h[A,(B,C)] - 1/2 Delta_AB h[C,A,B] )``.
    """
    dirac_ops._require_space(h, "V2", "d1_star")
    we, w = dirac_ops._grad(h, rep, 2)  # W[b, a, i, j, l, s]
    de, d = dirac_ops._delta_stack(h)  # D[p, q, i, j, l, s]
    term1 = 0.5 * (
        np.einsum("tbaabcs->tcs", w) + np.einsum("tbaacbs->tcs", w)
    )
    term2 = -0.5 * np.einsum("tabcabs->tcs", d)
    return _concatenated(h.k, h.n, "V1", [(we, term1), (de, term2)])


# ---------------------------------------------------------------------------
# dense oracle of the Weyl layer: the library composes Q[S_m] elements exactly
# and never forms these (k^m, k^m) matrices


def terms_matrix(x, k, m=None):
    """Dense matrix of a Q[S_m] element ``{p: coeff}`` on (C^k)^{m}, flattened.

    ``M_p`` maps ``h`` to ``h[i_{p[0]}, ..., i_{p[m-1]}]``.  The order m is
    read off the permutations; pass it for the empty (zero) element.
    """
    m = len(next(iter(x))) if m is None else m
    size = k**m
    rows = np.arange(size)
    digits = [(rows // k ** (m - 1 - t)) % k for t in range(m)]
    mat = np.zeros((size, size))
    for p, c in x.items():
        cols = np.zeros(size, dtype=np.int64)
        for t in range(m):
            cols += digits[p[t]] * k ** (m - 1 - t)
        np.add.at(mat, (rows, cols), float(c))
    return mat


def terms_rows(x, k):
    """The rows of :func:`terms_matrix` as sparse rows: arrays (cols, vals) of
    shape (k**m, len(x)), row i of the matrix being the sum over t of
    ``vals[i, t]`` at column ``cols[i, t]`` (a column may repeat in a row)."""
    m = len(next(iter(x)))
    size = k**m
    rows = np.arange(size)
    digits = [(rows // k ** (m - 1 - t)) % k for t in range(m)]
    cols = np.zeros((size, len(x)), dtype=np.int64)
    for j, p in enumerate(x):
        for t in range(m):
            cols[:, j] += digits[p[t]] * k ** (m - 1 - t)
    vals = np.broadcast_to(np.array([float(c) for c in x.values()]), cols.shape)
    return cols, vals


def square_defect(x, k, block=256):
    """Frobenius norms ``(||X X - X||, ||X||)`` of the dense matrix X of a
    nonzero Q[S_m] element, from its sparse rows (:func:`terms_rows`): row i
    of X X is the sum over t of ``vals[i, t]`` times row ``cols[i, t]`` of X.
    `block` rows at a time are summed into dense rows, so at k = 5 nothing of
    size k^m x k^m is formed."""
    cols, vals = terms_rows(x, k)
    size = len(cols)
    defect = norm = 0.0
    for lo in range(0, size, block):
        c, v = cols[lo:lo + block], vals[lo:lo + block]
        at = np.arange(len(c))[:, None] * size
        row = np.bincount((at + c).ravel(), v.ravel(), minlength=len(c) * size)
        square = np.bincount((at[:, :, None] + cols[c]).ravel(),
                             (v[:, :, None] * vals[c]).ravel(), minlength=len(c) * size)
        defect += np.sum((square - row) ** 2)
        norm += np.sum(row**2)
    return math.sqrt(defect), math.sqrt(norm)


def compose_reference(x, y):
    """``M_p M_q = M_{p o q}`` summed in Fractions in the order of the terms:
    the oracle of ``tensoridx.compose``, keys and their order included."""
    out = {}
    for p, a in x.items():
        for q, b in y.items():
            r = tuple(p[t] for t in q)
            out[r] = out.get(r, 0) + a * b
    return {r: c for r, c in out.items() if c}


def apply_terms(x, h):
    """A Q[S_m] element applied term by term: ``sum_p c_p M_p h``, one scaled
    transpose per term, into zeros in the order of the terms.

    The oracle of the factored application (``weyl.apply_projector``) and of
    the grouped one (``tensoridx.apply_compiled``); `h` carries the tensor
    slots first and any batch axes after them.
    """
    out = np.zeros_like(h, dtype=np.result_type(h.dtype, np.float64))
    for p, c in x.items():
        axes = inverse(p) + tuple(range(len(p), h.ndim))
        out += float(c) * np.transpose(h, axes)
    return out


def dense_image_basis(proj, rtol=1e-9):
    """Orthonormal basis of the column space of a dense idempotent matrix.

    Up to 1300 rows by a full SVD; above that, a seeded sketch of width
    round(trace) + 16 (an idempotent's rank is its trace).
    """
    size = proj.shape[0]
    if size <= 1300:
        u, s, _ = np.linalg.svd(proj)
    else:
        rank = int(round(np.trace(proj)))
        if rank == 0:
            return np.zeros((size, 0))
        sketch = np.random.default_rng(1).standard_normal((size, min(size, rank + 16)))
        u, s, _ = np.linalg.svd(proj @ sketch, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((size, 0))
    return u[:, : int((s > rtol * s[0]).sum())]


def principal_angles(basis_a, basis_b):
    """Principal angles (radians) between two orthonormal column spans.

    Computed from the sine (projection defect), which keeps full precision
    for nearly identical subspaces where the cosine formula saturates.
    """
    if basis_a.shape[1] != basis_b.shape[1]:
        raise ValueError(
            f"subspace dimensions differ: {basis_a.shape[1]} vs {basis_b.shape[1]}"
        )
    if basis_a.shape[1] == 0:
        return np.zeros(0)
    defect = basis_b - basis_a @ (basis_a.conj().T @ basis_b)
    sines = np.linalg.svd(defect, compute_uv=False)
    return np.arcsin(np.clip(sines, 0.0, 1.0))


# ---------------------------------------------------------------------------
# one-sample oracle of the complex suite: the library evaluates all samples
# of a check on one sample-keyed field


def complex_sample(rng, k, n, rep):
    """Draw one sample's random fields from rng; its residuals by check key.

    Each operator runs on one plain field, in the rng order the suite draws
    in: f, F, [h2], g."""
    val = {}
    f = random_field(rng, k, n, "V0", degree=4, nterms=6)
    fn = max(f.norm(), 1e-300)
    df = dirac_ops.d0(f, rep)
    val["d1d0"] = dirac_ops.d1(df, rep).norm() / fn
    lap = dirac_ops.d0_star(df, rep) - dirac_ops.laplacian(f, rep)
    val["laplace"] = lap.norm() / fn

    F = random_field(rng, k, n, "V1", degree=4, nterms=6)
    Fn = max(F.norm(), 1e-300)
    h = dirac_ops.d1(F, rep)
    hp = dirac_ops.d1_projector(F, rep)
    val["agree"] = (h - hp).norm() / Fn
    val["member"] = h.membership_residual().max(initial=0.0) / Fn
    if k >= 3:  # for k = 2 the order-5 branch does not exist
        val["d2pd1"] = dirac_ops.d2p(h, rep).norm() / Fn
        val["d2ppd1"] = dirac_ops.d2pp(h, rep).norm() / Fn
        h2 = random_field(rng, k, n, "V2", degree=2, nterms=5)
        h2n = max(h2.norm(), 1e-300)
        a = dirac_ops.d2p(h2, rep)
        b = dirac_ops.d2p_projector(h2, rep)
        c = dirac_ops.d2pp(h2, rep)
        d = dirac_ops.d2pp_projector(h2, rep)
        val["agree"] = max(val["agree"], (a - b).norm() / h2n, (c - d).norm() / h2n)
        val["member"] = max(val["member"], a.membership_residual().max(initial=0.0) / h2n,
                            c.membership_residual().max(initial=0.0) / h2n)
    g = random_field(rng, k, n, "V0", degree=3, nterms=4)
    val["commute"] = dirac_ops.delta_nabla_commutator(g, rep).norm() / max(g.norm(), 1e-300)
    return val


# ---------------------------------------------------------------------------
# D2'' with every stack-sized term alive at once: the route that
# dirac_ops.d2pp replaced by one joint stack and one output buffer


def d2pp_all_at_once(h, rep):
    """D2'' h by the display, its terms t1, t2, t3 and their canonical sum
    formed side by side before the sum over the relabelings of (D, B, C)."""
    we, w2 = dirac_ops._grad(h, rep, 2)
    de, dh = dirac_ops._delta_stack(h)
    t1 = w2 - np.einsum("tadebcs->tedabcs", w2)
    w2s = np.einsum("tdeabcs->tedabcs", w2)
    t2 = 0.5 * (w2s - np.einsum("tadebcs->tedabcs", w2s))
    x = np.einsum("tbcedas->tedabcs", dh)
    t3 = 0.5 * (x - np.einsum("tadebcs->tedabcs", x))
    expo, core = _canonical(np.concatenate((we, de)), np.concatenate((t1 + t2, t3)))
    out = np.zeros_like(core)
    for sub in ("edabcs", "ebadcs", "ecabds", "edacbs", "ebacds", "ecadbs"):
        out += np.einsum(f"t{sub}->tedabcs", core)
    return PolyField(h.k, h.n, "V3pp", expo, 0.5 * out)


# ---------------------------------------------------------------------------
# grid oracles: the spectral d0 and d0_star on real-space fields, their
# adjointness, the solve of real-space data, and the solve pipeline with its
# data in real space


_TAGS = {"d0": ("V0", "V1"), "d0_star": ("V1", "V0")}


def apply_rows(rows, x):
    """The planes sum_c rows[r][c] * x[c], one per row, into a new buffer.
    Each part of ``solver._on_cores`` runs its slabs of the first grid axis
    one at a time, so its scratch is one slab, not a plane."""
    out = np.empty((len(rows),) + x.shape[1:], dtype=complex)

    def part(slabs):
        tmp = np.empty((1,) + x.shape[2:], dtype=complex)
        for i in slabs:
            for row, plane in zip(rows, out[:, i:i + 1]):
                solver._row_on_slab(row, x[:, i:i + 1], i, plane, tmp)

    solver._on_cores(part, x.shape[1])
    return out


def apply_spectral(tag, fld, rep):
    """Apply one of the grid operators {d0, d0_star} spectrally: forward FFT,
    the symbol's rows, inverse FFT, from real space to real space."""
    if tag not in _TAGS:
        raise ValueError(f"unknown operator tag {tag!r}")
    space_in, space_out = _TAGS[tag]
    if fld.space != space_in:
        raise ValueError(f"{tag} expects a {space_in} grid field, got {fld.space}")
    k, n, N = fld.k, fld.n, fld.N
    out_dim = rep.s_dim * (k if space_out == "V1" else 1)
    # the input's spectrum and the output, plus one scratch plane
    solver._require_memory(k, n, N, fld.dim + out_dim + 1)
    fh = solver._fft(fld.planes)
    rows = solver._sigma_rows(rep, k, n, N, fld.L, star=tag == "d0_star")
    out = apply_rows(rows, fh)
    solver._fftn(out, out, inverse=True)
    return solver.GridField(k, n, N, fld.L, space_out, np.moveaxis(out, 0, -1))


def solve_d0(f, rep, tol=1e-6):
    """The solve of V1 data f in real space: its forward FFT into a new
    buffer, then the solver's spectral core, f left as it is."""
    if f.space != "V1":
        raise ValueError(f"solve_d0 expects V1 data, got {f.space}")
    # f_hat, u_hat and one plane over the slab-sized scratch of the
    # multipliers and of |xi|^2
    solver._require_memory(f.k, f.n, f.N, f.dim + rep.s_dim + 1)
    return solver._solve_spectrum(solver._fft(f.planes), rep, f.k, f.n, f.L, tol)[:2]


def sum_sq(x, sub=None):
    """The sum of |x - sub|^2 (of |x|^2 without sub) over component-first
    planes: the exact sum of one NumPy partial sum per slab of grid axis 1,
    as the solver's passes add up their norms."""
    def slab(i):  # the real and imaginary parts as one float array
        if sub is None:
            return np.square(x[:, i:i + 1].view(np.float64)).sum()
        d = np.subtract(x[:, i:i + 1], sub[:, i:i + 1]).view(np.float64)
        return np.square(d, out=d).sum()

    return np.float64(math.fsum(slab(i) for i in range(x.shape[1])))


def defect_sq(rows, x, y):
    """The sum of |y - sum_c rows[r][c] * x[c]|^2 over the planes of y, the
    zero mode left out and y left as it is: the exact sum of one NumPy
    partial sum per slab of grid axis 1 and row, on one thread."""
    zero = (0,) * (y.ndim - 1)
    acc, tmp = np.empty((2, 1) + y.shape[2:], dtype=complex)
    sums = []
    for i in range(y.shape[1]):
        for row, plane in zip(rows, y[:, i:i + 1]):
            d = np.subtract(plane, solver._row_on_slab(row, x[:, i:i + 1], i, acc, tmp),
                            out=acc)
            if i == 0:
                d[zero] = 0.0
            d = d.view(np.float64)
            sums.append(np.square(d, out=d).sum())
    return np.float64(math.fsum(sums))


def solve_spectrum_in_passes(fh, rep, k, n, L, tol):
    """u_hat, zero_mode_rel and compat_rel (None for tol=None) of the solve
    of the spectrum fh, held as a grid, in separate passes: ||f_hat||, the
    zero mode, sigma0* f_hat, the division by |xi|^2 one slab at a time and
    the defect.  Raises nothing; fh is left as it is."""
    N = fh.shape[1]
    fnorm = float(np.sqrt(sum_sq(fh))) or 1.0
    rel0 = float(np.linalg.norm(fh[(slice(None),) + (0,) * (k * n)]) / fnorm)
    uh = apply_rows(solver._sigma_rows(rep, k, n, N, L, star=True), fh)
    sq = solver._freqs(N, L) ** 2
    rest = [sq.reshape((N,) + (1,) * (k * n - 1 - t)) for t in range(1, k * n)]
    for i in range(N):
        xi2 = sum(rest, sq[i])
        if i == 0:
            xi2.flat[0] = 1.0
        uh[:, i] /= xi2
    if tol is None:
        return uh, rel0, None
    rows = solver._sigma_rows(rep, k, n, N, L)
    return uh, rel0, float(np.sqrt(defect_sq(rows, uh, fh)) / fnorm)


def dirac_residual_in_f_hat_planes(u, fh, rep):
    """The Dirac residual and its witness by the route that holds f_hat as a
    grid fh: fh - sigma0 v_hat, v_hat = FFT(u), written into fh's own planes,
    which it spends, transformed back and squared there, on one thread."""
    fsq = sum_sq(fh) / u.N ** (u.k * u.n)
    vh = solver._fft(u.planes)
    acc, tmp = np.empty((2, 1) + fh.shape[2:], dtype=complex)
    for i in range(u.N):
        for row, plane in zip(solver._sigma_rows(rep, u.k, u.n, u.N, u.L), fh[:, i:i + 1]):
            plane -= solver._row_on_slab(row, vh[:, i:i + 1], i, acc, tmp)
    solver._fftn(fh, fh, inverse=True)
    sums = []
    for i in range(u.N):
        sq = fh[:, i:i + 1].view(np.float64)
        total = np.square(sq, out=sq).sum()
        mod2 = np.add(sq[..., 0::2], sq[..., 1::2], out=sq[..., 0::2])
        j = int(mod2.argmax())
        sums.append((total, mod2.flat[j], j))
    sums = np.array(sums)
    i = int(sums[:, 1].argmax())
    c, _, *point = np.unravel_index(int(sums[i, 2]), fh[:, :1].shape)
    resid = float(np.sqrt(math.fsum(sums[:, 0])) / np.sqrt(fsq))
    return resid, {"point": [i, *map(int, point)], "component": int(c)}


def recover_bump_in_real_space(rep, k, n, N, L=2 * np.pi, radius=0.6, tol=1e-6,
                               break_compat=False):
    """``solver.recover_bump``'s metrics by the route that forms f = D0 phi
    in real space: f from :func:`apply_spectral`, with break_compat its last
    block negated, f = (nabla_0 phi, ..., -nabla_{k-1} phi), :func:`solve_d0`
    on it (a forward FFT of f), the anchoring, and the Dirac residual against
    f in real space, one output plane at a time."""
    center = np.full(k * n, L / 2)
    phi = solver.make_bump(rep, k, n, N, L, center, radius)
    f = apply_spectral("d0", phi, rep)
    if break_compat:
        f.planes[-rep.s_dim:] *= -1
    u, diag = solve_d0(f, rep, tol=tol)
    mask = solver.exterior_mask(u, center, radius)
    u = solver.anchor_exterior(u, mask)
    uh = solver._fft(u.planes)
    sq = 0.0
    for row, fp in zip(solver._sigma_rows(rep, k, n, N, L), f.planes):
        plane = apply_rows([row], uh)
        solver._fftn(plane, plane, inverse=True)
        sq += sum_sq(plane, fp[None])
    return {
        "recovery_rel_l2": float(np.sqrt(sum_sq(u.planes, phi.planes))
                                 / np.sqrt(sum_sq(phi.planes))),
        "dirac_residual_rel_l2": float(np.sqrt(sq) / np.sqrt(sum_sq(f.planes))),
        "hartogs": solver.hartogs_report(u, mask)[0],
        **diag,
    }


def grid_inner(a, b):
    """Discrete L2 inner product of two grid fields over the cell
    (conjugate-linear in a)."""
    if a.values.shape != b.values.shape:
        raise ValueError("grid shapes differ")
    vol = a.L ** (a.k * a.n)
    return complex(np.vdot(a.planes, b.planes) * vol / a.N ** (a.k * a.n))


# ---------------------------------------------------------------------------
# pointwise and coefficient oracles of the polynomial layer


def add_at_canonical(expo, vals):
    """The canonical form of (expo, vals) by a sequential ``np.add.at`` sum.

    Rows sort lexicographically, the first (key) column most significant;
    equal rows add one at a time in input order, into zeros; zero rows drop.
    """
    rows, group = np.unique(expo, axis=0, return_inverse=True)
    acc = np.zeros((len(rows),) + vals.shape[1:], dtype=complex)
    np.add.at(acc, group.reshape(-1), vals)
    keep = acc.reshape(len(acc), -1).any(axis=1)
    return rows[keep], acc[keep]


def zero_pad_stack(slotted, lead):
    """A derivative stack by zero padding: each piece written at its slot of
    a zero block over all ``lead`` slots, the blocks concatenated and summed
    by ``fields._canonical``.  The oracle of ``dirac_ops._stack``, which adds
    each piece into its slot of the grouped rows instead."""
    expo = np.concatenate([e for _, e, _ in slotted])
    vals = np.zeros((len(expo),) + lead + slotted[0][2].shape[1:], dtype=complex)
    row = 0
    for slot, e, v in slotted:
        vals[(slice(row, row + len(e)),) + slot] = v
        row += len(e)
    return _canonical(expo, vals)


def evaluate(f, x):
    """Evaluate a one-member field at a point x (flat array of length k*n)."""
    if f.expo[:, 0].any():
        raise ValueError("evaluate of a sample-keyed field, which holds several members")
    if not len(f):
        return 0.0
    mono = np.prod(np.asarray(x, dtype=float) ** f.expo[:, 1:], axis=1)
    return np.tensordot(mono, f.vals, axes=1)


def dense(members):
    """The dense stack of a sequence of one-member scalar fields."""
    return stack(keyed(members), len(members))


def members(s):
    """The B one-member fields of a stack, each in its own canonical form."""
    return [PolyField(s.k, s.n, s.space, s.expo, s.vals[:, b]) for b in range(s.vals.shape[1])]


def d0_matrix(rep, k, n, degree):
    """The matrix of d0 on the monomial/spinor coefficients, assembled by hand.

    Columns (monomial, spinor) run over the monomials up to `degree`, rows
    (monomial, A, spinor) over those below it, both ordered by degree first
    (as :func:`~diraclab.dirac_ops.monogenic_basis` orders them); returns the
    column monomials and the matrix.  d0 (x^e u_t) = sum_{A,j} e[Aj]
    x^(e - 1_Aj) (gamma_j u_t) in slot A: one block per (monomial, variable)
    with a positive exponent.  The independent route to the matrix that
    ``monogenic_basis`` takes from ``d0`` itself.
    """
    kn, s = k * n, rep.s_dim
    monos = np.array([e for d in range(degree + 1) for e in dirac_ops._monomials(kn, d)],
                     dtype=np.int64).reshape(-1, kn)
    n_out = int((monos.sum(axis=1) < degree).sum())
    src, var = np.nonzero(monos)
    dst = monos[src] - np.eye(kn, dtype=np.int64)[var]
    _, uid = np.unique(np.concatenate((monos[:n_out], dst)), axis=0, return_inverse=True)
    uid = uid.reshape(-1)
    pos = np.empty(n_out, dtype=np.int64)
    pos[uid[:n_out]] = np.arange(n_out)
    rows = pos[uid[n_out:]]
    A, j = np.divmod(var, n)
    mat = np.zeros((n_out, k, s, len(monos), s), dtype=complex)
    mat[rows, A, :, src, :] = monos[src, var][:, None, None] * rep.gamma_plus[j]
    return monos, mat.reshape(n_out * k * s, len(monos) * s)


def tangential_z_coeffs(chart, rep):
    """The Z_mu of the tangential frame on the S+ side, as coefficient dicts.

    Entry mu - 1 maps a variable index (B, j) to the matrix multiplying
    d_{B,j}: an independent route to the Z_mu of
    :func:`~diraclab.boundary.tangential_frame`.
    """
    fac, inv0 = boundary.frame_factors(chart, rep)
    zs = []
    for mu in range(1, chart.k):
        carry = fac[0, mu] @ inv0[1]  # S- -> S- factor in front of nabla_0
        coeffs = {}
        for j in range(chart.n):
            coeffs[(mu, j)] = rep.gamma_plus[j].copy()
            coeffs[(0, j)] = coeffs.get((0, j), 0) - carry @ rep.gamma_plus[j]
        zs.append(coeffs)
    return zs


def apply_zt_commutator(chart, rep, mu, f):
    """[Z_mu, T] f, composed from the library's Z_mu and T."""
    tf, zf = boundary.tangential_frame(chart, rep, f)
    return (boundary.tangential_frame(chart, rep, tf)[1][mu - 1]
            - boundary.tangential_frame(chart, rep, zf[mu - 1])[0])


# ---------------------------------------------------------------------------
# the tangential frame as separate T and Z_mu operators, each building its
# factors from a one-row Dirac symbol and nabla_0 f anew: the oracle that
# boundary.tangential_frame must match bit for bit


class SpinorFactor:
    """Constant multiplication operator with chirality blocks: plus maps
    S+ -> S-, minus maps S- -> S+."""

    def __init__(self, plus, minus):
        self.plus = plus
        self.minus = minus

    def apply(self, f):
        mat = self.plus if f.chirality > 0 else self.minus
        target = "S-" if f.chirality > 0 else "V0"
        return PolyField(f.k, f.n, target, f.expo, np.einsum("st,...t->...s", mat, f.vals))


def nabla_phi_factor(chart, rep, A):
    """nabla_A phi: i times the Dirac symbol at the conormal grad_A phi."""
    plus, minus = dirac_symbol(rep, chart.grad_phi()[A])
    return SpinorFactor(1j * plus, 1j * minus)


def inv_nabla0_phi_factor(chart, rep):
    """(nabla_0 phi)^{-1}: the factor divided by -|grad_0 phi|^2."""
    norm2 = float((chart.grad_phi()[0] ** 2).sum())
    base = nabla_phi_factor(chart, rep, 0)
    return SpinorFactor(-base.plus / norm2, -base.minus / norm2)


def apply_t(chart, rep, f):
    """T f = (nabla_0 phi)^{-1} nabla_0 f - d_{01} f."""
    inv = inv_nabla0_phi_factor(chart, rep)
    return inv.apply(dirac_ops.nabla(0, f, rep)) - boundary.dx(0, 0, f)


def apply_z(chart, rep, mu, f):
    """Z_mu f = nabla_mu f - (nabla_mu phi)(nabla_0 phi)^{-1} nabla_0 f."""
    inv = inv_nabla0_phi_factor(chart, rep)
    fac = nabla_phi_factor(chart, rep, mu)
    return dirac_ops.nabla(mu, f, rep) - fac.apply(inv.apply(dirac_ops.nabla(0, f, rep)))
