"""The operators D0, D1, D2', D2'', the formal adjoint D0*, the Laplacian and
the commutator of Delta_BC with nabla_A.

All operators act on the exponent matrix and value tensor of a
:class:`~diraclab.fields.PolyField`.  Every derivative goes through one
routine, the partial derivative ``d/dx_{Aj}`` of :mod:`~diraclab.fields`,
followed by gamma contraction.  The first-slot operator stacks the k Dirac
derivatives; the higher operators are built from raw derivative stacks in two
independent ways:

* a "direct" route transcribing the componentwise displays (the default for
  the public entry points), and
* a "projector" route applying the Weyl-module projector's term list to a
  raw derivative tensor, times the operator's prefactor
  (:data:`~diraclab.weyl.PREFACTOR`, beside the projectors it scales).

The two routes agreeing to roundoff on random fields is one of the package's
standing checks.  A stack is an (exponents, values) pair whose values carry
extra leading tensor axes.  Every sum of pieces goes through :func:`_stack`:
with leading axes it adds each piece into its slot, and with none (nabla,
the Laplacian, D1 and D2'' on their gradient and Delta stacks, and the two
sides of the commutator) it is the canonical sum in one buffer on the joint
rows, bit for bit as the field constructor would sum the pieces'
concatenation.

Index conventions for the stacked derivative tensors: new derivative axes are
prepended, so ``grad2[A, B, C, s]`` means (first apply the C-component
selection of the input, then the B derivative, then the A derivative).
"""

import numpy as np

from . import weyl
from .fields import PolyField, _group, _partial
from .solver import _require_bytes


def _require_space(f, space, op_name):
    if f.space != space:
        raise ValueError(f"{op_name} expects a {space} field, got {f.space}")


def _gamma_block(rep, chirality):
    return rep.gamma_plus if chirality > 0 else rep.gamma_minus


def _nabla_pieces(expo, vals, gam, A, n):
    """The n summands gamma_j d_{Aj} of nabla_A, one piece per direction j."""
    for j in range(n):
        e, v = _partial(expo, vals, A * n + j)
        yield e, np.einsum("st,...t->...s", gam[j], v)


def _delta_pieces(expo, vals, B, C, n):
    """The n summands -2 d_{Bj} d_{Cj} of Delta_BC."""
    for j in range(n):
        e, v = _partial(*_partial(expo, vals, B * n + j), C * n + j)
        yield e, -2.0 * v


#: the peak of an operator in units of its largest stack, rounded up: under
#: tracemalloc on the complex suite's fields at n = 2 and k = 3..9, d1 and
#: the order-5 operators held 2.8 to 6.4 (d2pp 2.8 to 5.0), most of it the
#: nested gradient's pieces and the output's membership check; only stacks
#: under 0.02 MiB, whose exponent rows outweigh their values, read more
STACK_COPIES = 7


def _stack(slotted, lead):
    """Canonical stack whose leading axes ``lead`` hold the pieces at their slots.

    One grouping of the concatenated exponents gives each row its output
    row; then each piece adds into its slot of its rows.  A piece's rows
    are unique, so no index repeats within one add, and the pieces add in
    order into zeros, bit for bit as a sum of the zero-padded pieces would.
    With ``lead = ()`` and empty slots it is the canonical sum of the pieces
    in one buffer, bit for bit as the field constructor would sum their
    concatenation.  The stack is refused over the memory cap, counted as
    :data:`STACK_COPIES` copies of it.
    """
    rows, out_row = _group(np.concatenate([e for _, e, _ in slotted]))
    acc_shape = (len(rows),) + lead + slotted[0][2].shape[1:]
    _require_bytes(STACK_COPIES * 16 * int(np.prod(acc_shape)),
                   f"derivative stack of shape {acc_shape}")
    acc = np.zeros(acc_shape, dtype=complex)
    row = 0
    for slot, e, v in slotted:
        acc[(out_row[row:row + len(e)],) + slot] += v
        row += len(e)
    keep = acc.any(axis=tuple(range(1, acc.ndim)))
    return rows[keep], acc[keep]


def _grad(f, rep, times=1):
    """Prepend derivative axes: out[A, ...] = (nabla_A input)[...], repeated."""
    expo, vals, chirality = f.expo, f.vals, f.chirality
    for _ in range(times):
        gam = _gamma_block(rep, chirality)
        expo, vals = _stack([((A,), e, v) for A in range(f.k)
                             for e, v in _nabla_pieces(expo, vals, gam, A, f.n)], (f.k,))
        chirality = -chirality
    return expo, vals


def _delta_stack(f):
    """Prepend two axes: out[B, C, ...] = -2 sum_j d_{Bj} d_{Cj} input."""
    return _stack([((B, C), e, v) for B in range(f.k) for C in range(f.k)
                   for e, v in _delta_pieces(f.expo, f.vals, B, C, f.n)], (f.k, f.k))


def _result(f, space, expo, vals):
    """The output field; V2/V3 outputs are checked against their module."""
    return PolyField(f.k, f.n, space, expo, vals).validate()


def nabla(A, f, rep):
    """Dirac derivative in the A-th vector variable (chirality flips).

    Term by term: differentiate with respect to x_{A j} and contract the
    spinor axis with the j-th gamma block, summed over j.
    """
    if not 0 <= A < f.k:
        raise ValueError(f"variable index {A} out of range for k={f.k}")
    target = _flip_scalar_space(f)
    gam = _gamma_block(rep, f.chirality)
    return PolyField(f.k, f.n, target, *_stack(
        [((), e, v) for e, v in _nabla_pieces(f.expo, f.vals, gam, A, f.n)], ()))


def _flip_scalar_space(f):
    # a scalar field is S+ valued (V0) or S- valued
    if f.order == 0:
        return "S-" if f.chirality > 0 else "V0"
    raise ValueError("nabla on tensor-valued fields goes through the stacks")


def d0(f, rep):
    """First operator of the complex: stack the k Dirac derivatives."""
    _require_space(f, "V0", "d0")
    return PolyField(f.k, f.n, "V1", *_grad(f, rep))


def d0_star(G, rep):
    """Formal adjoint of d0: the contracted sum of Dirac derivatives."""
    _require_space(G, "V1", "d0_star")
    expo, vals = _grad(G, rep)  # axes (A, component, s)
    return PolyField(G.k, G.n, "V0", expo, np.einsum("taas->ts", vals))


def d1(F, rep):
    """Second operator, direct componentwise form.

    ``(d1 F)[A,B,C] = sym_{BC}(grad2[A,B,C]) - 1/2 Delta_{BC} F[A]``.
    """
    _require_space(F, "V1", "d1")
    ge, t = _grad(F, rep, 2)  # (A, B, C, s)
    sym = t + np.einsum("tacbs->tabcs", t)
    del t
    sym *= 0.5
    de, d = _delta_stack(F)  # (B, C, Ccomp, s)
    lap = -0.5 * np.einsum("tbcas->tabcs", d)
    del d
    return _result(F, "V2", *_stack([((), ge, sym), ((), de, lap)], ()))


def d1_projector(F, rep):
    """Second operator through the (2,1) projector: c C21(grad2)."""
    _require_space(F, "V1", "d1_projector")
    expo, grad2 = _grad(F, rep, 2)
    return _result(F, "V2", expo, _apply_projector(grad2, "21"))


def _apply_projector(vals, lam):
    # vals: (terms,) + (k,)*m + (s,); the projector wants the tensor axes first
    out = weyl.apply_projector(lam, np.moveaxis(vals, 0, -1))
    return weyl.PREFACTOR[lam] * np.moveaxis(out, -1, 0)


def _require_order5(h):
    if h.k < 3:
        raise ValueError("the order-5 branch of the complex needs k >= 3")


def d2p(h, rep):
    """Third operator, first-order branch, direct componentwise form."""
    _require_space(h, "V2", "d2p")
    _require_order5(h)
    expo, u = _grad(h, rep)  # U[D, A, B, C, s]
    # sum over swaps of (A,D) and of (B,C) of
    #   1/2 (U[DABC] - U[DCBA]) + 1/2 (U[BCDA] - U[BADC])
    base = u - np.einsum("tdcbas->tdabcs", u)
    half = np.einsum("tbcdas->tdabcs", u) - np.einsum("tbadcs->tdabcs", u)
    del u
    base *= 0.5
    half *= 0.5
    base += half
    del half
    out = base + np.einsum("tadbcs->tdabcs", base)
    out += np.einsum("tdacbs->tdabcs", base)
    out += np.einsum("tadcbs->tdabcs", base)
    del base
    return _result(h, "V3p", expo, out)


def d2p_projector(h, rep):
    """Third operator, first-order branch, as c C22(grad h)."""
    _require_space(h, "V2", "d2p_projector")
    _require_order5(h)
    expo, grad = _grad(h, rep)
    return _result(h, "V3p", expo, _apply_projector(grad, "22"))


def d2pp(h, rep):
    """Third operator, second-order branch, direct componentwise form.

    Transcribes the display
    ``1/2 sum_{(D,B,C)} ( 2 grad_[E grad_D h_A]BC + grad_D grad_[E h_A]BC
    + Delta_BC h_[E D_ A] )`` with the bracket skew over E and A only.
    Each stack-sized term is dropped once it is added in, and the gradient
    and Delta terms are summed on their joint rows in one buffer, which
    keeps the peak within :data:`STACK_COPIES` stacks.
    """
    _require_space(h, "V2", "d2pp")
    _require_order5(h)
    we, w2 = _grad(h, rep, 2)  # W2[E, D, A, B, C, s]
    # 2 grad_[E grad_D_ h_A]BC  = grad_E grad_D h_ABC - grad_A grad_D h_EBC
    t = w2 - np.einsum("tadebcs->tedabcs", w2)
    # grad_D grad_[E h_A]BC = 1/2 (grad_D grad_E h_ABC - grad_D grad_A h_EBC)
    w2s = np.einsum("tdeabcs->tedabcs", w2)
    half = w2s - np.einsum("tadebcs->tedabcs", w2s)
    del w2, w2s
    half *= 0.5
    t += half
    del half
    de, dh = _delta_stack(h)  # D[B', C', A, B, C, s]
    # Delta_BC h_[E D_ A] = 1/2 Delta_BC (h_EDA - h_ADE)
    x = np.einsum("tbcedas->tedabcs", dh)
    half = x - np.einsum("tadebcs->tedabcs", x)
    del dh, x
    half *= 0.5
    expo, core = _stack([((), we, t), ((), de, half)], ())
    del t, half
    # 1/2 times the sum over the six relabelings of (D, B, C)
    out = np.zeros_like(core)
    for sub in ("edabcs", "ebadcs", "ecabds", "edacbs", "ebacds", "ecadbs"):
        out += np.einsum(f"t{sub}->tedabcs", core)
    out *= 0.5
    del core
    return _result(h, "V3pp", expo, out)


def d2pp_projector(h, rep):
    """Second-order branch via the (3,1,1) projector.

    Combination form: ``c C311( 2 grad_E grad_D h + grad_D grad_E h )``.
    """
    _require_space(h, "V2", "d2pp_projector")
    _require_order5(h)
    expo, w2 = _grad(h, rep, 2)
    mixed = 2.0 * w2
    mixed += np.einsum("tdeabcs->tedabcs", w2)
    del w2
    return _result(h, "V3pp", expo, _apply_projector(mixed, "311"))


def laplacian(f, rep):
    """Scalar Laplacian -sum d^2 (for cross-checking d0* d0)."""
    del rep
    return PolyField(f.k, f.n, f.space, *_stack(
        [((), e, 0.5 * v) for B in range(f.k)
         for e, v in _delta_pieces(f.expo, f.vals, B, B, f.n)], ()))


def delta_nabla_commutator(g, rep):
    """Delta_BC nabla_A g - nabla_A Delta_BC g at every (A, B, C).

    An S- field whose values carry the axes (A, B, C) ahead of the spinor
    axis; on a sample-keyed V0 field each member keeps its own rows.  The
    two sides are whole stacks, the Delta stack of the gradient (axes B, C,
    A) and the gradient of the Delta stack (axes A, B, C), summed on their
    joint rows in one buffer.
    """
    _require_space(g, "V0", "delta_nabla_commutator")
    de, dn = _delta_stack(PolyField(g.k, g.n, "S-", *_grad(g, rep)))  # (B, C, A, s)
    ne, nd = _grad(PolyField(g.k, g.n, "V0", *_delta_stack(g)), rep)  # (A, B, C, s)
    return PolyField(g.k, g.n, "S-", *_stack(
        [((), de, np.einsum("tbcas->tabcs", dn)), ((), ne, np.negative(nd, out=nd))], ()))


def monogenic_basis(rep, k, n, degree):
    """Basis of polynomial solutions of ``d0 f = 0`` up to a total degree.

    Takes the matrix of d0 on the monomial/spinor coefficient space from
    :func:`d0` itself and extracts an orthonormal null-space basis by
    multidegree block, returning the basis as one stack
    (:func:`~diraclab.fields.stack`) of B V0 fields: ``vals`` of shape
    (T, B, s) on its monomials, basis field b at ``vals[:, b]``.  Used as the
    generator of monogenic test data.

    nabla_A lowers the degree in variable A only, so d0 maps the columns of
    multidegree delta (the degree in each vector variable) into the rows of
    slot A at multidegree delta - e_A, and its matrix is block-diagonal.  The
    null space is the sum of the blocks' null spaces, each taken by one SVD
    (:func:`~diraclab.weyl.sv_rank` per block); the blocks come in
    lexicographic order of delta, and the columns and rows keep their order
    within a block.
    """
    kn, s = k * n, rep.s_dim
    # columns (monomial, spinor) up to `degree`; rows (monomial, A, spinor)
    # below it, both ordered by degree first, so the rows' monomials are a
    # prefix of the columns'
    monos = np.array([e for d in range(degree + 1) for e in _monomials(kn, d)],
                     dtype=np.int64).reshape(-1, kn)
    n_out = int((monos.sum(axis=1) < degree).sum())
    # column c is member c of one keyed field: x^e u_t, (e, t) = divmod(c, s)
    e, t = np.divmod(np.arange(len(monos) * s), s)
    image = d0(PolyField(k, n, "V0", np.column_stack((np.arange(len(e)), monos[e])),
                         np.eye(s)[t]), rep)
    # every image monomial is a row monomial, so the distinct rows below are
    # exactly those, and the first n_out ids are a permutation
    uid = np.unique(np.concatenate((monos[:n_out], image.expo[:, 1:])), axis=0,
                    return_inverse=True)[1].reshape(-1)
    mat = np.zeros((n_out, k, s, len(e)), dtype=complex)
    mat[np.argsort(uid[:n_out])[uid[n_out:]], :, :, image.expo[:, 0]] = image.vals
    mat = mat.reshape(n_out * k * s, len(e))
    # the multidegree of each column, and the one whose image each row holds:
    # row (x^r, A, t) takes the columns of multidegree delta(r) + e_A
    multi = monos.reshape(-1, k, n).sum(axis=2)
    col_deg = np.repeat(multi, s, axis=0)
    row_deg = np.repeat((multi[:n_out, None] + np.eye(k, dtype=np.int64)).reshape(-1, k),
                        s, axis=0)
    blocks = []
    for delta in np.unique(col_deg, axis=0):
        cols = np.flatnonzero((col_deg == delta).all(axis=1))
        rows = np.flatnonzero((row_deg == delta).all(axis=1))
        _, sv, vh = np.linalg.svd(mat[np.ix_(rows, cols)])
        rank = weyl.sv_rank(sv)
        part = np.zeros((len(cols) - rank, len(e)), dtype=complex)
        part[:, cols] = vh[rank:].conj()
        blocks.append(part)
    null = np.concatenate(blocks).reshape(-1, len(monos), s)
    null[np.abs(null) <= 1e-13] = 0.0
    return PolyField(k, n, "V0", monos, null.transpose(1, 0, 2))


def _monomials(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _monomials(nvars - 1, total - head):
            yield (head,) + rest
