"""The operators D0, D1, D2', D2'' and the formal adjoints D0*, D1*.

All operators act on the exponent matrix and value tensor of a
:class:`~diraclab.fields.PolyField`.  Every derivative goes through one
routine, the partial derivative ``d/dx_{Aj}`` of :mod:`~diraclab.fields`,
followed by gamma contraction.  The first-slot operator stacks the k Dirac
derivatives; the higher operators are built from raw derivative stacks in two
independent ways:

* a "direct" route transcribing the componentwise displays (the default for
  the public entry points), and
* a "projector" route applying the Weyl-module projector's term list to a
  raw derivative tensor, with the appropriate prefactor (3/2, 6 or 10/3).

The two routes agreeing to roundoff on random fields is one of the package's
standing checks.  A stack is an (exponents, values) pair whose values carry
extra leading tensor axes; a sum of stacks is their concatenation, which the
field constructor brings back to canonical form.

Index conventions for the stacked derivative tensors: new derivative axes are
prepended, so ``grad2[A, B, C, s]`` means (first apply the C-component
selection of the input, then the B derivative, then the A derivative).
"""

import numpy as np

from . import weyl
from .fields import PolyField, _canonical, _key, _partial, zero_field


def _require_space(f, space, op_name):
    if f.space != space:
        raise ValueError(f"{op_name} expects a {space} field, got {f.space}")


def _gamma_block(rep, chirality):
    return rep.gamma_plus if chirality > 0 else rep.gamma_minus


def _cat(pieces):
    """Concatenate (exponents, values) pieces into one un-summed pair."""
    expo, vals = zip(*pieces)
    return np.concatenate(expo), np.concatenate(vals)


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


def _stack(slotted, lead):
    """Canonical stack whose leading axes ``lead`` hold the pieces at their slots."""
    expo = np.concatenate([e for _, e, _ in slotted])
    vals = np.zeros((len(expo),) + lead + slotted[0][2].shape[1:], dtype=complex)
    row = 0
    for slot, e, v in slotted:
        vals[(slice(row, row + len(e)),) + slot] = v
        row += len(e)
    return _canonical(expo, vals)


def _grad(f, rep, times=1):
    """Prepend derivative axes: out[A, ...] = (nabla_A input)[...], repeated."""
    expo, vals, chirality = f.expo, f.vals, f.chirality
    for _ in range(times):
        gam = _gamma_block(rep, chirality)
        expo, vals = _stack(
            [((A,), e, v) for A in range(f.k)
             for e, v in _nabla_pieces(expo, vals, gam, A, f.n)],
            (f.k,),
        )
        chirality = -chirality
    return expo, vals


def _delta_stack(f):
    """Prepend two axes: out[B, C, ...] = -2 sum_j d_{Bj} d_{Cj} input."""
    return _stack(
        [((B, C), e, v) for B in range(f.k) for C in range(f.k)
         for e, v in _delta_pieces(f.expo, f.vals, B, C, f.n)],
        (f.k, f.k),
    )


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
    if not len(f):  # keeps the value shape, batch axis included
        return PolyField(f.k, f.n, target, f.expo, f.vals)
    gam = _gamma_block(rep, f.chirality)
    return PolyField(f.k, f.n, target, *_cat(_nabla_pieces(f.expo, f.vals, gam, A, f.n)))


def _flip_scalar_space(f):
    # spaces only track tags for the canonical slots; derivative intermediates
    # use the bare spinor tags
    flip = {+1: "S-", -1: "S+"}[f.chirality]
    if f.order == 0:
        return flip
    raise ValueError("nabla on tensor-valued fields goes through the stacks")


def delta_op(B, C, f, rep):
    """The scalar anticommutator operator applied to a field."""
    del rep
    if not len(f):
        return zero_field(f.k, f.n, f.space)
    return PolyField(f.k, f.n, f.space, *_cat(_delta_pieces(f.expo, f.vals, B, C, f.n)))


def d0(f, rep):
    """First operator of the complex: stack the k Dirac derivatives."""
    _require_space(f, "V0", "d0")
    if not len(f):
        return zero_field(f.k, f.n, "V1")
    return PolyField(f.k, f.n, "V1", *_grad(f, rep))


def d0_star(G, rep):
    """Formal adjoint of d0: the contracted sum of Dirac derivatives."""
    _require_space(G, "V1", "d0_star")
    if not len(G):
        return zero_field(G.k, G.n, "V0")
    expo, vals = _grad(G, rep)  # axes (A, component, s)
    return PolyField(G.k, G.n, "V0", expo, np.einsum("taas->ts", vals))


def d1(F, rep):
    """Second operator, direct componentwise form.

    ``(d1 F)[A,B,C] = sym_{BC}(grad2[A,B,C]) - 1/2 Delta_{BC} F[A]``.
    """
    _require_space(F, "V1", "d1")
    if not len(F):
        return zero_field(F.k, F.n, "V2")
    ge, t = _grad(F, rep, 2)  # (A, B, C, s)
    de, d = _delta_stack(F)  # (B, C, Ccomp, s)
    sym = 0.5 * (t + np.einsum("tacbs->tabcs", t))
    lap = -0.5 * np.einsum("tbcas->tabcs", d)
    return _result(F, "V2", *_cat([(ge, sym), (de, lap)]))


def d1_projector(F, rep):
    """Second operator through the (2,1) projector: 3/2 C21(grad2)."""
    _require_space(F, "V1", "d1_projector")
    if not len(F):
        return zero_field(F.k, F.n, "V2")
    expo, grad2 = _grad(F, rep, 2)
    return _result(F, "V2", expo, _apply_projector(grad2, "21", 1.5))


def _apply_projector(vals, lam, prefactor):
    # vals: (terms,) + (k,)*m + (s,); the projector wants the tensor axes first
    out = weyl.apply_projector(lam, np.moveaxis(vals, 0, -1))
    return prefactor * np.moveaxis(out, -1, 0)


def _require_order5(h):
    if h.k < 3:
        raise ValueError("the order-5 branch of the complex needs k >= 3")


def d2p(h, rep):
    """Third operator, first-order branch, direct componentwise form."""
    _require_space(h, "V2", "d2p")
    _require_order5(h)
    if not len(h):
        return zero_field(h.k, h.n, "V3p")
    expo, u = _grad(h, rep)  # U[D, A, B, C, s]
    # sum over swaps of (A,D) and of (B,C) of
    #   1/2 (U[DABC] - U[DCBA]) + 1/2 (U[BCDA] - U[BADC])
    base = 0.5 * (u - np.einsum("tdcbas->tdabcs", u)) + 0.5 * (
        np.einsum("tbcdas->tdabcs", u) - np.einsum("tbadcs->tdabcs", u)
    )
    out = (
        base
        + np.einsum("tadbcs->tdabcs", base)
        + np.einsum("tdacbs->tdabcs", base)
        + np.einsum("tadcbs->tdabcs", base)
    )
    return _result(h, "V3p", expo, out)


def d2p_projector(h, rep):
    """Third operator, first-order branch, as 6 C22(grad h)."""
    _require_space(h, "V2", "d2p_projector")
    _require_order5(h)
    if not len(h):
        return zero_field(h.k, h.n, "V3p")
    expo, grad = _grad(h, rep)
    return _result(h, "V3p", expo, _apply_projector(grad, "22", 6.0))


def d2pp(h, rep):
    """Third operator, second-order branch, direct componentwise form.

    Transcribes the display
    ``1/2 sum_{(D,B,C)} ( 2 grad_[E grad_D h_A]BC + grad_D grad_[E h_A]BC
    + Delta_BC h_[E D_ A] )`` with the bracket skew over E and A only.
    """
    _require_space(h, "V2", "d2pp")
    _require_order5(h)
    if not len(h):
        return zero_field(h.k, h.n, "V3pp")
    we, w2 = _grad(h, rep, 2)  # W2[E, D, A, B, C, s]
    de, dh = _delta_stack(h)  # D[B', C', A, B, C, s]
    # 2 grad_[E grad_D_ h_A]BC  = grad_E grad_D h_ABC - grad_A grad_D h_EBC
    t1 = w2 - np.einsum("tadebcs->tedabcs", w2)
    # grad_D grad_[E h_A]BC = 1/2 (grad_D grad_E h_ABC - grad_D grad_A h_EBC)
    w2s = np.einsum("tdeabcs->tedabcs", w2)
    t2 = 0.5 * (w2s - np.einsum("tadebcs->tedabcs", w2s))
    # Delta_BC h_[E D_ A] = 1/2 Delta_BC (h_EDA - h_ADE)
    x = np.einsum("tbcedas->tedabcs", dh)
    t3 = 0.5 * (x - np.einsum("tadebcs->tedabcs", x))
    expo, core = _canonical(*_cat([(we, t1 + t2), (de, t3)]))
    # 1/2 times the sum over the six relabelings of (D, B, C)
    out = np.zeros_like(core)
    for sub in ("edabcs", "ebadcs", "ecabds", "edacbs", "ebacds", "ecadbs"):
        out += np.einsum(f"t{sub}->tedabcs", core)
    out *= 0.5
    return _result(h, "V3pp", expo, out)


def d2pp_projector(h, rep):
    """Second-order branch via the (3,1,1) projector.

    Combination form: ``10/3 C311( 2 grad_E grad_D h + grad_D grad_E h )``.
    """
    _require_space(h, "V2", "d2pp_projector")
    _require_order5(h)
    if not len(h):
        return zero_field(h.k, h.n, "V3pp")
    expo, w2 = _grad(h, rep, 2)
    mixed = 2.0 * w2 + np.einsum("tdeabcs->tedabcs", w2)
    return _result(h, "V3pp", expo, _apply_projector(mixed, "311", 10.0 / 3.0))


def d1_star(h, rep):
    """Formal adjoint of d1.

    ``(d1* h)[C] = sum_{A,B} ( grad_B grad_A h[A,(B,C)] - 1/2 Delta_AB h[C,A,B] )``.
    """
    _require_space(h, "V2", "d1_star")
    if not len(h):
        return zero_field(h.k, h.n, "V1")
    we, w = _grad(h, rep, 2)  # W[b, a, i, j, l, s]
    de, d = _delta_stack(h)  # D[p, q, i, j, l, s]
    term1 = 0.5 * (
        np.einsum("tbaabcs->tcs", w) + np.einsum("tbaacbs->tcs", w)
    )
    term2 = -0.5 * np.einsum("tabcabs->tcs", d)
    return PolyField(h.k, h.n, "V1", *_cat([(we, term1), (de, term2)]))


def laplacian(f, rep):
    """Scalar Laplacian -sum d^2 (for cross-checking d0* d0)."""
    del rep
    if not len(f):
        return zero_field(f.k, f.n, f.space)
    expo, vals = _cat(p for B in range(f.k) for p in _delta_pieces(f.expo, f.vals, B, B, f.n))
    return PolyField(f.k, f.n, f.space, expo, 0.5 * vals)


def _at_member_slots(k, n, stack, slots):
    """A keyed scalar field read off a keyed derivative stack, row by row.

    `stack` is the (exponents, values) pair of a keyed field with three
    leading derivative axes; each row reads the slot that its member's row
    of `slots`, shape (B, 3), names in those axes.
    """
    f = PolyField(k, n, "S-", *stack)
    i, j, l = np.asarray(slots)[_key(f, len(slots))].T
    return PolyField(k, n, "S-", f.expo, f.vals[np.arange(len(f)), i, j, l])


def delta_nabla(g, rep, slots):
    """Delta_BC nabla_A g for each member of a sample-keyed V0 field.

    Row b of `slots`, shape (B, 3), holds member b's indices (B, C, A)
    (see :func:`~diraclab.fields.keyed`).  One stack over every (A, B, C)
    serves all members.
    """
    _require_space(g, "V0", "delta_nabla")
    if not len(g):
        return zero_field(g.k, g.n, "S-")
    stack = _delta_stack(PolyField(g.k, g.n, "S-", *_grad(g, rep)))  # (B, C, A, s)
    return _at_member_slots(g.k, g.n, stack, slots)


def nabla_delta(g, rep, slots):
    """nabla_A Delta_BC g for each member, as :func:`delta_nabla` takes them."""
    _require_space(g, "V0", "nabla_delta")
    if not len(g):
        return zero_field(g.k, g.n, "S-")
    stack = _grad(PolyField(g.k, g.n, "V0", *_delta_stack(g)), rep)  # (A, B, C, s)
    return _at_member_slots(g.k, g.n, stack, np.asarray(slots)[:, [2, 0, 1]])


def monogenic_basis(rep, k, n, degree):
    """Basis of polynomial solutions of ``d0 f = 0`` up to a total degree.

    Assembles the matrix of d0 on the monomial/spinor coefficient space and
    extracts an orthonormal nullspace basis by SVD, returning the basis as a
    list of V0 fields.  Used as the generator of monogenic test data.
    """
    kn, s = k * n, rep.s_dim
    # columns (monomial, spinor) up to `degree`; rows (monomial, A, spinor)
    # below it, both ordered by degree first, so the rows' monomials are a
    # prefix of the columns'
    monos = np.array([e for d in range(degree + 1) for e in _monomials(kn, d)],
                     dtype=np.int64).reshape(-1, kn)
    n_out = int((monos.sum(axis=1) < degree).sum())
    # d0 (x^e u_t) = sum_{A,j} e[Aj] x^(e - 1_Aj) (gamma_j u_t) in slot A:
    # one matrix block per (monomial, variable) with a positive exponent
    src, var = np.nonzero(monos)
    dst = monos[src] - np.eye(kn, dtype=np.int64)[var]
    # every dst is a row monomial, so the distinct rows below are exactly those
    _, uid = np.unique(np.concatenate((monos[:n_out], dst)), axis=0, return_inverse=True)
    uid = uid.reshape(-1)
    pos = np.empty(n_out, dtype=np.int64)
    pos[uid[:n_out]] = np.arange(n_out)
    rows = pos[uid[n_out:]]
    A, j = np.divmod(var, n)
    mat = np.zeros((n_out, k, s, len(monos), s), dtype=complex)
    mat[rows, A, :, src, :] = monos[src, var][:, None, None] * rep.gamma_plus[j]
    mat = mat.reshape(n_out * k * s, len(monos) * s)
    _, sv, vh = np.linalg.svd(mat)
    tol = 1e-9 * (sv[0] if sv.size else 1.0)
    rank = int((sv > tol).sum())
    null = vh[rank:].conj().reshape(-1, len(monos), s)
    null[np.abs(null) <= 1e-13] = 0.0
    return [PolyField(k, n, "V0", monos, coeffs) for coeffs in null]


def _monomials(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _monomials(nvars - 1, total - head):
            yield (head,) + rest
