"""Frequency-domain symbol bundles and their fourth-order Hodge operators.

At a frequency vector xi (k blocks of length n) the bundle holds the symbol
matrices of the operators in compressed coordinates: the tensor parts of the
higher value spaces are expressed in the orthonormal Weyl-module bases, so
ranks and kernels are computed on small matrices.  :func:`build_bundle` is the
only place the symbol formulas live.  It takes xi of shape (k*n,) or
(..., k*n) and returns matrices with the same leading axes, so one call
covers a whole stack of frequencies.  sigma0 stacks the k one-variable
Dirac symbols x_A of :func:`~diraclab.clifford.dirac_symbol`.

Each of sigma1, sigma2' and sigma2'' is the symbol of its operator's
projector form, c C_lam applied to a raw derivative tensor, with c from
:data:`~diraclab.weyl.PREFACTOR`, the table that the projector forms of
:mod:`~diraclab.dirac_ops` read too.  With x_A = -i sum_j xi_Aj gamma_plus[j]
(so x_A^H = -i sum_j xi_Aj gamma_minus[j]), the raw symbol is
P_AB = x_A x_B^H for D1 and D2'', and x_D^H for D2'.  Contracting with the
target's real orthonormal Weyl basis W moves the projector onto that basis
as its transpose: the pullback c C_lam^T W.  C_lam^T is the product of
C_lam's group-sum factors in reverse order, each its own transpose
(:func:`~diraclab.weyl.apply_projector_transpose`).  Contracting the pullback with
the source basis w21 leaves one constant per k and operator, of size at most
k^2 d_target d_21.  Each compressed matrix is then one einsum of its
constant with the products, and no full tensor is formed.  The projector
absorbs the displays' Delta_BC terms, so the scalars 2 <xi_B, xi_C> enter no
symbol; the displays themselves are written once, in the direct operator
forms of :mod:`~diraclab.dirac_ops`, which are the oracle.

The fourth-order combinations

    L0 = (sigma0* sigma0)^2
    L1 = (sigma0 sigma0*)^2 + sigma1* sigma1
    L2 = sigma1 sigma1* + (sigma2'* sigma2')^2 + sigma2''* sigma2''

are conjugate-symmetric, homogeneous of degree 4 in xi, and positive definite
away from xi = 0; their inverses realize the Green operators frequency by
frequency.  For k = 2 the order-5 branch does not exist and L2 degenerates to
sigma1 sigma1* (recorded by ``has_order5 = False``).

The checks below act on stacked bundles and return one value per frequency,
an array over the batch axes (0-d for a single frequency).
:func:`verify_exactness` returns the measured ranks and one exactness verdict
per frequency, the only place the verdict is decided: exactness fixes every
rank by the dimensions, so no caller compares ranks across frequencies.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import weyl
from .clifford import dirac_symbol


def _h(mat):
    """Conjugate transpose over the last two axes."""
    return np.conj(np.swapaxes(mat, -1, -2))


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _w21(k):
    return weyl.weyl_space(k, "21").basis.reshape((k,) * 3 + (-1,))


def _pullback(k, lam):
    """c C_lam^T applied to the Weyl basis of `lam`, shape (k,)*m + (d,): the
    target side of the compressed symbol of c C_lam(raw derivative)."""
    ws = weyl.weyl_space(k, lam)
    return weyl.PREFACTOR[lam] * weyl.apply_projector_transpose(
        lam, ws.basis.reshape((k,) * ws.m + (-1,)))


@lru_cache(maxsize=None)
def _sigma1_constants(k):
    """The constant c of sigma1 = sum_AB c[A, B] (x) P_AB, shape
    (k, k, d_21, k).  The Weyl bases are real, so none is conjugated."""
    return _frozen(np.swapaxes(_pullback(k, "21"), -1, -2))[0]


def _on_w21(pull):
    """sum_abc pull[..., a, b, c, q] w21[a, b, c, r], shape (..., q, r): the
    source side of a compressed symbol.  One matmul per leading index, on a
    transposed view, so no copy of the pullback is made."""
    k = pull.shape[0]
    flat = np.swapaxes(pull.reshape(-1, k**3, pull.shape[-1]), 1, 2)
    out = flat @ _w21(k).reshape(k**3, -1)
    return out.reshape(pull.shape[:-4] + out.shape[1:])


@lru_cache(maxsize=None)
def _order5_constants(k):
    """The constants of sigma2', shape (k, d_22, d_21), and of sigma2'' on P,
    shape (k, k, d_311, d_21); k >= 3."""
    c2p = _on_w21(_pullback(k, "22"))
    kt = _on_w21(_pullback(k, "311"))
    # the raw symbol of 2 grad_E grad_D + grad_D grad_E is 2 P_ED + P_DE
    return _frozen(c2p, 2.0 * kt + kt.swapaxes(0, 1))


def _second_order(c_pp, pp):
    """sum_AB c_pp[A,B] (x) P_AB, shaped (..., i*s, j*s)."""
    s = pp.shape[-1]
    out = np.einsum("ABij,...ABst->...isjt", c_pp, pp, optimize=True)
    return out.reshape(out.shape[:-4] + (out.shape[-4] * s, out.shape[-2] * s))


#: frequencies per pass of :attr:`SymbolBundle.order5_svd` and
#: :func:`kernel_identity_check`; bounds their scratch memory at any batch size
KERNEL_BLOCK = 256


@dataclass(frozen=True)
class SymbolBundle:
    """The symbols at a frequency vector xi, or at each of a stack of them.

    Every matrix carries the leading axes of xi.  sigma0 is built with the
    bundle; sigma1, the order-5 symbols, L0, L1, L2 and dims are derived on
    first read, so a caller pays only for what it reads.
    """

    k: int
    n: int
    xi: np.ndarray
    s_dim: int
    sigma0: np.ndarray

    @property
    def has_order5(self):
        return self.k >= 3

    @cached_property
    def _products(self):
        """The blocks P_AB = x_A x_B^H of sigma0 sigma0^H, shape
        (..., k, k, s, s), and the scalars 2 <xi_A, xi_B>, shape (..., k, k)."""
        k, s = self.k, self.s_dim
        gram = self.sigma0 @ _h(self.sigma0)
        blocks = gram.reshape(gram.shape[:-2] + (k, s, k, s))
        xiv = self.xi.reshape(self.xi.shape[:-1] + (k, self.n))
        return np.swapaxes(blocks, -3, -2), 2.0 * xiv @ np.swapaxes(xiv, -1, -2)

    @cached_property
    def dims(self):
        s = self.s_dim
        dims = {"V0": s, "V1": self.k * s, "V2": self.sigma1.shape[-2]}
        if self.has_order5:
            dims["V3p"] = self.sigma2p.shape[-2]
            dims["V3pp"] = self.sigma2pp.shape[-2]
        return dims

    @cached_property
    def sigma1(self):
        return _second_order(_sigma1_constants(self.k), self._products[0])

    @cached_property
    def sigma2p(self):
        if not self.has_order5:
            return None
        k, s = self.k, self.s_dim
        batch = self.xi.shape[:-1]
        c2p = _order5_constants(k)[0]
        xm = _h(self.sigma0.reshape(batch + (k, s, s)))  # the blocks x_A^H
        out = np.einsum("dqr,...dst->...qsrt", c2p, xm, optimize=True)
        return out.reshape(batch + (c2p.shape[1] * s, c2p.shape[2] * s))

    @cached_property
    def sigma2pp(self):
        if not self.has_order5:
            return None
        return _second_order(_order5_constants(self.k)[1], self._products[0])

    @cached_property
    def order5_svd(self):
        """The thin SVD of the stacked order-5 symbols [sigma2'; sigma2''] as
        (singular values, vh), or None for k = 2: one decomposition serves
        the slot-2 rank of :func:`verify_exactness` and the kernel vectors of
        :func:`kernel_identity_check`.  The kept (sv, vh) grow linearly with
        the number of frequencies, at most the size of the stack itself.  It
        runs on at most :data:`KERNEL_BLOCK` frequencies at a time, so only
        its scratch, the discarded left vectors among it, is bounded."""
        if not self.has_order5:
            return None
        batch = self.xi.shape[:-1]
        p, pp = (a.reshape((-1,) + a.shape[-2:]) for a in (self.sigma2p, self.sigma2pp))
        width = min(p.shape[1] + pp.shape[1], p.shape[2])
        sv = np.empty((len(p), width))
        vh = np.empty((len(p), width, p.shape[2]), dtype=complex)
        for lo in range(0, len(p), KERNEL_BLOCK):
            hi = lo + KERNEL_BLOCK
            _, sv[lo:hi], vh[lo:hi] = np.linalg.svd(
                np.concatenate([p[lo:hi], pp[lo:hi]], axis=-2), full_matrices=False)
        return sv.reshape(batch + sv.shape[1:]), vh.reshape(batch + vh.shape[1:])

    @cached_property
    def L0(self):
        g = _h(self.sigma0) @ self.sigma0
        return g @ g

    @cached_property
    def L1(self):
        p = self.sigma0 @ _h(self.sigma0)
        return p @ p + _h(self.sigma1) @ self.sigma1

    @cached_property
    def L2(self):
        out = self.sigma1 @ _h(self.sigma1)
        if self.has_order5:
            g = _h(self.sigma2p) @ self.sigma2p
            out = out + g @ g + _h(self.sigma2pp) @ self.sigma2pp
        return out


def build_bundle(rep, k, xi):
    """Assemble the symbol bundle at a frequency vector or a stack of them.

    Parameters
    ----------
    rep : CliffordRep
    k : int
        Number of vector variables (k >= 2).
    xi : array_like, shape (k*n,) or (..., k*n)
        Frequency vectors, each grouped as k blocks of n; may be zero.  The
        bundle's matrices carry the same leading axes.
    """
    if k < 2:
        raise ValueError(f"need k >= 2 vector variables, got {k}")
    n, s = rep.n, rep.s_dim
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0 or xi.shape[-1] != k * n:
        raise ValueError(f"xi must have shape (..., {k * n}), got {xi.shape}")
    sigma0 = dirac_symbol(rep, xi.reshape(xi.shape[:-1] + (k, n)))[0]
    return SymbolBundle(k=k, n=n, xi=xi, s_dim=s,
                        sigma0=sigma0.reshape(xi.shape[:-1] + (k * s, s)))


def numeric_rank(mat):
    """Numeric rank (:func:`~diraclab.weyl.sv_rank`) of a matrix or of each
    in a stack."""
    return weyl.sv_rank(np.linalg.svd(mat, compute_uv=False))


def verify_exactness(bundle):
    """Measure ranks and certify exactness of the symbol sequence at xi != 0.

    Returns ``(ranks, exact)``: ``ranks`` maps rank_sigma0, dim_ker_sigma1,
    rank_sigma1 and dim_ker_order5 (None for k = 2) to integer arrays over
    the batch axes, and ``exact`` is the boolean array of the frequencies
    where sigma0 is injective and each kernel equals the previous image,
    0-d for a single frequency."""
    if np.any(np.linalg.norm(bundle.xi, axis=-1) == 0.0):
        raise ValueError("exactness is only defined at nonzero frequencies")
    dims = bundle.dims
    rank0 = numeric_rank(bundle.sigma0)
    rank1 = numeric_rank(bundle.sigma1)
    ker1 = dims["V1"] - rank1
    exact = (rank0 == dims["V0"]) & (ker1 == rank0)
    ker2 = None
    if bundle.has_order5:
        ker2 = dims["V2"] - weyl.sv_rank(bundle.order5_svd[0])
        exact &= ker2 == rank1
    return {"rank_sigma0": rank0, "dim_ker_sigma1": ker1, "rank_sigma1": rank1,
            "dim_ker_order5": ker2}, exact


def kernel_identity_check(bundle):
    """Kernel identity for the order-5 branch, on an orthonormal kernel basis.

    For every unit element Theta of ker sigma2' n ker sigma2'', checks
    componentwise that

        |xi_0|^2 Theta[A,B,C] = xi_A xi_B Theta[0,0,C]
                              + xi_A xi_C Theta[0,0,B]
                              - (xi_B xi_C + xi_C xi_B) Theta[0,0,A]

    and returns the largest residual entry per frequency, with xi_A xi_B the
    block P_AB of sigma0 sigma0^H.  Requires a nonzero first block.  The
    frequencies go through in chunks of at most :data:`KERNEL_BLOCK`.
    """
    if not bundle.has_order5:
        raise ValueError("the kernel identity lives on the order-5 branch (k >= 3)")
    batch = bundle.xi.shape[:-1]
    xiv = bundle.xi.reshape(batch + (bundle.k, bundle.n))
    n0sq = (xiv[..., 0, :] ** 2).sum(axis=-1)
    if np.any(n0sq == 0.0):
        raise ValueError("the identity requires a nonzero first frequency block")
    rows = bundle.sigma2p.shape[-2] + bundle.sigma2pp.shape[-2]
    if rows < bundle.sigma2p.shape[-1]:
        # dim V3' + dim V3'' >= dim V2 for k >= 3; a thin SVD of a wide
        # matrix would drop right singular vectors of the kernel
        raise ArithmeticError(f"order-5 symbol stack is wide: {rows} rows, "
                              f"{bundle.sigma2p.shape[-1]} columns")
    parts = [a.reshape((-1,) + a.shape[len(batch):]) for a in
             (*bundle.order5_svd, *bundle._products, n0sq)]
    resid = [_kernel_residual(bundle.k, bundle.s_dim,
                              *(a[lo:lo + KERNEL_BLOCK] for a in parts))
             for lo in range(0, max(len(parts[-1]), 1), KERNEL_BLOCK)]
    return np.concatenate(resid).reshape(batch)


def _kernel_residual(k, s, sv, vh, pp, scal, n0sq):
    """:func:`kernel_identity_check` on one chunk of frequencies, from the
    chunk's singular values and right singular vectors of the stack."""
    # the right singular vectors past the rank span the kernel; take them
    # from the smallest rank in the chunk on and mask the rest per frequency
    rank = weyl.sv_rank(sv)
    lo = int(rank.min(initial=vh.shape[-1]))
    vecs = vh[:, lo:, :].conj().reshape((len(vh), -1, vh.shape[-1] // s, s))
    # Theta[..., v, A, B, C, s] = sum_r w21[A, B, C, r] vecs[..., v, r, s]
    theta = (_w21(k).reshape(k**3, -1) @ vecs).reshape(vecs.shape[:2] + (k,) * 3 + (s,))
    t00 = theta[..., 0, 0, :, :]
    rhs = (np.einsum("...ABst,...vCt->...vABCs", pp, t00)
           + np.einsum("...ACst,...vBt->...vABCs", pp, t00)
           - np.einsum("...BC,...vAs->...vABCs", scal, t00))
    lhs = n0sq[..., None, None, None, None, None] * theta
    resid = np.abs(lhs - rhs).max(axis=(-4, -3, -2, -1))
    in_kernel = np.arange(lo, vh.shape[-1]) >= rank[..., None]
    return np.where(in_kernel, resid, 0.0).max(axis=-1)


def intertwine_check(bundle):
    """Frobenius norm of L2 sigma1 - sigma1 L1 (the Green intertwining)."""
    diff = bundle.L2 @ bundle.sigma1 - bundle.sigma1 @ bundle.L1
    return np.linalg.norm(diff, axis=(-2, -1))


def hodge_eig_bounds(bundle):
    """Extreme eigenvalues of each L_j (conjugate-symmetric by construction),
    L2 only where it is invertible, as in :func:`green_inverse_residual`."""
    out = {}
    for name in ("L0", "L1", "L2")[:3 if bundle.has_order5 else 2]:
        ev = np.linalg.eigvalsh(getattr(bundle, name))
        out[name] = (ev[..., 0], ev[..., -1])
    return out


def green_inverse_residual(bundle):
    """max_j || L_j @ L_j^{-1} - I ||_max for the invertible L_j."""
    worst = 0.0
    mats = [bundle.L0, bundle.L1]
    if bundle.has_order5:
        mats.append(bundle.L2)
    for mat in mats:
        resid = np.abs(mat @ np.linalg.inv(mat) - np.eye(mat.shape[-1]))
        worst = np.maximum(worst, resid.max(axis=(-2, -1)))
    return worst
