"""GL(k) Weyl-module projectors and Young symmetrizers for the value spaces.

Three irreducible modules appear in the first segment of the complex, labeled
by the partitions (2,1), (2,2) and (3,1,1).  Each is realized inside a tensor
power of C^k in two independent ways:

* as the image of an index-formula projector ``C_lam`` written with
  skew-symmetrized brackets (:func:`projector_terms`), and
* as the image of the normalized Young symmetrizer ``Y_lam`` acting on basis
  tensors from the right (:func:`young_terms`).

Both are elements of the group algebra Q[S_m] (:mod:`diraclab.tensoridx`),
signed sums of at most 36 slot permutations.  ``C_lam`` is kept as its
group-sum factors (:func:`projector_factors`: 2 for (2,1), 4 for (2,2), 2 for
(3,1,1)), and :func:`projector_terms` is their exact product.
:func:`apply_projector` applies ``C_lam`` to tensors factor by factor, and
:func:`apply_projector_transpose` applies ``C_lam^T`` the same way, each
factor being its own transpose.  The identities between ``C_lam`` and
``Y_lam`` are certified term by term in Q[S_m]: ``C_lam = Y_lam`` as
elements, and ``C_lam C_lam = C_lam``.  Neither depends on k, and each
implies the matching operator identity on (C^k)^{(x) m} at every k.  The rank is the exact trace, a polynomial in k read off cycle
counts (:func:`trace_polynomial`), so no (k^m, k^m) matrix is formed.
:func:`weyl_dim`, the product formula, stays the independent rank oracle.
:func:`sv_rank` is the package's one numeric-rank rule.  :data:`PREFACTOR` is
the package's one table of the prefactors c of the operators' projector forms
c C_lam: :mod:`~diraclab.dirac_ops` and :mod:`~diraclab.symbols` build those
forms with it, and :func:`check_membership` scales its residual by it.

:func:`weyl_space` builds each module's basis from the classical standard
basis (Fulton, *Young Tableaux*, 1997, 8.1; Fulton-Harris, *Representation
Theory*, Lecture 6): ``Y_lam e_T`` for the semistandard tableaux T of shape
lam with entries < k.  It is certified exactly, with no random numbers:
``C_lam = Y_lam`` and ``C_lam^2 = C_lam`` in Q[S_m], and the tableau count
equals the trace rank.  The columns are orthonormalised through their Gram
matrix, which is exact: d Y_lam has integer coefficients (d their least
common denominator), so the Gram matrix is an integer one divided by d^2.  The inverse
of its Cholesky factor comes from substitution on the tableau axis, and no
matrix product, inverse or LAPACK call runs on the k^m axis.

Tableau convention: the tableau position p (1-based) is the tensor slot
``m - p``, so the right action of a tableau permutation on basis tensors is
an explicit slot permutation.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

from .tensoridx import (
    add,
    apply_compiled,
    compile_element,
    compose,
    group_sum,
    integer_form,
    inverse,
    scale,
)

#: partition tag -> (partition, tensor order)
PARTITIONS = {
    "21": ((2, 1), 3),
    "22": ((2, 2), 4),
    "311": ((3, 1, 1), 5),
}

#: the prefactor c of each operator's projector form c C_lam, by partition
#: tag: D1 = 3/2 C21(grad2), D2' = 6 C22(grad) and
#: D2'' = 10/3 C311(2 grad_E grad_D + grad_D grad_E); the package's one table
#: of them, which scales :func:`check_membership`'s residual too
PREFACTOR = {"21": 1.5, "22": 6.0, "311": 10.0 / 3.0}

# tableau data: 1-based position sets for row symmetrization and column
# antisymmetrization, plus the factor making the symmetrizer idempotent
_TABLEAU = {
    "21": ([(1, 2)], [(1, 3)], 3),
    "22": ([(1, 2), (3, 4)], [(1, 3), (2, 4)], 12),
    "311": ([(1, 2, 4)], [(1, 3, 5)], 20),
}

#: relative singular-value cutoff of every numeric rank in the package
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class WeylSpace:
    """A Weyl module: an orthonormal basis of the image of its projector.

    The projector itself is the Q[S_m] element :func:`projector_terms`, the
    product of :func:`projector_factors`, applied with :func:`apply_projector`.

    Attributes
    ----------
    k : int
        Number of vector variables.
    lam : str
        Partition tag, one of ``"21"``, ``"22"``, ``"311"``.
    m : int
        Tensor order (3, 4 or 5).
    basis : ndarray, shape (k**m, dim)
        Orthonormal columns spanning the image.
    dim : int
        Module dimension, the exact trace of the projector.
    """

    k: int
    lam: str
    m: int
    basis: np.ndarray
    dim: int


def _require(k, lam):
    if lam not in PARTITIONS:
        raise ValueError(f"unsupported partition tag {lam!r}")
    if k < 2:
        raise ValueError(f"need k >= 2 vector variables, got {k}")


@lru_cache(maxsize=None)
def projector_factors(lam):
    """The index-formula projector ``C_lam`` as its group-sum factors, a
    tuple of Q[S_m] elements whose product, left to right, is ``C_lam``.

    With S an unnormalized symmetric sum and A a normalized skew sum over the
    listed slots: ``C_21 = 2/3 S_12 . A_02``,
    ``C_22 = 1/6 S_23 . S_01 . (1 + M_BCDA) . A_13`` and
    ``C_311 = 3/10 S_134 . A_024``.  Each factor is its own transpose: a
    (signed) group sum is closed under inversion, with sign(g^-1) = sign(g),
    and M_BCDA = M_(2,3,0,1) is an involution.
    """
    if lam == "21":
        factors = (group_sum((1, 2), 3, scale=Fraction(2, 3)),
                   group_sum((0, 2), 3, signed=True, scale=Fraction(1, 2)))
    elif lam == "22":
        factors = (group_sum((2, 3), 4, scale=Fraction(1, 6)), group_sum((0, 1), 4),
                   {(0, 1, 2, 3): Fraction(1), (2, 3, 0, 1): Fraction(1)},
                   group_sum((1, 3), 4, signed=True, scale=Fraction(1, 2)))
    elif lam == "311":
        factors = (group_sum((1, 3, 4), 5, scale=Fraction(3, 10)),
                   group_sum((0, 2, 4), 5, signed=True, scale=Fraction(1, 6)))
    else:
        raise ValueError(f"unsupported partition tag {lam!r}")
    return tuple(MappingProxyType(x) for x in factors)


@lru_cache(maxsize=None)
def projector_terms(lam):
    """``C_lam`` as one element of Q[S_m]: the exact product of
    :func:`projector_factors`.  The certificates and traces read it; tensors
    go through the factors (:func:`apply_projector`)."""
    return MappingProxyType(reduce(compose, projector_factors(lam)))


@lru_cache(maxsize=None)
def _compiled_factors(lam):
    factors = projector_factors(lam)
    if any(x != {inverse(p): c for p, c in x.items()} for x in factors):
        raise ArithmeticError(f"a factor of C_{lam} is not its own transpose")
    return tuple(compile_element(x) for x in factors)


def apply_projector(lam, h):
    """Apply ``C_lam`` to `h`, whose leading m axes are the tensor axes: its
    factors from right to left, at 4 (``"21"``), 8 (``"22"``) or 12
    (``"311"``) transposes in all.

    Trailing axes are a batch: many tensors go through in one call.
    """
    for terms in reversed(_compiled_factors(lam)):
        h = apply_compiled(h, terms)
    return h


def apply_projector_transpose(lam, h):
    """Apply ``C_lam^T`` to `h`, as :func:`apply_projector` takes it.

    ``C_lam^T`` is the product of the factors' transposes in reverse order,
    and each factor is its own transpose, so the factors apply from left to
    right.
    """
    for terms in _compiled_factors(lam):
        h = apply_compiled(h, terms)
    return h


def projector_rank(k, lam):
    """Rank of ``C_lam`` on (C^k)^{(x) m}: its exact trace (it is idempotent)."""
    _require(k, lam)
    tr = evaluate(_trace(lam, "trace_c"), k)
    if tr.denominator != 1 or tr < 0:
        raise ArithmeticError(f"trace {tr} of an idempotent is not a rank")
    return int(tr)


def sv_rank(sv):
    """Numeric rank from decreasing singular values, one per stacked spectrum
    on the last axis: how many exceed :data:`RANK_RTOL` times the largest.
    A zero matrix and an empty spectrum have rank 0."""
    return (sv > RANK_RTOL * sv[..., :1]).sum(axis=-1)


def _semistandard(k, lam):
    """The semistandard tableaux of shape `lam` with entries < k, as basis
    tensor indices: shape (m, count), one column per tableau, row s holding
    the entry at position m - s.  Rows weakly increase, columns strictly."""
    rows, cols, _ = _TABLEAU[lam]
    m = PARTITIONS[lam][1]
    t = np.indices((k,) * m).reshape(m, -1)
    keep = np.ones(t.shape[1], dtype=bool)
    for sets, order in ((rows, np.less_equal), (cols, np.less)):
        for support in sets:
            for p, q in zip(support, support[1:]):
                keep &= order(t[m - p], t[m - q])
    return t[:, keep]


@lru_cache(maxsize=None)
def _gap(lam, identity):
    """Largest |coefficient| of left - right in Q[S_m] for the identity of
    `lam` named by an :func:`exact_checks` key: ``projector_idempotent``
    (C C = C), ``symmetrizer_idempotent`` (Y Y = Y), ``image_equality`` (C = Y,
    the one that costs no product)."""
    c, y = projector_terms(lam), young_terms(lam)
    if identity == "image_equality":
        left, right = c, y
    else:
        x = c if identity == "projector_idempotent" else y
        left, right = compose(x, x), x
    return max(map(abs, add(left, scale(right, -1)).values()), default=Fraction(0))


def _images(k, lam, tableaux):
    """The images ``d Y_lam e_T`` of the tableaux, d the least common
    denominator of Y's coefficients, as their nonzero integer entries sorted
    by row and then column: ``(rows, cols, values, d)``.

    Each term p of Y puts d c_p at row ``T o p^-1`` of T's column (``M_p e_T
    = e_{T o p^-1}``); for a fixed p distinct tableaux go to distinct rows,
    so a column holds at most len(Y) entries."""
    m, count = tableaux.shape
    terms, den = integer_form(young_terms(lam))
    perms = np.array([inverse(p) for p, _ in terms], dtype=np.intp)
    rows = (tableaux[perms] * (k ** np.arange(m - 1, -1, -1))[:, None]).sum(axis=1)
    keys, slot = np.unique((rows * count + np.arange(count)).ravel(), return_inverse=True)
    values = np.zeros(keys.size, dtype=np.int64)
    np.add.at(values, slot, np.repeat(np.array([a for _, a in terms], dtype=np.int64), count))
    keys, values = keys[values != 0], values[values != 0]
    return keys // count, keys % count, values, den


def _ranges(starts, sizes):
    """The index ranges ``starts[i] .. starts[i] + sizes[i] - 1``, concatenated:
    arrays (i, index), one pair per index."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    return owner, np.arange(owner.size) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)


def _gram(rows, cols, values, count):
    """The exact integer Gram matrix of the columns given by entries sorted by
    row: the sum of ``values[a] values[b]`` over the pairs (a, b) of entries
    that share a row, at (cols[a], cols[b])."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    sizes = np.diff(starts, append=rows.size)
    left, right = _ranges(np.repeat(starts, sizes), np.repeat(sizes, sizes))
    gram = np.zeros((count, count), dtype=np.int64)
    np.add.at(gram, (cols[left], cols[right]), values[left] * values[right])
    return gram


def _lower_inverse(chol):
    """L^-1 for a lower-triangular L, by forward substitution down L's
    columns in elementwise updates, with no BLAS or LAPACK call.  A column
    with no entry below the diagonal updates no other row, so its row is
    scaled with the others like it at the end."""
    inv = np.eye(len(chol))
    below = np.tril(chol, -1).any(axis=0)
    for j in np.flatnonzero(below):
        inv[j, :j + 1] /= chol[j, j]
        inv[j + 1:, :j + 1] -= chol[j + 1:, j, None] * inv[j, :j + 1]
    inv[~below] /= chol.diagonal()[~below, None]
    return inv


@lru_cache(maxsize=None)
def weyl_space(k, lam):
    """Build the Weyl module for partition `lam` over C^k.

    The basis is the classical one (Fulton, *Young Tableaux*, 1997, 8.1;
    Fulton-Harris, *Representation Theory*, Lecture 6): ``Y_lam e_T`` for
    the semistandard tableaux T of shape `lam` with entries < k,
    orthonormalised as ``[Y_lam e_T] L^-T``, L the Cholesky factor of their
    exact Gram matrix (:func:`_gram`, over Y's denominator squared) and
    L^-1 from substitution (:func:`_lower_inverse`); the basis is summed
    from the images' entries, with no matrix product on the k^m axis.  It
    is certified exactly: ``C_lam = Y_lam`` and ``C_lam^2 = C_lam`` in
    Q[S_m] make ``C_lam Y_lam = Y_lam``, which puts every column in the
    image of ``C_lam``, and the tableau count equals the exact trace rank.
    A failed certification, or a singular Gram matrix, raises
    ArithmeticError; dense arrays over the memory cap raise
    :class:`~diraclab.solver.ResourceLimitError`.
    """
    from .solver import _require_bytes  # solver imports this module
    for key, law in (("image_equality", "C != Y"), ("projector_idempotent", "C C != C")):
        if _gap(lam, key):
            raise ArithmeticError(f"{law} in Q[S_m] for lam={lam}")
    rank = projector_rank(k, lam)  # a rank, now that C is idempotent
    m = PARTITIONS[lam][1]
    # the basis, a basis' worth of headroom and the (m, k^m) tableau
    # candidates, 8 bytes each
    _require_bytes((2 * rank + m) * k**m * 8, f"Weyl module {lam} over C^{k}")
    tableaux = _semistandard(k, lam)
    count = tableaux.shape[1]
    if count != rank:
        raise ArithmeticError(f"{count} semistandard tableaux, trace rank {rank}")
    rows, cols, values, den = _images(k, lam, tableaux)
    try:
        chol = np.linalg.cholesky(_gram(rows, cols, values, count) / den**2)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"tableau images are dependent: {exc}") from None
    # G, and so L^-T, is block diagonal by tableau content: each image entry
    # (row, col, value) adds value times the few nonzeros of row col of
    # L^-T / d, in order of col, so rows equal or opposite in the images stay
    # so bit for bit
    w = _lower_inverse(chol).T / den
    wc, wj = np.nonzero(w)
    ptr = np.searchsorted(wc, np.arange(count + 1))
    entry, at = _ranges(ptr[cols], np.diff(ptr)[cols])
    basis = np.zeros((k**m, count))
    np.add.at(basis, (rows[entry], wj[at]), values[entry] * w[wc[at], wj[at]])
    basis.setflags(write=False)
    return WeylSpace(k=k, lam=lam, m=m, basis=basis, dim=rank)


@lru_cache(maxsize=None)
def young_terms(lam):
    """The normalized Young symmetrizer's right action as an element of Q[S_m].

    The column antisymmetrizer acts first, the row symmetrizer second, as in
    the defining right action on basis tensors: the product of the row sums
    composed with the product of the column sums, over the slots ``m - p`` of
    the tableau positions p, divided by the tableau factor n of ``_TABLEAU``.
    """
    if lam not in _TABLEAU:
        raise ValueError(f"unsupported partition tag {lam!r}")
    rows, cols, norm = _TABLEAU[lam]
    m = PARTITIONS[lam][1]

    def product(position_sets, signed):
        out = {tuple(range(m)): Fraction(1)}
        for support in position_sets:
            out = compose(out, group_sum([m - p for p in support], m, signed))
        return out

    y = compose(product(rows, False), product(cols, True))
    return MappingProxyType(scale(y, Fraction(1, norm)))


# ---------------------------------------------------------------------------
# traces of Q[S_m] elements on (C^k)^{(x) m}


def _cycles(p):
    seen = [False] * len(p)
    count = 0
    for start in range(len(p)):
        if not seen[start]:
            count += 1
            t = start
            while not seen[t]:
                seen[t] = True
                t = p[t]
    return count


def trace_polynomial(x):
    """Coefficients ``a_j`` with ``tr(sum_p c_p M_p) = sum_j a_j k^j``.

    ``M_p`` fixes exactly the basis tensors whose indices are constant on
    each cycle of ``p``, so its trace on (C^k)^{(x) m} is ``k^cycles(p)``.
    """
    m = max((len(p) for p in x), default=0)
    out = [Fraction(0)] * (m + 1)
    for p, c in x.items():
        out[_cycles(p)] += c
    return tuple(out)


@lru_cache(maxsize=None)
def _trace(lam, key):
    """:func:`trace_polynomial` of C (``trace_c``) or Y (``trace_y``) of `lam`."""
    return trace_polynomial((projector_terms if key == "trace_c" else young_terms)(lam))


def evaluate(poly, k):
    """Exact value at `k` of a polynomial given by its coefficients."""
    return sum((c * k**j for j, c in enumerate(poly)), Fraction(0))


def exact_checks(k, lam):
    """The Weyl-layer identities of `lam`, certified term by term in Q[S_m].

    Returns the gaps ``projector_idempotent``, ``symmetrizer_idempotent`` and
    ``image_equality``: the largest |coefficient| of ``C^2 - C``, of
    ``Y^2 - Y`` (Y the normalized Young symmetrizer) and of ``C - Y``, each
    0.0 exactly when its identity holds.  They do not depend on k, and each
    identity implies the operator identity on (C^k)^{(x) m} at every k; C = Y
    gives image(C) = image(Y).  Also returns the exact traces ``trace_c`` and
    ``trace_y`` on (C^k)^{(x) m} (the ranks, for idempotents).
    """
    _require(k, lam)
    out = {key: float(_gap(lam, key)) for key in
           ("projector_idempotent", "symmetrizer_idempotent", "image_equality")}
    for key in ("trace_c", "trace_y"):
        out[key] = evaluate(_trace(lam, key), k)
    return out


def check_membership(lam, h):
    """Characterization residual of each of a batch of tensors against the
    module `lam`.

    Parameters
    ----------
    lam : str
        Partition tag.
    h : ndarray
        ``(k,)*m`` tensor axes, optional further value axes, and a last axis
        that indexes independent tensors.

    Returns
    -------
    ndarray, shape (h.shape[-1],)
        Per tensor, c ||C_lam h - h||, c the operators' prefactor
        :data:`PREFACTOR`; at most ~1e-10 exactly when the tensor lies in the
        module.  For lam="21" the symmetry of the last two indices is
        included in the residual.
    """
    if lam not in PARTITIONS:
        raise ValueError(f"unsupported partition tag {lam!r}")
    m = PARTITIONS[lam][1]
    h = np.asarray(h)
    if h.ndim <= m or len(set(h.shape[:m])) != 1:
        raise ValueError(f"order mismatch: {lam} needs {m} equal tensor axes "
                         f"and a batch axis, got shape {h.shape}")

    def norms(x):
        return np.linalg.norm(x.reshape(-1, h.shape[-1]), axis=0)

    residual = PREFACTOR[lam] * norms(apply_projector(lam, h) - h)
    if lam == "21":
        residual = np.maximum(residual, norms(h - np.swapaxes(h, 1, 2)))
    return residual


def weyl_dim(k, lam):
    """Dimension of the GL(k) module for partition `lam` (product formula).

    Independent of the projector construction; serves as the rank oracle.
    """
    parts = list(PARTITIONS[lam][0]) if lam in PARTITIONS else list(lam)
    if len([p for p in parts if p > 0]) > k:
        return 0
    parts = parts + [0] * (k - len(parts))
    out = Fraction(1)
    for i in range(k):
        for j in range(i + 1, k):
            out *= Fraction(parts[i] - parts[j] + j - i, j - i)
    assert out.denominator == 1
    return int(out)
