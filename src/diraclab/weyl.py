"""GL(k) Weyl-module projectors and Young symmetrizers for the value spaces.

Three irreducible modules appear in the first segment of the complex, labeled
by the partitions (2,1), (2,2) and (3,1,1).  Each is realized inside a tensor
power of C^k in two independent ways:

* as the image of an index-formula projector ``C_lam`` written with
  skew-symmetrized brackets (:func:`projector_terms`), and
* as the image of the normalized Young symmetrizer ``Y_lam`` acting on basis
  tensors from the right (:func:`young_terms`).

Both are term lists, signed sums of at most 36 slot permutations, and the
term list is their only representation.  :func:`apply_projector` applies
``C_lam`` to tensors.  The identities between them (idempotency, equal
images, rank) are exact statements in the group algebra Q[S_m]: term lists
compose there (:func:`compose`), and traces and Frobenius norms on
(C^k)^{(x) m} are polynomials in k read off cycle counts
(:func:`trace_polynomial`, :func:`gram_polynomial`).  No (k^m, k^m) matrix is
formed.  :func:`weyl_dim`, the product formula, stays the independent rank
oracle.

Letter/slot convention, frozen throughout the package: tensor components are
written ``h[A,B,C]``, ``h[D,A,B,C]``, ``h[E,D,A,B,C]`` with the first axis
most significant under row-major flattening.  The tableau letters map to
group-algebra positions ``m, m-1, ..., 1`` from the left, so right actions on
basis tensors become explicit slot permutations.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .tensoridx import (
    apply_terms,
    combine_terms,
    perm_sign,
    relabel_sum,
    scale_terms,
    skew_bracket,
)

#: partition tag -> (partition, tensor order, output letters)
PARTITIONS = {
    "21": ((2, 1), 3, "ABC"),
    "22": ((2, 2), 4, "DABC"),
    "311": ((3, 1, 1), 5, "EDABC"),
}

# tableau data: 1-based position sets for row symmetrization and column
# antisymmetrization, plus the factor making the symmetrizer idempotent
_TABLEAU = {
    "21": ([(1, 2)], [(1, 3)], 3),
    "22": ([(1, 2), (3, 4)], [(1, 3), (2, 4)], 12),
    "311": ([(1, 2, 4)], [(1, 3, 5)], 20),
}

_RANK_RTOL = 1e-9  # relative singular-value cutoff, shared across the package
_SKETCH_OVERSAMPLE = 16  # extra sketch columns beyond the exact rank


@dataclass(frozen=True)
class TensorSpace:
    """Flattened tensor power (C^k)^{(x) m}, first index most significant."""

    k: int
    m: int

    @property
    def dim(self):
        return self.k**self.m

    def flatten(self, tensor):
        tensor = np.asarray(tensor)
        return tensor.reshape((self.dim,) + tensor.shape[self.m :])

    def unflatten(self, vec):
        vec = np.asarray(vec)
        return vec.reshape((self.k,) * self.m + vec.shape[1:])


@dataclass(frozen=True)
class WeylSpace:
    """A Weyl module: an orthonormal basis of the image of its projector.

    The projector itself is the term list :func:`projector_terms`, applied
    with :func:`apply_projector`.

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
def projector_terms(lam):
    """Signed-permutation expansion of the index-formula projector."""
    if lam == "21":
        base = skew_bracket("ABC", [0, 2])
        terms = scale_terms(relabel_sum(base, ("B", "C")), Fraction(2, 3))
    elif lam == "22":
        base = skew_bracket("DABC", [1, 3]) + skew_bracket("BCDA", [1, 3])
        terms = relabel_sum(base, ("A", "D"))
        terms = scale_terms(relabel_sum(terms, ("B", "C")), Fraction(1, 6))
    elif lam == "311":
        base = skew_bracket("EDABC", [0, 2, 4])
        terms = scale_terms(relabel_sum(base, ("D", "B", "C")), Fraction(3, 10))
    else:
        raise ValueError(f"unsupported partition tag {lam!r}")
    return tuple(combine_terms(terms))


def apply_projector(lam, h):
    """Apply ``C_lam`` to `h`, whose leading m axes are the tensor axes.

    Trailing axes are a batch: many tensors go through in one call.
    """
    return apply_terms(h, projector_terms(lam), PARTITIONS[lam][2])


def projector_rank(k, lam):
    """Rank of ``C_lam`` on (C^k)^{(x) m}: its exact trace (it is idempotent)."""
    _require(k, lam)
    tr = evaluate(trace_polynomial(_elements(lam)[0]), k)
    if tr.denominator != 1 or tr < 0:
        raise ArithmeticError(f"trace {tr} of an idempotent is not a rank")
    return int(tr)


@lru_cache(maxsize=None)
def weyl_space(k, lam):
    """Build the Weyl module for partition `lam` over C^k.

    The rank r is the exact trace of ``C_lam``.  The basis is the thin SVD of
    ``C_lam`` applied to a seeded Gaussian sketch of width r + 16; it raises
    if the sketch's numeric rank is not r, and certifies ``C_lam B = B``.
    """
    rank = projector_rank(k, lam)
    m = PARTITIONS[lam][1]
    size = k**m
    if rank == 0:
        basis = np.zeros((size, 0))
    else:
        rng = np.random.default_rng(0x5EED)  # fixed seed: bases are reproducible
        width = min(size, rank + _SKETCH_OVERSAMPLE)
        sketch = apply_projector(lam, rng.standard_normal((k,) * m + (width,)))
        u, s, _ = np.linalg.svd(sketch.reshape(size, width), full_matrices=False)
        found = int((s > _RANK_RTOL * s[0]).sum())
        if found != rank:
            raise ArithmeticError(
                f"sketch rank {found} disagrees with trace rank {rank}"
            )
        basis = np.ascontiguousarray(u[:, :rank])
        image = apply_projector(lam, basis.reshape((k,) * m + (rank,)))
        defect = np.abs(image.reshape(size, rank) - basis).max()
        if defect > 1e-8:
            raise ArithmeticError(f"image basis certification failed ({defect:.2e})")
    basis.setflags(write=False)
    return WeylSpace(k=k, lam=lam, m=m, basis=basis, dim=rank)


def projector_c21(k):
    return weyl_space(k, "21")


def projector_c22(k):
    return weyl_space(k, "22")


def projector_c311(k):
    return weyl_space(k, "311")


def _slot_map(sigma, m):
    # right action on basis tensors: the label at position p moves to
    # position sigma(p); slots count from the left, slot s <-> position m-s
    return tuple(m - sigma[m - t] for t in range(m))


def _group_terms(position_sets, m, signed):
    """Terms of the (anti)symmetrizer over products of position sets."""
    terms = [(1, tuple(range(m)))]
    for support in position_sets:
        elems = []
        for perm in itertools.permutations(support):
            sigma = {p: p for p in range(1, m + 1)}
            for a, b in zip(support, perm):
                sigma[a] = b
            sign = perm_sign([support.index(b) for b in perm]) if signed else 1
            elems.append((sign, _slot_map(sigma, m)))
        terms = [
            (c1 * c2, tuple(g1[g2[t]] for t in range(m)))
            for c1, g1 in terms
            for c2, g2 in elems
        ]
    return terms


@lru_cache(maxsize=None)
def young_terms(lam, normalized=True):
    """Signed-permutation expansion of the Young symmetrizer right action.

    The column antisymmetrizer acts first, the row symmetrizer second, as in
    the defining right action on basis tensors.
    """
    if lam not in _TABLEAU:
        raise ValueError(f"unsupported partition tag {lam!r}")
    rows, cols, norm = _TABLEAU[lam]
    m = PARTITIONS[lam][1]
    col_terms = _group_terms(cols, m, signed=True)
    row_terms = _group_terms(rows, m, signed=False)
    letters = PARTITIONS[lam][2]
    out = []
    for c_r, g_r in row_terms:
        for c_c, g_c in col_terms:
            g = tuple(g_r[g_c[t]] for t in range(m))
            coeff = Fraction(c_r * c_c, norm if normalized else 1)
            out.append((coeff, "".join(letters[p] for p in g)))
    return tuple(combine_terms(out))


# ---------------------------------------------------------------------------
# exact group-algebra arithmetic on term lists


def algebra_element(terms, letters):
    """A term list as an element of Q[S_m]: ``{slot permutation: Fraction}``.

    The term ``(c, sub)`` has the permutation ``p`` with ``p[s]`` the
    position of ``sub[s]`` in `letters`; it acts on tensors as
    ``(M_p h)[i_0, ..., i_{m-1}] = h[i_{p[0]}, ..., i_{p[m-1]}]``.
    """
    pos = {ch: i for i, ch in enumerate(letters)}
    out = {}
    for c, sub in terms:
        p = tuple(pos[ch] for ch in sub)
        out[p] = out.get(p, 0) + Fraction(c)
    return {p: c for p, c in out.items() if c}


def compose(x, y):
    """Product of group-algebra elements as operators: ``M_p M_q = M_{p o q}``."""
    out = {}
    for p, a in x.items():
        for q, b in y.items():
            r = tuple(p[t] for t in q)
            out[r] = out.get(r, 0) + a * b
    return {r: c for r, c in out.items() if c}


def _subtract(x, y):
    out = dict(x)
    for p, c in y.items():
        out[p] = out.get(p, 0) - c
    return {p: c for p, c in out.items() if c}


def _inverse(p):
    inv = [0] * len(p)
    for t, q in enumerate(p):
        inv[q] = t
    return tuple(inv)


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


def gram_polynomial(x):
    """Coefficients of ``||X||_F^2 = sum_{p,q} c_p c_q k^cycles(p^-1 q)``.

    This is the trace polynomial of ``X^T X``, since ``M_p^T = M_{p^-1}``.
    """
    adjoint = {_inverse(p): c for p, c in x.items()}
    return trace_polynomial(compose(adjoint, x))


def evaluate(poly, k):
    """Exact value at `k` of a polynomial given by its coefficients."""
    return sum((c * k**j for j, c in enumerate(poly)), Fraction(0))


@lru_cache(maxsize=None)
def _elements(lam):
    """``C_lam`` and the normalized ``Y_lam`` as group-algebra elements."""
    letters = PARTITIONS[lam][2]
    return (algebra_element(projector_terms(lam), letters),
            algebra_element(young_terms(lam), letters))


@lru_cache(maxsize=None)
def _identity_polynomials(lam):
    """k-independent data of the Weyl-layer identities of `lam`: polynomials
    in k, and the ratio n of ``Y_u^2 = n Y_u`` for the unnormalized Young
    symmetrizer (None if the square is not a multiple of ``Y_u``)."""
    c, y = _elements(lam)
    yu = algebra_element(young_terms(lam, normalized=False), PARTITIONS[lam][2])
    square = compose(yu, yu)
    ratios = {square.get(p, 0) / a for p, a in yu.items()}
    proportional = len(ratios) == 1 and set(square) <= set(yu)
    return {
        "young_ratio": ratios.pop() if proportional else None,
        "trace_c": trace_polynomial(c),
        "trace_y": trace_polynomial(y),
        "norm_c": gram_polynomial(c),
        "norm_y": gram_polynomial(y),
        "idem_c": gram_polynomial(_subtract(compose(c, c), c)),
        "idem_y": gram_polynomial(_subtract(compose(y, y), y)),
        "cy": gram_polynomial(_subtract(compose(c, y), y)),
        "yc": gram_polynomial(_subtract(compose(y, c), c)),
    }


def _relative(residual, norm, k):
    # ||R||_F / ||X||_F from squared norms; a zero operator has a zero residual
    den = evaluate(norm, k)
    return math.sqrt(evaluate(residual, k) / den) if den else 0.0


def exact_checks(k, lam):
    """The Weyl-layer identities of `lam` on (C^k)^{(x) m}, computed exactly.

    Returns the relative Frobenius residuals ``projector_idempotent``
    (``||C^2 - C|| / ||C||``), ``symmetrizer_idempotent`` (the same for the
    normalized Young symmetrizer Y) and ``image_equality`` (the larger of
    ``||CY - Y|| / ||Y||`` and ``||YC - C|| / ||C||``: ``CY = Y`` puts
    image(Y) inside image(C), ``YC = C`` the converse), each 0.0 when its
    identity holds exactly, and the exact traces ``trace_c`` and ``trace_y``
    (the ranks, for idempotents).
    """
    _require(k, lam)
    poly = _identity_polynomials(lam)
    return {
        "projector_idempotent": _relative(poly["idem_c"], poly["norm_c"], k),
        "symmetrizer_idempotent": _relative(poly["idem_y"], poly["norm_y"], k),
        "image_equality": max(_relative(poly["cy"], poly["norm_y"], k),
                              _relative(poly["yc"], poly["norm_c"], k)),
        "trace_c": evaluate(poly["trace_c"], k),
        "trace_y": evaluate(poly["trace_y"], k),
    }


def young_eigenvalue(k, lam):
    """Nonzero eigenvalue n of the unnormalized symmetrizer, ``Y_u^2 = n Y_u``.

    Read as the coefficient ratio of ``Y_u^2`` to ``Y_u`` in Q[S_m]; nan when
    ``Y_u`` is the zero operator on (C^k)^{(x) m} (k = 2 for (3,1,1)) or the
    ratio is not one number.
    """
    _require(k, lam)
    poly = _identity_polynomials(lam)
    if poly["young_ratio"] is None or not evaluate(poly["norm_y"], k):
        return float("nan")
    return float(poly["young_ratio"])


def check_membership(lam, h, k=None, rows=False):
    """Characterization residual of a tensor against the module `lam`.

    Parameters
    ----------
    lam : str
        Partition tag.
    h : ndarray
        Either tensor-shaped, ``(k,)*m`` plus optional trailing axes, or flat
        of length ``k**m`` (then `k` must be given or inferable).
    rows : bool
        If true, the last axis of `h` indexes independent tensors, and the
        result holds one residual per row.

    Returns
    -------
    float or ndarray
        Norm of (characterization left side) - (characterization right side);
        at most ~1e-10 exactly when h lies in the module.  For lam="21" the
        symmetry of the last two indices is included in the residual.
    """
    if lam not in PARTITIONS:
        raise ValueError(f"unsupported partition tag {lam!r}")
    _, m, _ = PARTITIONS[lam]
    h = np.asarray(h)
    if h.ndim >= m and len(set(h.shape[:m])) == 1:
        k = h.shape[0]
    elif k is not None:
        h = h.reshape((k,) * m + h.shape[1:])
    else:
        raise ValueError(f"tensor of order {m} expected, got shape {h.shape}")
    if h.shape[:m] != (k,) * m:
        raise ValueError(f"order mismatch: {lam} needs {m} tensor axes")
    width = h.shape[-1] if rows else 1

    def norms(x):
        return np.linalg.norm(x.reshape(-1, width), axis=0)

    # prefactor of the characterization display: 3/2 for (2,1), 1 for (2,2),
    # 10/3 for (3,1,1)
    prefactor = {"21": 1.5, "22": 1.0, "311": 10.0 / 3.0}[lam]
    residual = prefactor * norms(apply_projector(lam, h) - h)
    if lam == "21":
        residual = np.maximum(residual, norms(h - np.swapaxes(h, 1, 2)))
    return residual if rows else float(residual[0])


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
