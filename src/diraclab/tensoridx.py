"""Signed sums of slot permutations: elements of the group algebra Q[S_m].

Every projector and symmetrizer in this package is a finite signed sum of
permutations of tensor slots.  Such a sum has one representation, a mapping
``{p: Fraction}`` from permutations ``p`` of ``0..m-1`` (tuples) to nonzero
rational coefficients.  The permutation ``p`` acts on tensors as

    ``(M_p h)[i_0, ..., i_{m-1}, ...] = h[i_{p[0]}, ..., i_{p[m-1]}, ...]``

where the leading m axes are the tensor slots, the first most significant
under row-major flattening, and trailing axes are a batch (e.g. a spinor
axis).  In the index notation of the paper, with tensor components written
``h[A,B,C]``, ``h[D,A,B,C]`` or ``h[E,D,A,B,C]``, the letter at slot ``s`` of
the output is the letter at slot ``p[s]`` of the input: ``M_p`` with
``p = (2, 1, 0)`` sends ``h`` to ``h[C,B,A]``.

Elements multiply as operators, ``M_p M_q = M_{p o q}`` (:func:`compose`),
in integers: the products of the operands' numerators over their common
denominators are summed exactly, and each sum becomes one Fraction at the
end.  No (k^m, k^m) matrix is ever formed: :func:`compile_element` groups an
element's terms by |coefficient| once, and :func:`apply_compiled` applies
them to tensors, one signed sum of transposes per group and one multiply per
group.  A product of elements is applied factor by factor (see
:func:`~diraclab.weyl.apply_projector`), which costs the sum of the factors'
term counts rather than the product's.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def perm_sign(perm):
    """Sign of a permutation given as a sequence of 0..p-1."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def inverse(p):
    """The inverse permutation: ``inverse(p)[p[t]] = t``."""
    inv = [0] * len(p)
    for t, q in enumerate(p):
        inv[q] = t
    return tuple(inv)


def group_sum(slots, m, signed=False, scale=1):
    """``scale * sum_g (sign g) M_g`` over the permutations g of `slots`.

    Each g permutes the given slots among themselves and fixes the other
    slots of an order-m tensor; the sign is taken only if `signed`.  The
    terms follow ``itertools.permutations`` of the slots in the given order.
    """
    out = {}
    for perm in itertools.permutations(range(len(slots))):
        p = list(range(m))
        for dst, src in zip(slots, perm):
            p[dst] = slots[src]
        out[tuple(p)] = Fraction(scale) * (perm_sign(perm) if signed else 1)
    return out


def integer_form(x):
    """``([(p, a_p), ...], d)`` with ``x = sum_p (a_p / d) M_p``: the
    coefficients as integers over their least common denominator d."""
    den = math.lcm(*(c.denominator for c in x.values()))
    return [(p, c.numerator * (den // c.denominator)) for p, c in x.items()], den


def compose(x, y):
    """Product of elements as operators: ``M_p M_q = M_{p o q}``.

    The products are summed as integer numerators over the operands' common
    denominator, in the order of the terms, so each distinct ``p o q`` is
    keyed where it first appears and the result's Fractions are exact."""
    xs, dx = integer_form(x)
    ys, dy = integer_form(y)
    out = {}
    for p, a in xs:
        at = p.__getitem__
        for q, b in ys:
            r = tuple(map(at, q))
            out[r] = out.get(r, 0) + a * b
    den = dx * dy
    return {r: Fraction(c, den) for r, c in out.items() if c}


def add(x, y):
    """Sum of two elements."""
    out = dict(x)
    for p, c in y.items():
        out[p] = out.get(p, 0) + c
    return {p: c for p, c in out.items() if c}


def scale(x, factor):
    """The element `x` times a rational `factor`."""
    factor = Fraction(factor)
    return {p: c * factor for p, c in x.items()} if factor else {}


def compile_element(x):
    """``(|coeff|, ((sign, transpose axes), ...))`` per distinct |coefficient|
    of `x`, in order of first appearance, for :func:`apply_compiled`.

    ``np.transpose(h, inverse(p))`` is ``M_p h`` on the leading m axes.
    """
    groups = {}
    for p, c in x.items():
        groups.setdefault(abs(c), []).append((1 if c > 0 else -1, inverse(p)))
    return tuple((float(mag), tuple(terms)) for mag, terms in groups.items())


def apply_compiled(h, terms):
    """Apply compiled terms to `h`, whose leading m axes are the tensor slots.

    Per group, the signed transposes of `h` add into one buffer, which is
    multiplied once by the group's |coefficient|; no per-term temporary is
    made.  Axes past the first m are carried along unchanged, so a batch of
    tensors goes through in one call with its batch axes trailing.
    """
    dtype = np.result_type(h.dtype, np.float64)
    out = None
    for mag, signed in terms:
        buf = np.zeros_like(h, dtype=dtype)  # the memory layout of h
        for sign, axes in signed:
            view = np.transpose(h, axes + tuple(range(len(axes), h.ndim)))
            (np.add if sign > 0 else np.subtract)(buf, view, out=buf)
        if mag != 1.0:
            buf *= mag
        out = buf if out is None else np.add(out, buf, out=out)
    return np.zeros_like(h, dtype=dtype) if out is None else out
