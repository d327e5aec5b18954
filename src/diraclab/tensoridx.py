"""Signed sums of index permutations on small dense tensors.

Every projector and operator formula in this package is a finite signed sum
of index permutations.  A sum is represented as a list of ``(coeff, sub)``
pairs, where ``sub`` is a subscript string over some fixed output letters,
e.g. with output letters ``"ABC"`` the pair ``(-1/3, "CBA")`` contributes
``-1/3 * h[C, B, A]`` to ``result[A, B, C]``.

Tensors are laid out with one axis per letter, in output-letter order, the
first letter most significant under row-major flattening.  Trailing axes are
treated as a batch (e.g. a spinor axis).

The term list is the only representation of such an operator: no
(k^m, k^m) matrix is ever formed.  :func:`apply_terms` applies a list to
tensors, and ``weyl`` composes lists exactly in the group algebra Q[S_m].
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

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


def skew_bracket(sub, slots):
    """Skew-symmetrize the letters at the given slots of a subscript.

    Returns the term list of ``h_[...]`` with the ``1/p!`` normalization,
    leaving the letters at all other slots fixed.
    """
    letters = [sub[i] for i in slots]
    p = len(slots)
    terms = []
    for perm in itertools.permutations(range(p)):
        s = list(sub)
        for dst, src in zip(slots, perm):
            s[dst] = letters[src]
        terms.append((Fraction(perm_sign(perm), math.factorial(p)), "".join(s)))
    return terms


def relabel_sum(terms, letters):
    """Sum a term list over all permutations of a group of letters.

    This realizes sums like ``sum_{(B,C)}`` : each permutation relabels every
    occurrence of the group letters, and the copies are added (not averaged).
    """
    out = []
    for perm in itertools.permutations(letters):
        table = dict(zip(letters, perm))
        for c, sub in terms:
            out.append((c, "".join(table.get(ch, ch) for ch in sub)))
    return out


def scale_terms(terms, factor):
    factor = Fraction(factor)
    return [(c * factor, s) for c, s in terms]


def combine_terms(terms):
    acc = {}
    for c, sub in terms:
        acc[sub] = acc.get(sub, Fraction(0)) + c
    return [(c, sub) for sub, c in acc.items() if c != 0]


@lru_cache(maxsize=None)
def _axis_orders(terms, letters):
    """(float coefficient, axis order) per term, converted once per term list."""
    pos = {ch: i for i, ch in enumerate(letters)}
    return tuple(
        (float(c), tuple(int(a) for a in np.argsort([pos[ch] for ch in sub])))
        for c, sub in terms
    )


def apply_terms(arr, terms, letters):
    """Apply a term list to an ndarray whose leading axes follow `letters`.

    ``result[i_0, ..., i_{m-1}, ...] = sum_t c_t * arr[i_{p_0}, ..., i_{p_{m-1}}, ...]``
    with ``p_s`` the output position of the s-th subscript letter.  Axes past
    the first ``len(letters)`` are carried along unchanged, so a batch of
    tensors goes through in one call with its batch axes trailing.
    """
    batch = tuple(range(len(letters), arr.ndim))
    out = np.zeros_like(arr, dtype=np.result_type(arr.dtype, np.float64))
    for c, axes in _axis_orders(tuple(terms), letters):
        out += c * np.transpose(arr, axes + batch)
    return out
