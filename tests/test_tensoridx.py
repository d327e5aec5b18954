"""Pins the semantics of the signed index-permutation machinery."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import terms_matrix

from diraclab.tensoridx import (
    apply_terms,
    combine_terms,
    perm_sign,
    relabel_sum,
    skew_bracket,
)


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign((2, 1, 0)) == -1


def test_skew_bracket_two_slots():
    terms = dict((s, c) for c, s in skew_bracket("ABC", [0, 2]))
    assert terms == {"ABC": Fraction(1, 2), "CBA": Fraction(-1, 2)}


def test_relabel_sum_is_a_sum_not_average():
    base = [(Fraction(1), "ABC")]
    out = sorted((s, c) for c, s in relabel_sum(base, ("B", "C")))
    assert out == [("ABC", Fraction(1)), ("ACB", Fraction(1))]


def test_apply_terms_semantics():
    # result[a, b, c] = h[c, b, a] for the single term (1, "CBA")
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 3, 3))
    out = apply_terms(h, [(Fraction(1), "CBA")], "ABC")
    for idx in np.ndindex(3, 3, 3):
        assert out[idx] == h[idx[::-1]]


def test_apply_terms_batch_axis():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 2, 2, 5))
    out = apply_terms(h, [(Fraction(1), "BCA")], "ABC")
    # result[a, b, c, :] = h[b, c, a, :]
    assert np.array_equal(out[1, 0, 1], h[0, 1, 1])


@pytest.mark.parametrize("k", [2, 3])
def test_matrix_matches_apply(k):
    rng = np.random.default_rng(2)
    terms = combine_terms(
        skew_bracket("ABC", [0, 2]) + [(Fraction(1, 3), "BCA")]
    )
    h = rng.standard_normal((k, k, k))
    via_apply = apply_terms(h, terms, "ABC").reshape(-1)
    via_matrix = terms_matrix(terms, "ABC", k) @ h.reshape(-1)
    assert np.allclose(via_apply, via_matrix, atol=1e-14)
