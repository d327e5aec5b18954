"""Pins the semantics of Q[S_m] elements: signed sums of slot permutations."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import terms_matrix

from diraclab.tensoridx import (
    add,
    apply_compiled,
    compile_element,
    compose,
    group_sum,
    inverse,
    perm_sign,
    scale,
)


def _apply(x, h):
    return apply_compiled(h, compile_element(x))


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign((2, 1, 0)) == -1


def test_inverse():
    assert inverse((1, 2, 0)) == (2, 0, 1)
    for p in ((0, 1, 2), (2, 1, 0), (1, 2, 0), (3, 0, 2, 1)):
        assert compose({p: 1}, {inverse(p): 1}) == {tuple(range(len(p))): 1}


def test_apply_terms_semantics():
    # one permutation: (M_p h)[i_0, i_1, i_2] = h[i_{p[0]}, i_{p[1]}, i_{p[2]}]
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 3, 3))
    flip = _apply({(2, 1, 0): Fraction(1)}, h)
    cycle = _apply({(1, 2, 0): Fraction(1)}, h)
    for a, b, c in np.ndindex(3, 3, 3):
        assert flip[a, b, c] == h[c, b, a]
        assert cycle[a, b, c] == h[b, c, a]


def test_apply_terms_batch_axis():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 2, 2, 5))
    out = _apply({(1, 2, 0): Fraction(1)}, h)
    # result[a, b, c, :] = h[b, c, a, :]
    assert np.array_equal(out[1, 0, 1], h[0, 1, 1])
    for j in range(5):
        assert np.array_equal(out[..., j], _apply({(1, 2, 0): Fraction(1)}, h[..., j]))


def test_skew_bracket_two_slots():
    # the skew bracket h_[A|B|C] is the normalized skew sum over slots 0, 2
    assert group_sum((0, 2), 3, signed=True, scale=Fraction(1, 2)) == {
        (0, 1, 2): Fraction(1, 2), (2, 1, 0): Fraction(-1, 2)}
    skew = group_sum((0, 2, 4), 5, signed=True)
    assert len(skew) == 6
    assert skew[(2, 1, 4, 3, 0)] == 1  # a 3-cycle of slots 0, 2, 4
    assert skew[(4, 1, 2, 3, 0)] == -1  # the transposition of slots 0 and 4
    assert all(p[1] == 1 and p[3] == 3 for p in skew)


def test_relabel_sum_is_a_sum_not_average():
    # sum_{(B,C)} is the unnormalized symmetric sum over slots 1, 2
    assert group_sum((1, 2), 3) == {(0, 1, 2): 1, (0, 2, 1): 1}
    assert group_sum((1, 2), 3, scale=Fraction(2, 3)) == {
        (0, 1, 2): Fraction(2, 3), (0, 2, 1): Fraction(2, 3)}


def _pair():
    x = add(group_sum((0, 2), 3, signed=True, scale=Fraction(1, 2)),
            {(1, 2, 0): Fraction(1, 3)})
    y = add(group_sum((0, 1), 3), {(2, 0, 1): Fraction(-5, 7)})
    return x, y


@pytest.mark.parametrize("k", [2, 3])
def test_matrix_matches_apply(k):
    rng = np.random.default_rng(2)
    x, _ = _pair()
    h = rng.standard_normal((k, k, k))
    via_apply = _apply(x, h).reshape(-1)
    via_matrix = terms_matrix(x, k) @ h.reshape(-1)
    assert np.allclose(via_apply, via_matrix, atol=1e-14)


@pytest.mark.parametrize("k", [2, 3])
def test_compose_matches_dense_oracle(k):
    x, y = _pair()
    xm, ym = terms_matrix(x, k), terms_matrix(y, k)
    assert np.abs(terms_matrix(compose(x, y), k) - xm @ ym).max() <= 1e-14
    assert np.abs(terms_matrix(compose(y, x), k) - ym @ xm).max() <= 1e-14
    assert np.abs(terms_matrix(add(x, scale(y, -2)), k) - (xm - 2 * ym)).max() <= 1e-14
    # cancelling terms leave no zero coefficients behind
    assert add(x, scale(x, -1)) == {}
    assert scale(x, 0) == {}
