"""Pins the semantics of Q[S_m] elements: signed sums of slot permutations."""

from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from conftest import compose_reference, terms_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import weyl
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


_ELEMENT3 = st.dictionaries(
    st.permutations(range(3)).map(tuple),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 12)),
    max_size=6,
)


def _same(got, want):
    # the same keys in the same insertion order, with equal Fractions
    assert list(got) == list(want)
    assert all(type(c) is Fraction and c == want[r] for r, c in got.items())


@settings(max_examples=60, deadline=None)
@given(_ELEMENT3, _ELEMENT3)
def test_compose_matches_fraction_loop(x, y):
    # integer numerators over a common denominator sum to the Fraction loop's
    # values, keyed in its order, cancellations included
    _same(compose(x, y), compose_reference(x, y))
    _same(compose(x, scale(x, -1)), compose_reference(x, scale(x, -1)))


@pytest.mark.parametrize("lam", ["21", "22", "311"])
def test_projector_products_match_fraction_loop(lam):
    # every product of two of C_lam's factors, their running products (which
    # end in C_lam) and Y_lam, in either order
    factors = weyl.projector_factors(lam)
    elements = (*factors, *accumulate(factors, compose), weyl.young_terms(lam))
    for x, y in product(elements, repeat=2):
        _same(compose(x, y), compose_reference(x, y))
