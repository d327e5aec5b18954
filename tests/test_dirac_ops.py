import numpy as np
import pytest

from diraclab import build_clifford, dirac_ops, random_field
from diraclab.dirac_ops import (
    d0,
    d0_star,
    d1,
    d1_projector,
    d1_star,
    d2p,
    d2p_projector,
    d2pp,
    d2pp_projector,
    delta_op,
    laplacian,
    monogenic_basis,
    nabla,
)
from diraclab.fields import PolyField, make_field, zero_field

CONFIGS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]


def rel(x, ref):
    return x / max(ref, 1e-300)


def test_nabla_constant_is_zero(reps):
    rep = reps[2]
    f = make_field(2, 2, "V0", {(0, 0, 0, 0): np.array([1.0 + 0j])})
    assert nabla(0, f, rep).norm() == 0.0


def test_nabla_linear_monomial_by_hand(reps):
    # f = x_{A,1} s  ->  nabla_A f = gamma_1 s, a constant field
    rep = reps[3]
    s = np.array([1.0, 2.0j])
    for A in range(2):
        e = [0] * 6
        e[A * 3] = 1
        f = make_field(2, 3, "V0", {tuple(e): s})
        g = nabla(A, f, rep)
        assert set(g.terms) == {(0,) * 6}
        assert np.allclose(g.terms[(0,) * 6], rep.gamma_plus[0] @ s)


def test_nabla_index_range(reps):
    f = zero_field(2, 2, "V0")
    with pytest.raises(ValueError):
        nabla(2, f, reps[2])


def test_delta_commutes_with_nabla(reps, rng):
    rep = reps[2]
    for _ in range(5):
        f = random_field(rng, 3, 2, "V0", rep, degree=3, nterms=5)
        a, b, c = rng.integers(0, 3, size=3)
        lhs = delta_op(b, c, nabla(a, f, rep), rep)
        rhs = nabla(a, delta_op(b, c, f, rep), rep)
        assert rel((lhs - rhs).norm(), f.norm()) <= 1e-12


@pytest.mark.parametrize("k,n", CONFIGS)
def test_complex_property(k, n, rng):
    rep = build_clifford(n)
    for _ in range(5):
        f = random_field(rng, k, n, "V0", rep, degree=4, nterms=6)
        assert rel(d1(d0(f, rep), rep).norm(), f.norm()) <= 1e-9
        F = random_field(rng, k, n, "V1", rep, degree=4, nterms=6)
        h = d1(F, rep)
        assert rel(h.membership_residual(), h.norm()) <= 1e-10
        if k >= 3:
            assert rel(d2p(h, rep).norm(), F.norm()) <= 1e-9
            assert rel(d2pp(h, rep).norm(), F.norm()) <= 1e-9


@pytest.mark.parametrize("k,n", [(3, 2), (3, 3), (4, 2)])
def test_direct_vs_projector_forms(k, n, rng):
    rep = build_clifford(n)
    for _ in range(4):
        F = random_field(rng, k, n, "V1", rep, degree=3, nterms=5)
        a, b = d1(F, rep), d1_projector(F, rep)
        assert rel((a - b).norm(), a.norm()) <= 1e-10
        h = random_field(rng, k, n, "V2", rep, degree=2, nterms=5)
        a, b = d2p(h, rep), d2p_projector(h, rep)
        assert rel((a - b).norm(), a.norm()) <= 1e-10
        a, b = d2pp(h, rep), d2pp_projector(h, rep)
        assert rel((a - b).norm(), a.norm()) <= 1e-10
        assert rel(a.membership_residual(), a.norm()) <= 1e-10


def test_second_order_kills_constants(reps):
    rep = reps[2]
    const = make_field(3, 2, "V1", {(0,) * 6: np.ones((3, 1), dtype=complex)})
    assert d1(const, rep).norm() == 0.0


def test_first_order_branch_kills_constants(reps, rng):
    # both routes agree (trivially, at zero) on constant inputs
    rep = reps[2]
    h = random_field(rng, 3, 2, "V2", rep, degree=0, nterms=2)
    assert d2p(h, rep).norm() == 0.0
    assert d2p_projector(h, rep).norm() == 0.0


def test_adjoint_composition_is_laplacian(reps, rng):
    rep = reps[2]
    for _ in range(5):
        f = random_field(rng, 2, 2, "V0", rep, degree=2, nterms=5)
        lhs = d0_star(d0(f, rep), rep)
        rhs = laplacian(f, rep)
        assert rel((lhs - rhs).norm(), f.norm()) <= 1e-12


def test_zero_inputs(reps):
    rep = reps[2]
    assert d0_star(zero_field(2, 2, "V1"), rep).norm() == 0.0
    assert d1_star(zero_field(2, 2, "V2"), rep).norm() == 0.0


def test_space_guards(reps, rng):
    rep = reps[2]
    F = random_field(rng, 3, 2, "V1", rep, degree=2, nterms=3)
    with pytest.raises(ValueError):
        d0(F, rep)
    f = random_field(rng, 3, 2, "V0", rep, degree=2, nterms=3)
    with pytest.raises(ValueError):
        d1(f, rep)
    with pytest.raises(ValueError):
        d2p(F, rep)
    h2 = random_field(rng, 2, 2, "V2", rep, degree=2, nterms=3)
    with pytest.raises(ValueError):
        d2p(h2, rep)  # order-5 branch needs k >= 3


def test_monogenic_basis_members_are_monogenic(reps):
    rep = reps[3]
    basis = monogenic_basis(rep, 2, 3, degree=2)
    assert len(basis) > 0
    for f in basis:
        assert d0(f, rep).norm() <= 1e-9 * max(f.norm(), 1.0)


def test_membership_validation_rejects_bad_tensors(reps, rng):
    raw = rng.standard_normal((3, 3, 3, 1)) + 0j
    with pytest.raises(ValueError):
        make_field(3, 2, "V2", {(0,) * 6: raw})


def test_field_algebra(reps, rng):
    rep = reps[2]
    f = random_field(rng, 2, 2, "V0", rep, degree=3, nterms=4)
    g = random_field(rng, 2, 2, "V0", rep, degree=3, nterms=4)
    assert ((f + g) - g - f).norm() <= 1e-12 * (f.norm() + g.norm())
    assert (f.scale(2.0) - f - f).norm() == 0.0
    assert f.degree() <= 3


def assert_canonical(f):
    # rows unique and in lexicographic order, no all-zero coefficient row
    assert np.array_equal(f.expo, np.unique(f.expo, axis=0))
    assert f.expo.dtype == np.int64 and f.expo.shape == (len(f), f.k * f.n)
    assert np.abs(f.vals).reshape(len(f), -1).max(axis=1).min(initial=np.inf) > 0


def test_canonical_form(reps, rng):
    rep = reps[3]
    f = random_field(rng, 3, 3, "V1", rep, degree=4, nterms=8)
    g = random_field(rng, 3, 3, "V1", rep, degree=4, nterms=8)
    h = d1(f, rep)
    for fld in (f, g, f + g, f - g, h, d1_projector(f, rep), nabla(1, d0_star(f, rep), rep)):
        assert len(fld) > 0
        assert_canonical(fld)
    assert h.vals.shape == (len(h), 3, 3, 3, rep.s_dim)
    assert (f - f).terms == {}
    assert len(f - f) == 0 and (f - f).norm() == 0.0
    # terms round-trips through make_field
    back = make_field(3, 3, "V1", f.terms)
    assert np.array_equal(back.expo, f.expo) and np.array_equal(back.vals, f.vals)


def test_constructor_sums_duplicates_and_drops_zeros():
    one = np.array([1.0 + 0j])
    f = make_field(2, 2, "V0", {(1, 0, 0, 0): np.zeros(1), (0, 0, 0, 0): one})
    assert set(f.terms) == {(0, 0, 0, 0)}
    expo = [(0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    vals = [one, 2 * one, -one, 3 * one]
    g = PolyField(2, 2, "V0", expo, vals)
    assert_canonical(g)
    assert set(g.terms) == {(1, 0, 0, 0)}
    assert np.array_equal(g.terms[(1, 0, 0, 0)], 5 * one)
