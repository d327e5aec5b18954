import numpy as np
import pytest

from diraclab import build_clifford, random_field
from diraclab.boundary import (
    HypersurfaceChart,
    apply_t,
    apply_z,
    apply_zt_commutator,
    defining_polynomial,
    flat_chart,
    pi1_kernel_check,
    restrict_and_test,
    restrict_to_chart,
    script_d0,
    tangential_fields,
    tilted_chart,
)
from diraclab.dirac_ops import monogenic_basis, nabla
from diraclab.fields import make_field

CONFIGS = [(2, 2), (2, 3), (3, 2), (3, 3)]
# dimension of the monogenic polynomials of degree <= 3 with values in S+
MONOGENIC_BASIS_SIZES = {(2, 2): 10, (2, 3): 60, (3, 2): 20, (3, 3): 130}


def charts_for(k, n):
    tilt = np.zeros((k, n))
    if n >= 2:
        tilt[0, 1] = 1.0
    tilt[1, 0] = 0.5
    return [flat_chart(k, n), tilted_chart(k, n, tilt)]


def test_chart_validation():
    with pytest.raises(ValueError):
        HypersurfaceChart(2, 2, np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        HypersurfaceChart(2, 2, np.zeros((3, 2)))
    chart = tilted_chart(2, 2)
    g = chart.grad_phi()
    assert g[0, 0] == 1.0 and g[0, 1] == -1.0


@pytest.mark.parametrize("k,n", CONFIGS)
def test_frame_annihilates_phi(k, n):
    rep = build_clifford(n)
    for chart in charts_for(k, n):
        for t in range(rep.s_dim):
            spin = np.zeros(rep.s_dim, dtype=complex)
            spin[t] = 1.0
            phi = defining_polynomial(chart, rep, spin)
            for mu in range(1, k):
                assert apply_z(chart, rep, mu, phi).norm() == 0.0
            assert apply_t(chart, rep, phi).norm() == 0.0


def test_flat_chart_z_equals_nabla(rng, reps):
    rep = reps[3]
    chart = flat_chart(2, 3)
    f = random_field(rng, 2, 3, "V0", rep, degree=3, nterms=5)
    diff = apply_z(chart, rep, 1, f) - nabla(1, f, rep)
    assert diff.norm() == 0.0


def test_tilted_coefficients_by_hand(reps):
    # rho = c x_{11}: the frame coefficient in front of d_{0j} must be
    # c * gamma_plus[j] and the own-block coefficient stays gamma_plus[j]
    rep = reps[2]
    c = 0.75
    tilt = np.zeros((2, 2))
    tilt[1, 0] = c
    chart = tilted_chart(2, 2, tilt)
    frame = tangential_fields(chart, rep)
    z1 = frame.z_coeffs[0]
    for j in range(2):
        assert np.allclose(z1[(1, j)], rep.gamma_plus[j])
        assert np.allclose(z1[(0, j)], c * rep.gamma_plus[j])


def test_frame_coefficients_match_operator(rng, reps):
    # the explicit coefficient dictionary is an independent differentiation
    # route; it must reproduce apply_z on random fields
    rep = reps[2]
    k, n = 3, 2
    chart = charts_for(k, n)[1]
    frame = tangential_fields(chart, rep)
    f = random_field(rng, k, n, "V0", rep, degree=3, nterms=6)
    from diraclab.boundary import dx

    for mu in range(1, k):
        acc = None
        for (bb, jj), mat in frame.z_coeffs[mu - 1].items():
            part = dx(bb, jj, f)
            term = make_field(
                k, n, "S-",
                {e: np.einsum("st,...t->...s", mat, v) for e, v in part.terms.items()},
                validate=False,
            )
            acc = term if acc is None else acc + term
        diff = acc - apply_z(chart, rep, mu, f)
        assert diff.norm() <= 1e-12 * max(f.norm(), 1.0)


def test_script_d0_constant_and_guard(rng, reps):
    rep = reps[2]
    chart = flat_chart(2, 2)
    const = make_field(2, 2, "V0", {(0, 0, 0, 0): np.array([1.0 + 0j])})
    first, second = script_d0(chart, rep, const)
    assert all(g.norm() == 0.0 for g in first + second)
    dep = make_field(2, 2, "V0", {(1, 0, 0, 0): np.array([1.0 + 0j])})
    with pytest.raises(ValueError):
        script_d0(chart, rep, dep)


@pytest.mark.parametrize("k,n", CONFIGS)
def test_monogenic_restrictions_are_tangentially_monogenic(k, n):
    rep = build_clifford(n)
    basis = monogenic_basis(rep, k, n, degree=3)
    assert len(basis) == MONOGENIC_BASIS_SIZES[(k, n)]
    for chart in charts_for(k, n):
        for f in basis:
            rpt = restrict_and_test(f, chart, rep)
            assert rpt["pass"], rpt


def test_restrict_and_test_rejects_non_monogenic(rng, reps):
    rep = reps[2]
    f = random_field(rng, 2, 2, "V0", rep, degree=2, nterms=5)
    # a generic field is not monogenic
    with pytest.raises(ValueError, match="not monogenic"):
        restrict_and_test(f, flat_chart(2, 2), rep)


def test_restriction_substitutes_defining_variable(reps):
    rep = reps[2]
    chart = tilted_chart(2, 2)
    # f = x_{01}^2 s restricted on x_{01} = x_{02} becomes x_{02}^2 s
    s = np.array([1.0 + 0j])
    f = make_field(2, 2, "V0", {(2, 0, 0, 0): s})
    g = restrict_to_chart(f, chart)
    assert set(g.terms) == {(0, 2, 0, 0)}
    assert np.allclose(g.terms[(0, 2, 0, 0)], s)


@pytest.mark.parametrize("k,n", CONFIGS)
def test_pi1_kernel_property(k, n, rng):
    rep = build_clifford(n)
    for chart in charts_for(k, n):
        for _ in range(5):
            F = random_field(rng, k, n, "V0", rep, degree=3, nterms=5)
            Fp = random_field(rng, k, n, "V0", rep, degree=3, nterms=5)
            scale = max(F.norm() + Fp.norm(), 1e-30)
            assert pi1_kernel_check(chart, rep, F, Fp) <= 1e-10 * scale
        zero = make_field(k, n, "V0", {})
        assert pi1_kernel_check(chart, rep, zero, zero) == 0.0


def test_commutator_identities(rng, reps):
    rep = reps[2]
    k, n = 2, 2
    chart = charts_for(k, n)[1]
    # operator identity Z T - T Z = [Z, T] on arbitrary fields
    f = random_field(rng, k, n, "V0", rep, degree=3, nterms=6)
    direct = apply_z(chart, rep, 1, apply_t(chart, rep, f)) - apply_t(
        chart, rep, apply_z(chart, rep, 1, f)
    )
    assert (direct - apply_zt_commutator(chart, rep, 1, f)).norm() == 0.0
    # on tangentially monogenic data the commutator vanishes along with Z
    for g in monogenic_basis(rep, k, n, degree=2)[:6]:
        ghat = restrict_to_chart(g, chart)
        assert apply_zt_commutator(chart, rep, 1, ghat).norm() <= 1e-12 * max(
            ghat.norm(), 1.0
        )


def test_restriction_agrees_with_pointwise_evaluation(rng, reps):
    # independent oracle: substituting the defining variable commutes with
    # evaluating at points lying on the chart
    from diraclab.fields import evaluate
    from diraclab import random_field

    rep = reps[2]
    k, n = 2, 2
    chart = tilted_chart(k, n, np.array([[0.0, 0.7], [0.3, -0.4]]))
    f = random_field(rng, k, n, "V0", rep, degree=3, nterms=6)
    g = restrict_to_chart(f, chart)
    for _ in range(5):
        x = rng.standard_normal(k * n)
        x[0] = float((chart.rho_coeffs.reshape(-1) * x).sum())  # on the chart
        assert np.abs(evaluate(f, x) - evaluate(g, x)).max() <= 1e-12
