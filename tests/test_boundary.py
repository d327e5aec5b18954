import numpy as np
import pytest

from diraclab import boundary, build_clifford
from diraclab.boundary import (
    HypersurfaceChart,
    defining_polynomial,
    flat_chart,
    pi1_kernel_check,
    restrict_and_test,
    restrict_to_chart,
    script_d0,
    tangential_frame,
    tilted_chart,
)
from diraclab.dirac_ops import monogenic_basis, nabla
from diraclab.fields import member_norms

from conftest import (apply_t, apply_z, apply_zt_commutator, dense, evaluate, make_field,
                      members, random_field, tangential_z_coeffs, terms)

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


def phi_times_spinor(chart, spinor):
    """Oracle: phi * spinor through a terms dict, phi = x_{01} - rho."""
    k, n = chart.k, chart.n
    e01 = (1,) + (0,) * (k * n - 1)
    coeffs = {e01: np.asarray(spinor, dtype=complex)}
    for A, j in zip(*np.nonzero(chart.rho_coeffs)):
        e = tuple(int(i == A * n + j) for i in range(k * n))
        coeffs[e] = coeffs.get(e, 0) - chart.rho_coeffs[A, j] * coeffs[e01]
    return make_field(k, n, "V0", coeffs, validate=False)


@pytest.mark.parametrize("k,n", CONFIGS)
def test_frame_annihilates_phi(k, n):
    # member t of the phi stack is phi e_t bit for bit, and the frame kills
    # every member, in one stacked call and member by member
    rep = build_clifford(n)
    for chart in charts_for(k, n):
        phi = defining_polynomial(chart, rep)
        assert phi.space == "V0" and phi.vals.shape == (len(phi), rep.s_dim, rep.s_dim)
        tf, zs = tangential_frame(chart, rep, phi)
        for z in zs:
            assert not member_norms(z).any()
        assert not member_norms(tf).any()
        for t, g in enumerate(members(phi)):
            ref = phi_times_spinor(chart, np.eye(rep.s_dim)[t])
            assert np.array_equal(g.expo, ref.expo) and g.vals.tobytes() == ref.vals.tobytes()
            tg, zg = tangential_frame(chart, rep, g)
            for z in zg:
                assert z.norm() == 0.0
            assert tg.norm() == 0.0


def test_flat_chart_z_equals_nabla(rng, reps):
    rep = reps[3]
    chart = flat_chart(2, 3)
    f = random_field(rng, 2, 3, "V0", degree=3, nterms=5)
    diff = tangential_frame(chart, rep, f)[1][0] - nabla(1, f, rep)
    assert diff.norm() == 0.0


def test_tilted_coefficients_by_hand(reps):
    # rho = c x_{11}: the frame coefficient in front of d_{0j} must be
    # c * gamma_plus[j] and the own-block coefficient stays gamma_plus[j]
    rep = reps[2]
    c = 0.75
    tilt = np.zeros((2, 2))
    tilt[1, 0] = c
    chart = tilted_chart(2, 2, tilt)
    z1 = tangential_z_coeffs(chart, rep)[0]
    for j in range(2):
        assert np.allclose(z1[(1, j)], rep.gamma_plus[j])
        assert np.allclose(z1[(0, j)], c * rep.gamma_plus[j])


def test_frame_coefficients_match_operator(rng, reps):
    # the explicit coefficient dictionary is an independent differentiation
    # route; it must reproduce the frame's Z_mu on random fields
    rep = reps[2]
    k, n = 3, 2
    chart = charts_for(k, n)[1]
    z_coeffs = tangential_z_coeffs(chart, rep)
    f = random_field(rng, k, n, "V0", degree=3, nterms=6)
    from diraclab.boundary import dx

    zs = tangential_frame(chart, rep, f)[1]
    for mu in range(1, k):
        acc = None
        for (bb, jj), mat in z_coeffs[mu - 1].items():
            part = dx(bb, jj, f)
            term = make_field(
                k, n, "S-",
                {e: np.einsum("st,...t->...s", mat, v) for e, v in terms(part).items()},
                validate=False,
            )
            acc = term if acc is None else acc + term
        diff = acc - zs[mu - 1]
        assert diff.norm() <= 1e-12 * max(f.norm(), 1.0)


@pytest.mark.parametrize("k,n", CONFIGS)
def test_tangential_frame_matches_factor_route(k, n, rng):
    # T and every Z_mu on S+ and S- stacks equal, bit for bit, the separate
    # operators that build each factor from a one-row Dirac symbol
    rep = build_clifford(n)
    plus = dense([random_field(rng, k, n, "V0", degree=3, nterms=5) for _ in range(3)])
    for chart in charts_for(k, n):
        for f in (plus, nabla(1, plus, rep)):
            tf, zs = tangential_frame(chart, rep, f)
            want = [apply_t(chart, rep, f)] + [apply_z(chart, rep, mu, f) for mu in range(1, k)]
            assert len(zs) == k - 1
            for got, ref in zip((tf,) + zs, want):
                assert got.space == ref.space and np.array_equal(got.expo, ref.expo)
                assert got.vals.tobytes() == ref.vals.tobytes()


def test_script_d0_reads_nabla0_and_symbol_twice(rng, monkeypatch):
    # one tangential_frame call on fhat and one on T fhat: nabla_0 and the
    # Dirac symbol once each per call, nabla_1 and nabla_2 once each per call
    k, n = 3, 2
    rep = build_clifford(n)
    chart = charts_for(k, n)[1]
    fhat = restrict_to_chart(random_field(rng, k, n, "V0", degree=3, nterms=5), chart)
    calls = {"nabla": [], "dirac_symbol": 0}
    real_nabla, real_symbol = boundary.nabla, boundary.dirac_symbol

    def counted_nabla(A, f, rep):
        calls["nabla"].append(A)
        return real_nabla(A, f, rep)

    def counted_symbol(rep, xi):
        calls["dirac_symbol"] += 1
        return real_symbol(rep, xi)

    monkeypatch.setattr(boundary, "nabla", counted_nabla)
    monkeypatch.setattr(boundary, "dirac_symbol", counted_symbol)
    first, second = script_d0(chart, rep, fhat)
    assert len(first) == len(second) == k - 1
    assert calls["nabla"].count(0) == 2 and len(calls["nabla"]) == 2 * k
    assert calls["dirac_symbol"] == 2


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
    assert basis.vals.shape[1] == MONOGENIC_BASIS_SIZES[(k, n)]
    for chart in charts_for(k, n):
        rpt = restrict_and_test(basis, chart, rep)
        worst = np.maximum(rpt["z_residual"], rpt["zt_residual"])
        assert (worst <= 1e-10 * np.maximum(rpt["input_norm"], 1.0)).all(), rpt


def test_restrict_and_test_rejects_non_monogenic(rng, reps):
    rep = reps[2]
    f = random_field(rng, 2, 2, "V0", degree=2, nterms=5)
    # a generic field is not monogenic
    with pytest.raises(ValueError, match="not monogenic"):
        restrict_and_test(dense([f]), flat_chart(2, 2), rep)
    # in a stack, the error names the first failing member
    basis = members(monogenic_basis(rep, 2, 2, degree=2))
    with pytest.raises(ValueError, match="member 2 is not monogenic"):
        restrict_and_test(dense(basis[:2] + [f] + basis[2:] + [f]), flat_chart(2, 2), rep)


def test_restriction_substitutes_defining_variable(reps):
    rep = reps[2]
    chart = tilted_chart(2, 2)
    # f = x_{01}^2 s restricted on x_{01} = x_{02} becomes x_{02}^2 s
    s = np.array([1.0 + 0j])
    f = make_field(2, 2, "V0", {(2, 0, 0, 0): s})
    g = restrict_to_chart(f, chart)
    assert set(terms(g)) == {(0, 2, 0, 0)}
    assert np.allclose(terms(g)[(0, 2, 0, 0)], s)


@pytest.mark.parametrize("k,n", CONFIGS)
def test_pi1_kernel_property(k, n, rng):
    rep = build_clifford(n)
    for chart in charts_for(k, n):
        draws = [random_field(rng, k, n, "V0", degree=3, nterms=5) for _ in range(10)]
        Fs, Fps = draws[0::2], draws[1::2]
        scale = np.maximum([F.norm() + Fp.norm() for F, Fp in zip(Fs, Fps)], 1e-30)
        assert (pi1_kernel_check(chart, rep, dense(Fs), dense(Fps)) <= 1e-10 * scale).all()
        zero = make_field(k, n, "V0", {})
        assert np.array_equal(pi1_kernel_check(chart, rep, dense([zero]), dense([zero])), [0.0])


def test_commutator_identities(rng, reps):
    rep = reps[2]
    k, n = 2, 2
    chart = charts_for(k, n)[1]
    # operator identity Z T - T Z = [Z, T] on arbitrary fields, the left side
    # composed from the separate T and Z_mu operators of the oracle
    f = random_field(rng, k, n, "V0", degree=3, nterms=6)
    direct = apply_z(chart, rep, 1, apply_t(chart, rep, f)) - apply_t(
        chart, rep, apply_z(chart, rep, 1, f)
    )
    assert (direct - apply_zt_commutator(chart, rep, 1, f)).norm() == 0.0
    # on tangentially monogenic data the commutator vanishes along with Z
    for g in members(monogenic_basis(rep, k, n, degree=2))[:6]:
        ghat = restrict_to_chart(g, chart)
        assert apply_zt_commutator(chart, rep, 1, ghat).norm() <= 1e-12 * max(
            ghat.norm(), 1.0
        )


def test_restriction_agrees_with_pointwise_evaluation(rng):
    # independent oracle: substituting the defining variable commutes with
    # evaluating at points lying on the chart
    k, n = 2, 2
    chart = tilted_chart(k, n, np.array([[0.0, 0.7], [0.3, -0.4]]))
    f = random_field(rng, k, n, "V0", degree=3, nterms=6)
    g = restrict_to_chart(f, chart)
    for _ in range(5):
        x = rng.standard_normal(k * n)
        x[0] = float((chart.rho_coeffs.reshape(-1) * x).sum())  # on the chart
        assert np.abs(evaluate(f, x) - evaluate(g, x)).max() <= 1e-12


@pytest.mark.parametrize("k,n", CONFIGS)
def test_stacked_checks_match_one_member_calls(k, n, rng):
    # one pass over a stack gives each member the value of a one-element call
    rep = build_clifford(n)
    basis = monogenic_basis(rep, k, n, degree=3)
    draws = [random_field(rng, k, n, "V0", degree=3, nterms=5) for _ in range(8)]
    draws[2] = make_field(k, n, "V0", {})  # a zero member among the samples
    Fs, Fps = draws[0::2], draws[1::2]
    for chart in charts_for(k, n):
        rpt = restrict_and_test(basis, chart, rep)
        for i, f in enumerate(members(basis)):
            one = restrict_and_test(dense([f]), chart, rep)
            norm = one["input_norm"][0]
            assert abs(rpt["input_norm"][i] - norm) <= 1e-15 * norm
            for key in ("z_residual", "zt_residual"):
                assert abs(rpt[key][i] - one[key][0]) <= 1e-15 * norm, (i, key)
        pk = pi1_kernel_check(chart, rep, dense(Fs), dense(Fps))
        for i, (F, Fp) in enumerate(zip(Fs, Fps)):
            one = pi1_kernel_check(chart, rep, dense([F]), dense([Fp]))[0]
            assert abs(pk[i] - one) <= 1e-15 * (F.norm() + Fp.norm()), i
    with pytest.raises(ValueError, match="fields F"):
        pi1_kernel_check(chart, rep, dense(Fs), dense(Fps[:-1]))
