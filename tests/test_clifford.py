import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import build_clifford, delta_symbol, dirac_symbol
from diraclab.clifford import spinor_dim

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def expected_dim(n):
    if n == 1:
        return 1
    return 2 ** (n // 2 - 1) if n % 2 == 0 else 2 ** ((n - 1) // 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_invariants(n):
    rep = build_clifford(n)
    s = rep.s_dim
    assert s == expected_dim(n)
    eye = np.eye(s)
    for j in range(n):
        for k in range(n):
            target = -2.0 * eye if j == k else 0.0
            anti_plus = rep.gamma_minus[j] @ rep.gamma_plus[k] + rep.gamma_minus[k] @ rep.gamma_plus[j]
            anti_minus = rep.gamma_plus[j] @ rep.gamma_minus[k] + rep.gamma_plus[k] @ rep.gamma_minus[j]
            assert np.abs(anti_plus - target).max() <= 1e-12
            assert np.abs(anti_minus - target).max() <= 1e-12
        assert np.abs(rep.gamma_plus[j].conj().T + rep.gamma_minus[j]).max() <= 1e-12


def test_n1_single_generator():
    rep = build_clifford(1)
    assert rep.s_dim == 1
    assert np.allclose(rep.gamma_plus[0] @ rep.gamma_minus[0], -np.eye(1))


def test_n2_explicit_scalar_blocks():
    # s = 1: the blocks are scalars and the algebra can be checked by hand
    rep = build_clifford(2)
    assert rep.s_dim == 1
    a1, a2 = rep.gamma_plus[0].item(), rep.gamma_plus[1].item()
    b1, b2 = rep.gamma_minus[0].item(), rep.gamma_minus[1].item()
    assert b1 * a1 == -1 and b2 * a2 == -1
    assert b1 * a2 + b2 * a1 == 0
    assert np.conj(a1) == -b1 and np.conj(a2) == -b2


def test_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        build_clifford(0)
    with pytest.raises(ValueError):
        build_clifford(-3)


def test_rejects_bool_dimension():
    # True is an int equal to 1, but not a dimension; the typed cache keeps
    # the n = 1 rep from answering for it
    build_clifford(1)
    for bad in (True, False):
        with pytest.raises(ValueError, match="positive integer"):
            spinor_dim(bad)
        with pytest.raises(ValueError, match="positive integer"):
            build_clifford(bad)


def test_construction_deterministic():
    a = build_clifford(5)
    b = build_clifford.__wrapped__(5)  # a fresh build, past the cache
    assert np.array_equal(a.gamma_plus, b.gamma_plus)
    assert np.array_equal(a.gamma_minus, b.gamma_minus)


def _kron_reference(n):
    # every generator its own left-associated kron chain from [[1]], as in the
    # tensor recursion of the module docstring, then the chirality blocks
    m = (n + 1) // 2
    pauli = [np.array(a, dtype=complex) for a in
             ([[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]])]
    gens = []
    for l in range(m):
        for s in pauli[:2]:
            out = np.array([[1.0 + 0.0j]])
            for f in [pauli[2]] * l + [s] + [np.eye(2, dtype=complex)] * (m - 1 - l):
                out = np.kron(out, f)
            gens.append(out)
    parity = np.array([bin(b).count("1") % 2 for b in range(2**m)])
    plus, minus = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    return (np.stack([(1j * e)[np.ix_(minus, plus)] for e in gens[:n]]),
            np.stack([(1j * e)[np.ix_(plus, minus)] for e in gens[:n]]))


@pytest.mark.parametrize("n", range(1, 13))
def test_gammas_match_kron_reference_bytes(n):
    # one shared family per m and shared s3 prefixes leave every byte as it
    # was, signed zeros included
    rep = build_clifford.__wrapped__(n)
    gp, gm = _kron_reference(n)
    assert rep.gamma_plus.dtype == gp.dtype and rep.gamma_plus.shape == gp.shape
    assert rep.gamma_plus.tobytes() == gp.tobytes()
    assert rep.gamma_minus.tobytes() == gm.tobytes()


def test_build_is_cached_and_still_validates():
    # one rep per dimension, shared read-only; the typed cache never hands
    # the int's rep to a float, so a float is refused as before
    rep = build_clifford(2)
    assert build_clifford(2) is rep
    assert not rep.gamma_plus.flags.writeable and not rep.gamma_minus.flags.writeable
    build_clifford(1)
    for bad in (2.0, 1.0):
        with pytest.raises(ValueError):
            build_clifford(bad)


def test_symbol_zero_frequency(reps):
    rep = reps[3]
    p, m = dirac_symbol(rep, np.zeros(3))
    assert not p.any() and not m.any()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbol_square_on_unit_vectors(n, rng):
    rep = build_clifford(n)
    xi = rng.standard_normal(n)
    xi /= np.linalg.norm(xi)
    p, m = dirac_symbol(rep, xi)
    assert np.abs(m @ p - np.eye(rep.s_dim)).max() <= 1e-12
    assert np.abs(p @ m - np.eye(rep.s_dim)).max() <= 1e-12
    # a stack of frequencies gives, row by row, the one-row symbols bit for bit
    xis = rng.standard_normal((2, 3, n))
    sp, sm = dirac_symbol(rep, xis)
    assert sp.shape == sm.shape == (2, 3, rep.s_dim, rep.s_dim)
    for idx in np.ndindex(2, 3):
        rp, rm = dirac_symbol(rep, xis[idx])
        assert rp.tobytes() == sp[idx].tobytes() and rm.tobytes() == sm[idx].tobytes()
    for bad in (np.ones(n + 1), np.ones((2, n + 1)), 1.0):
        with pytest.raises(ValueError, match="xi must have shape"):
            dirac_symbol(rep, bad)


@settings(max_examples=25, deadline=None)
@given(st.lists(finite, min_size=3, max_size=3), st.lists(finite, min_size=3, max_size=3), finite, finite)
def test_symbol_linear(u, v, a, b):
    rep = build_clifford(3)
    u, v = np.array(u), np.array(v)
    pu, mu = dirac_symbol(rep, u)
    pv, mv = dirac_symbol(rep, v)
    pc, mc = dirac_symbol(rep, a * u + b * v)
    assert np.abs(pc - a * pu - b * pv).max() <= 1e-10
    assert np.abs(mc - a * mu - b * mv).max() <= 1e-10


def test_symbol_polarization(rng, reps):
    rep = reps[3]
    for _ in range(20):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        pu, mu = dirac_symbol(rep, u)
        pv, mv = dirac_symbol(rep, v)
        anti = mu @ pv + mv @ pu
        assert np.abs(anti - 2.0 * (u @ v) * np.eye(rep.s_dim)).max() <= 1e-12


def test_delta_symbol_values(reps):
    rep = reps[3]
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert delta_symbol(rep, e1, e1) == pytest.approx(2.0, abs=1e-14)
    assert delta_symbol(rep, e1, e2) == pytest.approx(0.0, abs=1e-14)
    assert delta_symbol(rep, 2 * e1, 3 * e1) == pytest.approx(12.0, abs=1e-13)
