import numpy as np
import pytest

from diraclab import dirac_ops, random_field, weyl
from diraclab.fields import (
    SPACE_INFO,
    PolyField,
    _members,
    evaluate,
    keyed,
    keyed_norms,
    keyed_residuals,
    make_field,
    zero_field,
)


def unkey(f, count):
    """The `count` plain members of a keyed field, each on its own rows."""
    order, bounds = _members(f, count)
    expo, vals = f.expo[order, :f.k * f.n], f.vals[order]
    return [PolyField(f.k, f.n, f.space, expo[lo:hi], vals[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def same(f, g):
    """Bitwise equality of two plain fields."""
    return (f.space == g.space and np.array_equal(f.expo, g.expo)
            and f.vals.shape == g.vals.shape and f.vals.tobytes() == g.vals.tobytes())


def per_term_random_field(rng, k, n, space, rep, degree=3, nterms=8):
    """Oracle: the projector applied one term at a time, through a terms dict."""
    order, _, lam = SPACE_INFO[space]
    s = rep.s_dim
    terms = {}
    for _ in range(nterms):
        d = int(rng.integers(0, degree + 1))
        expo = [0] * (k * n)
        for _ in range(d):
            expo[int(rng.integers(0, k * n))] += 1
        expo = tuple(expo)
        coeff = rng.standard_normal((k,) * order + (s,)) + 1j * rng.standard_normal(
            (k,) * order + (s,))
        if lam is not None:
            coeff = np.ascontiguousarray(weyl.apply_projector(lam, coeff))
        terms[expo] = terms.get(expo, 0) + coeff
    return make_field(k, n, space, terms)


@pytest.mark.parametrize("space", ["V0", "V1", "V2", "V3p", "V3pp"])
def test_random_field_matches_per_term_oracle(space, reps):
    # one projector call over all terms gives each term's tensor bit for bit;
    # degree 1 over 6 variables repeats monomials, so repeated terms add too
    rep = reps[2]
    for degree, nterms in ((1, 9), (3, 6), (0, 3)):
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        f = random_field(ours, 3, 2, space, rep, degree=degree, nterms=nterms)
        g = per_term_random_field(theirs, 3, 2, space, rep, degree=degree, nterms=nterms)
        assert same(f, g), (space, degree)
        assert ours.bit_generator.state == theirs.bit_generator.state


def members_of(rng, rep, space, k=3, n=2):
    """Overlapping supports, a zero member and a trailing zero member."""
    a = random_field(rng, k, n, space, rep, degree=2, nterms=4)
    b = random_field(rng, k, n, space, rep, degree=1, nterms=1)  # one row
    c = a + random_field(rng, k, n, space, rep, degree=2, nterms=3)  # overlaps a
    zero = zero_field(k, n, space)
    return [a, zero, b, c, a, zero]


@pytest.mark.parametrize("space", ["V0", "V1", "V2", "V3pp"])
def test_keyed_round_trips_members(space, reps, rng):
    rep = reps[2]
    members = members_of(rng, rep, space)
    f = keyed(members)
    assert f.is_keyed and f.expo.shape[1] == 3 * 2 + 1
    assert len(f) == sum(len(g) for g in members)  # no union of rows
    back = unkey(f, len(members))
    assert len(back) == len(members)  # the trailing zero member survives
    for g, h in zip(members, back):
        assert not h.is_keyed
        assert same(g, h) or (not len(g) and not len(h))
    # a keyed field of zero members keeps its count
    empty = keyed([zero_field(3, 2, space)] * 3)
    assert [len(h) for h in unkey(empty, 3)] == [0, 0, 0]
    assert np.array_equal(keyed_norms(empty, 3), np.zeros(3))
    assert np.array_equal(keyed_residuals(empty, 3), np.zeros(3))


@pytest.mark.parametrize("space", ["V1", "V2", "V3p", "V3pp"])
def test_keyed_reductions_equal_one_field_values(space, reps, rng):
    # norms and membership residuals per member are the one-field values bit
    # for bit, also off the module and for a member with a single row
    rep = reps[2]
    order = SPACE_INFO[space][0]
    shape = (3,) * order + (rep.s_dim,)
    noise = [PolyField(3, 2, space, np.eye(t, 6, dtype=np.int64),
                       rng.standard_normal((t,) + shape) + 1j * rng.standard_normal((t,) + shape))
             for t in (1, 3)]
    members = members_of(rng, rep, space) + noise
    f = keyed(members)
    count = len(members)
    norms = keyed_norms(f, count)
    residuals = keyed_residuals(f, count)
    assert norms.tobytes() == np.array([g.norm() for g in members]).tobytes()
    assert residuals.tobytes() == np.array(
        [g.membership_residual() for g in members]).tobytes()
    if SPACE_INFO[space][2] is not None:
        assert residuals[-1] > 1e-3 and residuals[-2] > 1e-3
    # changing one member moves only that member's values
    members[3] = members[3].scale(2.0) + noise[0]
    g = keyed(members)
    moved = (keyed_norms(g, count) != norms) | (keyed_residuals(g, count) != residuals)
    assert np.flatnonzero(moved).tolist() == [3]
    with pytest.raises(ValueError, match="out of range"):
        keyed_norms(f, count - 1)


def test_keyed_degree_ignores_key(reps):
    one = np.array([1.0 + 0j])
    members = [make_field(2, 2, "V0", {(1, 0, 0, 0): one})] * 9
    members.append(make_field(2, 2, "V0", {(0, 2, 1, 0): one}))
    f = keyed(members)
    assert f.expo[:, -1].max() == 9
    assert f.degree() == 3
    assert keyed(members[:9]).degree() == 1
    with pytest.raises(ValueError, match="sample-keyed"):
        f.terms
    with pytest.raises(ValueError, match="sample-keyed"):
        evaluate(f, np.zeros(4))
    with pytest.raises(ValueError, match="sample-keyed"):
        f + members[0]
    with pytest.raises(ValueError, match="one space"):
        keyed([members[0], zero_field(2, 2, "V1")])
    with pytest.raises(ValueError, match="at least one"):
        keyed([])


def test_keyed_validate_names_failing_member(reps, rng):
    rep = reps[2]
    members = [random_field(rng, 3, 2, "V2", rep, degree=2, nterms=3) for _ in range(4)]
    keyed(members).validate()
    vals = members[2].vals.copy()
    vals[0] += 1.0  # off the (2,1) module
    members[2] = PolyField(3, 2, "V2", members[2].expo, vals)
    with pytest.raises(ValueError, match=r"member 2: residual \d"):
        keyed(members).validate()
    with pytest.raises(ValueError, match=r"\(residual \d"):
        members[2].validate()


@pytest.mark.parametrize("k, n", [(3, 2), (3, 3)])
def test_operators_on_keyed_fields_match_members(k, n, reps, rng):
    # every operator acts on a keyed field unchanged; each member's part of the
    # output is that member's output bit for bit
    rep = reps[n]
    cases = {
        "V0": [dirac_ops.d0, dirac_ops.laplacian],
        "V1": [dirac_ops.d0_star, dirac_ops.d1, dirac_ops.d1_projector],
        "V2": [dirac_ops.d2p, dirac_ops.d2p_projector, dirac_ops.d2pp,
               dirac_ops.d2pp_projector],
    }
    for space, ops in cases.items():
        members = [random_field(rng, k, n, space, rep, degree=3, nterms=4)
                   for _ in range(5)]
        members.insert(2, zero_field(k, n, space))
        f = keyed(members)
        for op in ops:
            outs = unkey(op(f, rep), len(members))
            for g, h in zip(members, outs):
                ref = op(g, rep)
                assert same(ref, h) or (not len(ref) and not len(h)), op.__name__


def test_commutator_sides_read_each_members_slot(reps, rng):
    # member b's part of each side is that composition on member b alone, at
    # its own (B, C, A); a zero member stays zero
    k, n = 3, 2
    rep = reps[n]
    members = [random_field(rng, k, n, "V0", rep, degree=5, nterms=6) for _ in range(5)]
    members.insert(3, zero_field(k, n, "V0"))
    slots = rng.integers(0, k, size=(len(members), 3))
    f = keyed(members)
    lhs = unkey(dirac_ops.delta_nabla(f, rep, slots), len(members))
    rhs = unkey(dirac_ops.nabla_delta(f, rep, slots), len(members))
    assert sum(map(bool, map(len, lhs + rhs))) >= 6 and not len(lhs[3])
    for g, (b, c, a), left, right in zip(members, slots, lhs, rhs):
        ref = dirac_ops.delta_op(b, c, dirac_ops.nabla(a, g, rep), rep)
        assert same(ref, left) or (not len(ref) and not len(left))
        ref = dirac_ops.nabla(a, dirac_ops.delta_op(b, c, g, rep), rep)
        assert same(ref, right) or (not len(ref) and not len(right))
