import numpy as np
import pytest

from diraclab import dirac_ops, fields, weyl
from diraclab.clifford import spinor_dim
from diraclab.fields import (
    SPACE_INFO,
    PolyField,
    _members,
    draw_width,
    keyed_norms,
    keyed_residuals,
    random_keyed,
)

from conftest import (add_at_canonical, delta_op, evaluate, keyed, make_field, random_field,
                      terms, total_degree)


def unkey(f, count):
    """The `count` members of a keyed field, each on its own rows, key 0.

    Rows are member-major, so each member is one contiguous slice; its
    (T, k*n) exponent rows get key column 0 back from the constructor."""
    assert (np.diff(f.expo[:, 0]) >= 0).all()
    bounds = _members(f, count)
    expo = f.expo[:, 1:]
    return [PolyField(f.k, f.n, f.space, expo[lo:hi], f.vals[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def same(f, g):
    """Bitwise equality of two fields."""
    return (f.space == g.space and np.array_equal(f.expo, g.expo)
            and f.vals.shape == g.vals.shape and f.vals.tobytes() == g.vals.tobytes())


def per_term_random_field(rng, k, n, space, degree=3, nterms=8):
    """Oracle: each term from its own ``rng.random`` call, its coefficient
    projected alone and added through a terms dict."""
    order, _, lam = SPACE_INFO[space]
    shape = (k,) * order + (spinor_dim(n),)
    terms = {}
    for _ in range(nterms):
        u = rng.random(1 + degree + 2 * int(np.prod(shape)))
        expo = [0] * (k * n)
        for i in range(int(u[0] * (degree + 1))):
            expo[int(u[1 + i] * k * n)] += 1
        expo = tuple(expo)
        u1, u2 = u[1 + degree::2].reshape(shape), u[2 + degree::2].reshape(shape)
        coeff = np.sqrt(-2.0 * np.log1p(-u1)) * np.exp(2j * np.pi * u2)
        if lam is not None:
            coeff = np.ascontiguousarray(weyl.apply_projector(lam, coeff))
        terms[expo] = terms.get(expo, 0) + coeff
    return make_field(k, n, space, terms)


@pytest.mark.parametrize("space", ["V0", "V1", "V2", "V3p", "V3pp"])
def test_random_field_matches_per_term_oracle(space):
    # one projector call over all terms gives each term's tensor bit for bit;
    # degree 1 over 6 variables repeats monomials, so repeated terms add too
    for degree, nterms in ((1, 9), (3, 6), (0, 3)):
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        f = random_field(ours, 3, 2, space, degree=degree, nterms=nterms)
        g = per_term_random_field(theirs, 3, 2, space, degree=degree, nterms=nterms)
        assert same(f, g), (space, degree)
        assert ours.bit_generator.state == theirs.bit_generator.state


def members_of(rng, space, k=3, n=2):
    """Overlapping supports, a zero member and a trailing zero member."""
    a = random_field(rng, k, n, space, degree=2, nterms=4)
    b = random_field(rng, k, n, space, degree=1, nterms=1)  # one row
    c = a + random_field(rng, k, n, space, degree=2, nterms=3)  # overlaps a
    zero = PolyField(k, n, space)
    return [a, zero, b, c, a, zero]


@pytest.mark.parametrize("space", ["V0", "V1", "V2", "V3pp"])
def test_keyed_round_trips_members(space, rng):
    members = members_of(rng, space)
    # (T, k*n) exponent rows are one member: key column 0 comes first
    a = members[0]
    assert a.expo.shape == (len(a), 1 + 3 * 2) and not a.expo[:, 0].any()
    assert same(PolyField(3, 2, space, a.expo[:, 1:], a.vals), a)
    f = keyed(members)
    assert f.expo.shape[1] == 1 + 3 * 2
    assert f.expo[:, 0].tolist() == [b for b, g in enumerate(members) for _ in range(len(g))]
    assert len(f) == sum(len(g) for g in members)  # no union of rows
    back = unkey(f, len(members))
    assert len(back) == len(members)  # the trailing zero member survives
    for g, h in zip(members, back):
        assert not h.expo[:, 0].any()
        assert same(g, h) or (not len(g) and not len(h))
    # a keyed field of zero members keeps its count
    empty = keyed([PolyField(3, 2, space)] * 3)
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
    members = members_of(rng, space) + noise
    f = keyed(members)
    count = len(members)
    norms = keyed_norms(f, count)
    residuals = keyed_residuals(f, count)
    assert norms.tobytes() == np.array([g.norm() for g in members]).tobytes()
    assert residuals.tobytes() == np.array(
        [g.membership_residual().max(initial=0.0) for g in members]).tobytes()
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
    assert f.expo[:, 0].max() == 9
    assert total_degree(f) == 3
    assert total_degree(keyed(members[:9])) == 1
    zero = PolyField(2, 2, "V0")
    assert zero.vals.shape == (0, reps[2].s_dim) and total_degree(zero) == -1
    with pytest.raises(ValueError, match="sample-keyed"):
        terms(f)
    with pytest.raises(ValueError, match="sample-keyed"):
        evaluate(f, np.zeros(4))
    # a one-member field is member 0: adding it adds to member 0 only
    assert same(f + members[0], keyed([members[0].scale(2.0)] + members[1:]))
    assert np.array_equal(keyed_norms(zero, 3), np.zeros(3))
    with pytest.raises(ValueError, match="one space"):
        keyed([members[0], PolyField(2, 2, "V1")])
    with pytest.raises(ValueError, match="one-member fields"):
        keyed([members[0], f])
    with pytest.raises(ValueError, match="at least one"):
        keyed([])


def test_keyed_validate_names_failing_member(rng):
    members = [random_field(rng, 3, 2, "V2", degree=2, nterms=3) for _ in range(4)]
    keyed(members).validate()
    vals = members[2].vals.copy()
    vals[0] += 1.0  # off the (2,1) module
    members[2] = PolyField(3, 2, "V2", members[2].expo, vals)
    with pytest.raises(ValueError, match=r"member 2: residual \d"):
        keyed(members).validate()
    with pytest.raises(ValueError, match=r"\(member 0: residual \d"):
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
        members = [random_field(rng, k, n, space, degree=3, nterms=4)
                   for _ in range(5)]
        members.insert(2, PolyField(k, n, space))
        f = keyed(members)
        for op in ops:
            outs = unkey(op(f, rep), len(members))
            for g, h in zip(members, outs):
                ref = op(g, rep)
                assert same(ref, h) or (not len(ref) and not len(h)), op.__name__


def test_commutator_matches_compositions_at_every_slot(reps, rng):
    # member b's part of the commutator is the commutator of member b alone,
    # and at each (A, B, C) it is Delta_BC nabla_A g - nabla_A Delta_BC g,
    # both sides composed on that member; a zero member stays zero.  Every
    # exponent of the random members is raised by 3, so no monomial vanishes
    # under the three derivatives at any slot.
    k, n = 3, 2
    rep = reps[n]
    members = [random_field(rng, k, n, "V0", degree=5, nterms=6) for _ in range(5)]
    members = [PolyField(k, n, "V0", g.expo[:, 1:] + 3, g.vals) for g in members]
    members.insert(3, PolyField(k, n, "V0"))
    out = unkey(dirac_ops.delta_nabla_commutator(keyed(members), rep), len(members))
    assert not len(out[3]) and out[3].vals.shape == (0, k, k, k, rep.s_dim)
    nonzero = 0
    for g, part in zip(members, out):
        assert same(dirac_ops.delta_nabla_commutator(g, rep), part)
        for a, b, c in np.ndindex(k, k, k):
            ref = (delta_op(b, c, dirac_ops.nabla(a, g, rep), rep)
                   - dirac_ops.nabla(a, delta_op(b, c, g, rep), rep))
            assert same(ref, PolyField(k, n, "S-", part.expo, part.vals[:, a, b, c]))
            nonzero += len(ref)
    assert nonzero  # the sides' roundoff leaves rows to compare


def test_canonical_fast_path_matches_sum(rng, monkeypatch):
    # sorted, distinct rows skip the sort and the sum; the result is bitwise
    # what the sort-and-sum route gives, signed zeros and zero rows included
    from diraclab import fields

    members = [random_field(rng, 3, 2, "V1") for _ in range(4)]
    f = members[1]
    signed = f.vals.copy()
    signed[0] = -0.0  # a zero row, dropped by both routes
    signed[1, 0] = -0.0  # a signed zero inside a kept row
    cases = [(g.expo, g.vals) for g in (members[0], keyed(members))]
    cases.append((f.expo, signed))
    for expo, vals in cases:
        assert fields._increasing(expo)
        fast = fields._canonical(expo, vals)
        perm = rng.permutation(len(expo))
        shuffled = fields._canonical(expo[perm], vals[perm])
        with monkeypatch.context() as m:
            m.setattr(fields, "_increasing", lambda expo: False)
            slow = fields._canonical(expo, vals)
        for other in (shuffled, slow):
            assert np.array_equal(fast[0], other[0])
            assert fast[1].tobytes() == other[1].tobytes()
    for expo, vals in cases[:2]:  # canonical input comes back unchanged
        out = fields._canonical(expo, vals)
        assert np.array_equal(out[0], expo) and out[1].tobytes() == vals.tobytes()
    assert len(fields._canonical(f.expo, signed)[0]) == len(f) - 1
    rows = np.array([[0, 2], [1, 0], [1, 1]])
    assert fields._increasing(rows)
    assert not fields._increasing(rows[[0, 2, 1]])
    assert not fields._increasing(rows[[0, 1, 1]])
    # keyed rows are member-major: the key column is the most significant
    member_major = np.array([[0, 2, 0], [1, 0, 1], [1, 1, 0]])
    assert fields._increasing(member_major) and not fields._increasing(member_major[:, 1:])
    assert not fields._increasing(member_major[[1, 0, 2]])


@pytest.mark.parametrize("space", ["V0", "V1", "V2"])
def test_batched_draws_match_one_member_fields(space):
    # one draw of a (B, width) block, one projector call, canonicalisation and
    # validate over all members give each member's random_field bit for bit,
    # and leave the rng where the one-at-a-time draws leave it; two roles side
    # by side in a row are the strided column slices the suites pass;
    # degree 1 repeats monomials within members
    for degree, nterms in ((1, 9), (3, 6), (0, 3)):
        ours, theirs = np.random.default_rng(29), np.random.default_rng(29)
        width = draw_width(3, 2, space, degree, nterms)
        u = ours.random((7, 2 * width))
        sides = [random_keyed(3, 2, space, u[:, :width], degree, nterms),
                 random_keyed(3, 2, space, u[:, width:], degree, nterms)]
        members = [random_field(theirs, 3, 2, space, degree, nterms) for _ in range(14)]
        assert ours.bit_generator.state == theirs.bit_generator.state
        for f, part in zip(sides, (members[0::2], members[1::2])):
            whole = keyed(part)
            assert np.array_equal(f.expo, whole.expo)
            assert f.vals.tobytes() == whole.vals.tobytes()
            for g, h in zip(part, unkey(f, len(part))):
                assert same(g, h), (space, degree)


def test_keyed_of_canonical_members_is_canonical(rng, monkeypatch):
    # concatenated canonical members are already in member-major order: the
    # fast path returns what the forced sort-and-sum route gives, bitwise
    for space in ("V0", "V1", "V2"):
        members = members_of(rng, space)
        f = keyed(members)
        expo = np.concatenate([np.column_stack([np.full(len(g), b), g.expo[:, 1:]])
                               for b, g in enumerate(members)])
        vals = np.concatenate([g.vals for g in members if len(g)])
        assert fields._increasing(expo) and not fields._increasing(expo[:, 1:])
        with monkeypatch.context() as m:
            m.setattr(fields, "_increasing", lambda expo: False)
            slow = PolyField(3, 2, space, expo, vals)
        assert np.array_equal(f.expo, expo) and np.array_equal(slow.expo, expo)
        assert f.vals.tobytes() == slow.vals.tobytes() == vals.tobytes()


def test_canonical_sum_matches_add_at_oracle(rng):
    # shuffled rows with repeats, signed zeros and exact cancellations, in
    # several widths and value shapes: bincount adds each group in input
    # order, as add.at does
    for width, tail in ((3, (2,)), (4, (3, 2)), (3, ())):
        for _ in range(40):
            t = int(rng.integers(1, 40))
            expo = rng.integers(0, 3, size=(t, width))
            scale = 10.0 ** rng.integers(-8, 9, size=(t,) + (1,) * len(tail))
            vals = scale * (rng.standard_normal((t,) + tail)
                            + 1j * rng.standard_normal((t,) + tail))
            vals[rng.random(t) < 0.2] = -0.0
            vals[rng.random(t) < 0.2] = complex(-0.0, -0.0)
            # rows that cancel earlier ones exactly, half of them restored
            dup = rng.integers(0, t, size=t // 2)
            back = dup[: len(dup) // 2]
            expo = np.concatenate([expo, expo[dup], expo[back]])
            vals = np.concatenate([vals, -vals[dup], vals[back]])
            perm = rng.permutation(len(expo))
            expo, vals = expo[perm], vals[perm]
            ours = fields._canonical(expo, vals)
            theirs = add_at_canonical(expo, vals)
            assert np.array_equal(ours[0], theirs[0])
            assert ours[1].tobytes() == theirs[1].tobytes()
