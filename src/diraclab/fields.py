"""Sparse polynomial fields with values in the spaces of the complex.

A field is a finite sum of monomials ``x^alpha`` times a coefficient array,
stored as two arrays: ``expo``, an int64 matrix with one exponent row
(length k*n, indexed row-major by (vector variable A, direction j)) per
monomial, and ``vals``, the stacked coefficient arrays.  Coefficient arrays
carry the tensor axes of the value space first and the spinor axis last, so
the ``vals`` of a V2 field has shape (T, k, k, k, s).  The rows of ``expo``
are unique and sorted lexicographically, and no row of ``vals`` is zero; the
constructor restores this canonical form after every operation.

Many fields can travel as one, in two forms; every operator acts on all
members at once, through the same code path as on one field:

* a *stack* of B scalar fields is one field whose ``vals`` carry a batch axis
  just before the spinor axis, shape (T, B, s) (see :func:`stack`), on the
  union of the members' rows.  It suits members that share their rows: the
  boundary suite stacks a monogenic basis and random fields on few monomials.
* a *sample-keyed* field (see :func:`keyed`) has one extra trailing ``expo``
  column holding each row's member index, so members keep their own rows and
  may be tensor-valued.  Derivatives never touch the key column (every
  derivative index is below k*n) and canonicalisation groups whole rows, so
  members never mix.  The complex suite keys its random tensor fields: they
  share few rows, and a dense stack of its order-5 second-derivative tensors
  would take 0.2-2.7 GiB.  Per-member norms and membership residuals
  (:func:`keyed_norms`, :func:`keyed_residuals`) take the member count and
  equal the one-field values bit for bit.  The boundary suite keeps the dense
  stack: its members share rows, which a keyed field repeats once per member.
  On a 2-vCPU x86-64 VM, keyed, its four commands took 0.57-0.62 s per
  iteration against 0.25-0.34 s dense (six alternating in-process pairs),
  and the ``verify-poly`` benchmark's median wall time rose from 0.65 to
  0.93 s (four pairs, all lost).

Differentiation multiplies by small integers and the gamma contractions have
entries in {0, +-1, +-i}, so the algebraic operator identities hold on
polynomial fields up to roundoff, which makes them the right test bed.
"""

import numpy as np

from . import weyl

#: space tag -> (tensor order, chirality (+1 for S+, -1 for S-), membership tag)
SPACE_INFO = {
    "V0": (0, +1, None),
    "V1": (1, -1, None),
    "V2": (3, -1, "21"),
    "V3p": (4, +1, "22"),
    "V3pp": (5, -1, "311"),
    "S+": (0, +1, None),
    "S-": (0, -1, None),
}

MEMBERSHIP_TOL = 1e-10


class PolyField:
    """Polynomial map R^{kn} -> (value space) x S+/-.

    Attributes
    ----------
    k, n : int
        Number of vector variables and spatial dimension.
    space : str
        Value-space tag, a key of :data:`SPACE_INFO`.
    expo : ndarray
        int64 array of shape (T, k*n); row t is the exponent of monomial t.
        A sample-keyed field has shape (T, k*n + 1), the last column the
        member index (see :func:`keyed`).
    vals : ndarray
        complex array of shape (T,) + ``(k,)*order + (s,)``; the zero field
        has T = 0.
    """

    def __init__(self, k, n, space, expo=None, vals=None):
        if space not in SPACE_INFO:
            raise ValueError(f"unknown value space {space!r}")
        self.k, self.n, self.space = k, n, space
        if expo is None:
            expo, vals = (), ()
        expo = np.asarray(expo, dtype=np.int64)
        width = k * n + 1 if expo.ndim == 2 and expo.shape[1] == k * n + 1 else k * n
        self.expo, self.vals = _canonical(expo.reshape(-1, width),
                                          np.asarray(vals, dtype=complex))

    @property
    def is_keyed(self):
        """Whether the last column of ``expo`` is a member index."""
        return self.expo.shape[1] > self.k * self.n

    def _require_plain(self, what):
        if self.is_keyed:
            raise ValueError(f"{what} of a sample-keyed field, which holds several")

    @property
    def terms(self):
        """Exponent tuple -> coefficient array, built from the arrays."""
        self._require_plain("terms")
        return {tuple(e): v for e, v in zip(self.expo.tolist(), self.vals)}

    def __len__(self):
        return len(self.expo)

    @property
    def order(self):
        return SPACE_INFO[self.space][0]

    @property
    def chirality(self):
        return SPACE_INFO[self.space][1]

    def norm(self):
        return float(np.sqrt((np.abs(self.vals) ** 2).sum()))

    def degree(self):
        """Largest total degree; the key column of a keyed field is no degree."""
        if not len(self):
            return -1
        return int(self.expo[:, :self.k * self.n].sum(axis=1).max())

    def copy(self):
        return PolyField(self.k, self.n, self.space, self.expo, self.vals)

    def __add__(self, other):
        return _linear_combination(self, other, 1.0)

    def __sub__(self, other):
        return _linear_combination(self, other, -1.0)

    def scale(self, a):
        return PolyField(self.k, self.n, self.space, self.expo, a * self.vals)

    def membership_residual(self, rows=False):
        """Largest characterization residual among the coefficient arrays.

        With ``rows=True``, the residual of each coefficient array, shape (T,).
        """
        lam = SPACE_INFO[self.space][2]
        if lam is None or not len(self):
            res = np.zeros(len(self))
        else:  # one call, the row axis trailing
            res = weyl.check_membership(lam, np.moveaxis(self.vals, 0, -1), rows=True)
        return res if rows else float(res.max(initial=0.0))

    def validate(self, tol=MEMBERSHIP_TOL):
        """Raise if a coefficient array leaves the value space.

        The error of a keyed field names the first member over `tol`.
        """
        if SPACE_INFO[self.space][2] is None:
            return self
        res = self.membership_residual(rows=True)
        bad = res > tol
        if bad.any():
            where = f"residual {res.max():.3e}"
            if self.is_keyed:
                key = self.expo[:, -1]
                i = int(key[bad].min())
                where = f"member {i}: residual {res[key == i].max():.3e}"
            raise ValueError(
                f"coefficients violate the {self.space} characterization "
                f"({where} > {tol:.1e})"
            )
        return self


def _group(expo):
    """Group equal exponent rows: the sort order, the distinct sorted rows,
    and the group of each sorted row."""
    order = np.lexsort(expo.T[::-1])  # stable; first column most significant
    expo = expo[order]
    first = np.ones(len(expo), dtype=bool)
    first[1:] = (expo[1:] != expo[:-1]).any(axis=1)
    return order, expo[first], np.cumsum(first) - 1


def _canonical(expo, vals):
    """Sum rows with equal exponents, sort them, and drop zero rows."""
    if not len(expo):
        return expo, vals
    order, rows, group = _group(expo)
    # add.at adds a group's rows one at a time in input order; a reduceat
    # may regroup them, and terms that cancel exactly then leave roundoff
    acc = np.zeros((len(rows),) + vals.shape[1:], dtype=complex)
    np.add.at(acc, group, vals[order])
    keep = acc.any(axis=tuple(range(1, acc.ndim)))
    return rows[keep], acc[keep]


def stack(members):
    """One field holding B scalar fields of one space: ``vals`` has shape (T, B, s).

    The rows are the union of the members' exponent rows, and member b's
    coefficients sit at ``vals[:, b]``, zero on the rows it lacks.  Every
    scalar operator broadcasts over the batch axis, so one call acts on all
    members, and :func:`member_norms` reads the norms back per member.
    """
    members = list(members)
    if not members:
        raise ValueError("a stack needs at least one member")
    head = members[0]
    if head.order or any((g.k, g.n, g.space) != (head.k, head.n, head.space)
                         or g.is_keyed for g in members):
        raise ValueError("a stack holds scalar fields of one space")
    # the zero field carries no spinor axis; take it from a nonzero member
    tail = next((g.vals.shape[1:] for g in members if len(g)), ())
    order, rows, group = _group(np.concatenate([g.expo for g in members]))
    owner = np.repeat(np.arange(len(members)), [len(g) for g in members])
    vals = np.zeros((len(rows), len(members)) + tail, dtype=complex)
    vals[group, owner[order]] = np.concatenate(
        [g.vals.reshape((-1,) + tail) for g in members])[order]
    return PolyField(head.k, head.n, head.space, rows, vals)


def member_norms(f):
    """The norm of each member of a stack, shape (B,)."""
    axes = (0,) + tuple(range(2, f.vals.ndim))
    return np.sqrt((np.abs(f.vals) ** 2).sum(axis=axes))


def keyed(members):
    """One sample-keyed field holding B fields of one space, in order.

    Each member's rows carry its index b as an extra last ``expo`` column,
    so members keep their own rows (no union of rows is formed) and may be
    tensor-valued.  Every operator acts on all members in one call; read the
    results back per member with :func:`keyed_norms` and
    :func:`keyed_residuals`, which take the member count B (a member may
    vanish, leaving no rows).
    """
    members = list(members)
    if not members:
        raise ValueError("a keyed field needs at least one member")
    head = members[0]
    if any((g.k, g.n, g.space) != (head.k, head.n, head.space) or g.is_keyed
           for g in members):
        raise ValueError("a keyed field holds plain fields of one space")
    # the zero field carries no value axes; take them from a nonzero member
    tail = next((g.vals.shape[1:] for g in members if len(g)), ())
    key = np.repeat(np.arange(len(members)), [len(g) for g in members])
    expo = np.column_stack([np.concatenate([g.expo for g in members]), key])
    vals = np.concatenate([g.vals.reshape((-1,) + tail) for g in members])
    return PolyField(head.k, head.n, head.space, expo, vals)


def _key(f, count):
    """The member index of each row of a keyed field with `count` members.

    An empty field is the keyed field of `count` zero members.
    """
    if not len(f):
        return np.zeros(0, dtype=np.int64)
    if not f.is_keyed:
        raise ValueError("not a sample-keyed field")
    key = f.expo[:, -1]
    if key.max() >= count:
        raise ValueError(f"member index {key.max()} out of range for {count} members")
    return key


def _members(f, count):
    """Row order that groups a keyed field by member, and the count + 1 bounds.

    The sort is stable, so each member's rows keep their lexicographic order
    and its slice is laid out as the member alone would be.
    """
    key = _key(f, count)
    order = np.argsort(key, kind="stable")
    return order, np.searchsorted(key[order], np.arange(count + 1))


def keyed_norms(f, count):
    """Each member's norm, shape (count,), bitwise equal to its ``norm()``.

    A member's norm sums its own contiguous slice, as the member alone
    would; one ``bincount`` over all rows would add in another order.
    """
    order, bounds = _members(f, count)
    sq = np.abs(f.vals[order]) ** 2
    return np.sqrt([sq[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])])


def keyed_residuals(f, count):
    """Each member's ``membership_residual()``, shape (count,), bitwise.

    One batched characterization call gives every row's residual, reduced
    within the row as for the member alone; then a maximum per member.
    """
    out = np.zeros(count)
    np.maximum.at(out, _key(f, count), f.membership_residual(rows=True))
    return out


def _partial(expo, vals, idx):
    """d/dx_idx on (expo, vals); canonical input gives canonical output.

    Only rows with a positive exponent survive, and decrementing one column
    of all of them keeps them unique and in lexicographic order.
    """
    p = expo[:, idx]
    keep = p > 0
    out = expo[keep]
    out[:, idx] -= 1
    return out, vals[keep] * p[keep].reshape((-1,) + (1,) * (vals.ndim - 1))


def _linear_combination(f, g, sign):
    # V0 and S+ (etc.) are the same underlying space; compare structure
    if (f.k, f.n, SPACE_INFO[f.space]) != (g.k, g.n, SPACE_INFO[g.space]):
        raise ValueError("fields live in different spaces")
    space = f.space if f.space == g.space else ("S+" if f.chirality > 0 else "S-")
    if f.order > 0 and f.space != g.space:
        raise ValueError("fields live in different spaces")
    if len(f) and len(g) and f.is_keyed != g.is_keyed:
        raise ValueError("cannot add a sample-keyed field and a plain one")
    if not len(g):
        return PolyField(f.k, f.n, space, f.expo, f.vals)
    if not len(f):
        return PolyField(f.k, f.n, space, g.expo, sign * g.vals)
    return PolyField(f.k, f.n, space, np.concatenate((f.expo, g.expo)),
                     np.concatenate((f.vals, sign * g.vals)))


def make_field(k, n, space, terms, validate=True, tol=MEMBERSHIP_TOL):
    """Build a field from a dict exponent tuple -> coefficient array."""
    if not terms:
        return PolyField(k, n, space)
    out = PolyField(k, n, space, list(terms),
                    np.stack([np.asarray(v, dtype=complex) for v in terms.values()]))
    return out.validate(tol) if validate else out


def zero_field(k, n, space):
    return PolyField(k, n, space)


def random_field(rng, k, n, space, rep, degree=3, nterms=8):
    """Seeded random field; V2/V3 coefficients are projected into the module.

    Monomials are drawn with total degree <= `degree`; coefficients are
    standard complex Gaussians, with the membership projector applied when
    the value space requires it.  Repeated monomials add up.
    """
    order, _, lam = SPACE_INFO[space]
    shape = (k,) * order + (rep.s_dim,)
    expo = np.zeros((nterms, k * n), dtype=np.int64)
    coeffs = np.empty((nterms,) + shape, dtype=complex)
    for t in range(nterms):  # per term: degree, variables, coefficient
        for _ in range(int(rng.integers(0, degree + 1))):
            expo[t, int(rng.integers(0, k * n))] += 1
        coeffs[t] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if lam is not None:  # one projector call, the term axis trailing
        coeffs = np.moveaxis(weyl.apply_projector(lam, np.moveaxis(coeffs, 0, -1)), -1, 0)
    return PolyField(k, n, space, expo, coeffs).validate()


def evaluate(f, x):
    """Evaluate a field at a point x (flat array of length k*n)."""
    f._require_plain("evaluate")
    if not len(f):
        return 0.0
    mono = np.prod(np.asarray(x, dtype=float) ** f.expo, axis=1)
    return np.tensordot(mono, f.vals, axes=1)
