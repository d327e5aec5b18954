"""Sparse polynomial fields with values in the spaces of the complex.

A field is a finite sum of monomials ``x^alpha`` times a coefficient array,
stored as two arrays: ``expo``, an int64 matrix with one row per monomial,
and ``vals``, the stacked coefficient arrays.  Column 0 of ``expo`` is the
row's member key and columns 1..k*n hold its exponent, indexed row-major by
(vector variable A, direction j).  A field of one member has key 0 on every
row; the constructor accepts (T, k*n) exponent rows as one member and
prepends that column.  Coefficient arrays carry the tensor axes of the value
space first and the spinor axis last, so the ``vals`` of a V2 field has shape
(T, k, k, k, s).  The rows of ``expo`` are unique and sorted
lexicographically, and no row of ``vals`` is zero; the constructor restores
this canonical form after every operation.  The zero field has T = 0 and its
space's value axes, so every operator takes it through the same code path as
any other field.

Many fields can travel as one, in two forms; every operator acts on all
members at once, through the same code path as on one field:

* a *sample-keyed* field gives member b the key b, so members keep their own
  rows and may be tensor-valued.  The key is the most significant column, so
  the rows are member-major: each member's rows are one contiguous slice in
  the order the member alone would have.  Derivatives never touch the key
  column and canonicalisation groups whole rows, so members never mix.
  Random fields are built from uniforms, one row of :func:`draw_width` per
  member, as one keyed field per draw role (:func:`random_keyed`): one
  projector call, one canonicalisation and one ``validate()`` per role.  A
  suite draws a block of samples with one ``rng.random`` call, every role's
  columns side by side in a sample's row; since consecutive ``rng.random``
  calls continue one stream, the draws are sample-major, and a one-row block
  drawn per member gives each member bit for bit.  The complex suite keys
  its random tensor fields: they share few rows, and a dense stack of its
  order-5 second-derivative tensors would take 0.2-2.7 GiB.  Per-member
  norms and membership residuals (:func:`keyed_norms`,
  :func:`keyed_residuals`) take the member count and equal the one-field
  values bit for bit.
* a *stack* of B scalar fields (see :func:`stack`) is one field of key 0
  whose ``vals`` carry a batch axis just before the spinor axis, shape
  (T, B, s), on the union of the members' rows.  The boundary suite's
  batches are stacks from the start (the monogenic basis, and phi times
  each basis spinor) or stacked from keyed draws: its members share rows,
  which a keyed field repeats once per member (re-measured with one field
  form, warm and in-process at seed 1 on a 2-vCPU VM: keyed, its four
  ``verify-poly`` commands took 0.45-0.55 s per iteration against
  0.18-0.21 s on stacks; see the README).

Differentiation multiplies by small integers and the gamma contractions have
entries in {0, +-1, +-i}, so the algebraic operator identities hold on
polynomial fields up to roundoff, which makes them the right test bed.
"""

import numpy as np

from . import weyl
from .clifford import spinor_dim

#: space tag -> (tensor order, chirality (+1 for S+, -1 for S-), membership
#: tag); a scalar S+ valued field is a V0 field, a scalar S- valued one "S-"
SPACE_INFO = {
    "V0": (0, +1, None),
    "V1": (1, -1, None),
    "V2": (3, -1, "21"),
    "V3p": (4, +1, "22"),
    "V3pp": (5, -1, "311"),
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
        int64 array of shape (T, 1 + k*n); row t is the member key of
        monomial t (0 for a one-member field) followed by its exponent.
    vals : ndarray
        complex array of shape (T,) + ``(k,)*order + (s,)``; the zero field
        has T = 0 and its space's value axes.
    """

    def __init__(self, k, n, space, expo=None, vals=None):
        if space not in SPACE_INFO:
            raise ValueError(f"unknown value space {space!r}")
        self.k, self.n, self.space = k, n, space
        if expo is None:
            expo = np.zeros((0, 1 + k * n), dtype=np.int64)
            vals = np.zeros((0,) + (k,) * SPACE_INFO[space][0] + (spinor_dim(n),),
                            dtype=complex)
        expo = np.asarray(expo, dtype=np.int64)
        if expo.shape[1] == k * n:  # one member: key 0
            expo = np.pad(expo, ((0, 0), (1, 0)))
        self.expo, self.vals = _canonical(expo, np.asarray(vals, dtype=complex))

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

    def __add__(self, other):
        return _linear_combination(self, other, 1.0)

    def __sub__(self, other):
        return _linear_combination(self, other, -1.0)

    def scale(self, a):
        return PolyField(self.k, self.n, self.space, self.expo, a * self.vals)

    def membership_residual(self):
        """The characterization residual of each coefficient array, shape (T,)."""
        lam = SPACE_INFO[self.space][2]
        if lam is None or not len(self):
            return np.zeros(len(self))
        # one call, the row axis trailing
        return weyl.check_membership(lam, np.moveaxis(self.vals, 0, -1))

    def validate(self):
        """Raise if a coefficient array leaves the value space.

        The error names the first member over :data:`MEMBERSHIP_TOL`.
        """
        res = self.membership_residual()
        bad = res > MEMBERSHIP_TOL
        if bad.any():
            key = self.expo[:, 0]
            i = int(key[bad].min())
            raise ValueError(
                f"coefficients violate the {self.space} characterization "
                f"(member {i}: residual {res[key == i].max():.3e} > {MEMBERSHIP_TOL:.1e})"
            )
        return self


def _group(expo):
    """Group equal exponent rows: the sort order, the distinct sorted rows,
    and the group of each sorted row."""
    order = np.lexsort(expo.T[::-1])  # stable; the first column most significant
    expo = expo[order]
    first = np.ones(len(expo), dtype=bool)
    first[1:] = (expo[1:] != expo[:-1]).any(axis=1)
    return order, expo[first], np.cumsum(first) - 1


def _increasing(expo):
    """Whether the rows are strictly increasing, the first column most significant."""
    step = expo[1:] - expo[:-1]
    lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
    return bool((lead > 0).all())


def _canonical(expo, vals):
    """Sum rows with equal exponents, sort them, and drop zero rows."""
    if not len(expo):
        return expo, vals
    if _increasing(expo):
        # nothing to sort or sum; adding 0.0 turns -0.0 into 0.0, as the
        # zero-initialized sum below does, so both routes agree bitwise
        keep = vals.reshape(len(vals), -1).any(axis=1)
        return expo[keep], vals[keep] + 0.0
    order, rows, group = _group(expo)
    # bincount adds a group's rows one at a time in input order, into zeros;
    # a reduceat may regroup them, and terms that cancel exactly then leave
    # roundoff.  Real and imaginary parts add separately, as complex sums do.
    size = vals[0].size
    bins = (group[:, None] * size + np.arange(size)).reshape(-1)
    flat = vals[order].reshape(-1)
    acc = np.empty(len(rows) * size, dtype=complex)
    acc.real = np.bincount(bins, flat.real, len(acc))
    acc.imag = np.bincount(bins, flat.imag, len(acc))
    acc = acc.reshape((len(rows),) + vals.shape[1:])
    keep = acc.any(axis=tuple(range(1, acc.ndim)))
    return rows[keep], acc[keep]


def stack(f, count):
    """The dense stack of a scalar field with `count` members.

    One field of key 0 whose ``vals`` have shape (T, count, s): the rows are
    the union of the members' exponent rows, and member b's coefficients sit
    at ``vals[:, b]``, zero on the rows it lacks.  Every scalar operator
    broadcasts over the batch axis, so one call acts on all members, and
    :func:`member_norms` reads the norms back per member.
    """
    if f.order:
        raise ValueError("a stack is built from scalar members")
    key = _key(f, count)
    order, rows, group = _group(f.expo[:, 1:])
    vals = np.zeros((len(rows), count) + f.vals.shape[1:], dtype=complex)
    vals[group, key[order]] = f.vals[order]
    return PolyField(f.k, f.n, f.space, rows, vals)


def member_norms(f):
    """The norm of each member of a stack, shape (B,)."""
    axes = (0,) + tuple(range(2, f.vals.ndim))
    return np.sqrt((np.abs(f.vals) ** 2).sum(axis=axes))


def _key(f, count):
    """The member index of each row of a field with `count` members."""
    key = f.expo[:, 0]
    if key.max(initial=-1) >= count:
        raise ValueError(f"member index {key.max()} out of range for {count} members")
    return key


def _members(f, count):
    """The count + 1 bounds of the members' row slices in a field.

    Rows are member-major, so each member's rows are contiguous and keep the
    order the member alone would have.
    """
    return np.searchsorted(_key(f, count), np.arange(count + 1))


def keyed_norms(f, count):
    """Each member's norm, shape (count,), bitwise equal to its ``norm()``.

    A member's norm sums its own contiguous slice, as the member alone
    would; one ``bincount`` over all rows would add in another order.
    """
    sq = np.abs(f.vals) ** 2
    bounds = _members(f, count)
    return np.sqrt([sq[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])])


def keyed_residuals(f, count):
    """Each member's largest ``membership_residual()``, shape (count,), bitwise.

    One batched characterization call gives every row's residual, reduced
    within the row as for the member alone; then a maximum per member.
    """
    out = np.zeros(count)
    np.maximum.at(out, _key(f, count), f.membership_residual())
    return out


def _partial(expo, vals, idx):
    """d/dx_idx on (expo, vals), idx = A*n + j; canonical in, canonical out.

    Variable idx is ``expo`` column 1 + idx.  Only rows with a positive
    exponent survive, and decrementing one column of all of them keeps them
    unique and in member-major order.
    """
    p = expo[:, 1 + idx]
    keep = p > 0
    out = expo[keep]
    out[:, 1 + idx] -= 1
    return out, vals[keep] * p[keep].reshape((-1,) + (1,) * (vals.ndim - 1))


def _linear_combination(f, g, sign):
    if (f.k, f.n, f.space) != (g.k, g.n, g.space):
        raise ValueError("fields live in different spaces")
    return PolyField(f.k, f.n, f.space, np.concatenate((f.expo, g.expo)),
                     np.concatenate((f.vals, sign * g.vals)))


def draw_width(k, n, space, degree, nterms):
    """The uniforms one member of a draw role takes: per term, one for its
    degree, `degree` for its variables and two per coefficient entry."""
    size = k ** SPACE_INFO[space][0] * spinor_dim(n)
    return nterms * (1 + degree + 2 * size)


def random_keyed(k, n, space, u, degree=3, nterms=8):
    """The sample-keyed field drawn from uniforms `u`, member b from row b.

    `u` has shape (B, :func:`draw_width`), values in [0, 1), laid out term
    after term.  A term's first uniform gives its total degree
    ``floor(u (degree + 1))``; the next `degree` give its variables
    ``floor(u k n)``, of which the first (total degree) are used; the rest,
    in pairs (u1, u2) per coefficient entry, a standard complex Gaussian by
    Box-Muller, ``sqrt(-2 log(1 - u1)) exp(2 pi i u2)``.  V2/V3 coefficients
    are projected into the module.  One projector call, one canonicalisation
    and one ``validate()`` serve every member; repeated monomials within a
    member add up.
    """
    order, _, lam = SPACE_INFO[space]
    shape = (k,) * order + (spinor_dim(n),)
    count, kn = len(u), k * n
    u = u.reshape(count * nterms, -1)
    used = np.arange(degree) < (u[:, :1] * (degree + 1)).astype(np.int64)
    var = (u[:, 1:1 + degree] * kn).astype(np.int64) + kn * np.arange(len(u))[:, None]
    expo = np.bincount(var[used], minlength=len(u) * kn).reshape(len(u), kn)
    pair = u[:, 1 + degree:].reshape((len(u),) + shape + (2,))
    coeffs = np.sqrt(-2.0 * np.log1p(-pair[..., 0])) * np.exp(2j * np.pi * pair[..., 1])
    if lam is not None:  # one projector call, the term axis trailing
        coeffs = np.moveaxis(weyl.apply_projector(lam, np.moveaxis(coeffs, 0, -1)), -1, 0)
    key = np.repeat(np.arange(count), nterms)
    return PolyField(k, n, space, np.column_stack([key, expo]), coeffs).validate()

