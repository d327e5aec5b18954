"""Sparse polynomial fields with values in the spaces of the complex.

A field is a finite sum of monomials ``x^alpha`` times a coefficient array,
stored as two arrays: ``expo``, an int64 matrix with one exponent row
(length k*n, indexed row-major by (vector variable A, direction j)) per
monomial, and ``vals``, the stacked coefficient arrays.  Coefficient arrays
carry the tensor axes of the value space first and the spinor axis last, so
the ``vals`` of a V2 field has shape (T, k, k, k, s).  The rows of ``expo``
are unique and sorted lexicographically, and no row of ``vals`` is zero; the
constructor restores this canonical form after every operation.

A stack of B scalar fields is one field whose ``vals`` carry a batch axis
just before the spinor axis, shape (T, B, s) (see :func:`stack`); the scalar
operators act on all members at once.

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
        self.expo, self.vals = _canonical(
            np.asarray(expo, dtype=np.int64).reshape(-1, k * n),
            np.asarray(vals, dtype=complex),
        )

    @property
    def terms(self):
        """Exponent tuple -> coefficient array, built from the arrays."""
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
        return int(self.expo.sum(axis=1).max()) if len(self) else -1

    def copy(self):
        return PolyField(self.k, self.n, self.space, self.expo, self.vals)

    def __add__(self, other):
        return _linear_combination(self, other, 1.0)

    def __sub__(self, other):
        return _linear_combination(self, other, -1.0)

    def scale(self, a):
        return PolyField(self.k, self.n, self.space, self.expo, a * self.vals)

    def membership_residual(self):
        """Largest characterization residual among the coefficient arrays."""
        lam = SPACE_INFO[self.space][2]
        if lam is None or not len(self):
            return 0.0
        rows = np.moveaxis(self.vals, 0, -1)  # one call, the row axis trailing
        return float(weyl.check_membership(lam, rows, rows=True).max())

    def validate(self, tol=MEMBERSHIP_TOL):
        if SPACE_INFO[self.space][2] is None:
            return self
        res = self.membership_residual()
        if res > tol:
            raise ValueError(
                f"coefficients violate the {self.space} characterization "
                f"(residual {res:.3e} > {tol:.1e})"
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
                         for g in members):
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
    the value space requires it.
    """
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
            (k,) * order + (s,)
        )
        if lam is not None:
            coeff = np.ascontiguousarray(weyl.apply_projector(lam, coeff))
        terms[expo] = terms.get(expo, 0) + coeff
    return make_field(k, n, space, terms)


def evaluate(f, x):
    """Evaluate a field at a point x (flat array of length k*n)."""
    if not len(f):
        return 0.0
    mono = np.prod(np.asarray(x, dtype=float) ** f.expo, axis=1)
    return np.tensordot(mono, f.vals, axes=1)
