"""Tangential operators on affine hypersurface charts.

A chart is the zero set of ``phi(x) = x_{01} - rho(rest)`` with rho linear in
the remaining k*n - 1 variables and rho(0) = 0.  Because rho is affine, the
gradient of phi is constant, the multiplication operators built from it have
constant spinor matrices, and everything below stays exact polynomial
arithmetic.

The tangential frame consists of the fields

    Z_mu = nabla_mu - (nabla_mu phi)(nabla_0 phi)^{-1} nabla_0,   mu = 1..k-1
    T    = (nabla_0 phi)^{-1} nabla_0 - d_{01}

both of which annihilate phi identically.  Boundary data f with
``Z_mu f = 0`` and ``Z_mu T f = 0`` is the analogue of a CR function; the
pair (Z_mu f, -Z_mu T f) is the image of f under the induced first boundary
operator.  :func:`tangential_frame` applies T and every Z_mu with one
nabla_0 pass, its factors read from :func:`~diraclab.clifford.dirac_symbol`.

Every operator here acts on scalar fields, S+ valued (tag "V0") or S-
valued (tag "S-"), and broadcasts over a stack
(:func:`~diraclab.fields.stack`: ``vals`` of shape (T, B, s), the batch axis
just before the spinor axis).  The suite's batches are stacks from the
start: :func:`~diraclab.dirac_ops.monogenic_basis` returns one, and
:func:`defining_polynomial` gives phi times each basis spinor as one.  The
two certifying checks, :func:`restrict_and_test` (on one stack) and
:func:`pi1_kernel_check` (on two stacks), run one operator pass over all
members and return one value per member.
"""

from dataclasses import dataclass

import numpy as np

from .clifford import dirac_symbol
from .dirac_ops import nabla
from .fields import PolyField, _canonical, _partial, member_norms


@dataclass(frozen=True)
class HypersurfaceChart:
    """Affine chart x_{01} = rho(other variables), rho(0) = 0.

    rho_coeffs has shape (k, n); entry [A, j] multiplies x_{A, j}.  The
    [0, 0] entry corresponds to x_{01} itself and must be zero.
    """

    k: int
    n: int
    rho_coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.rho_coeffs, dtype=float)
        if coeffs.shape != (self.k, self.n):
            raise ValueError(f"rho coefficients must have shape ({self.k}, {self.n})")
        if coeffs[0, 0] != 0.0:
            raise ValueError("rho may not involve the defining variable x_{01}")
        object.__setattr__(self, "rho_coeffs", coeffs)

    def grad_phi(self):
        g = -self.rho_coeffs.copy()
        g[0, 0] = 1.0
        return g


def flat_chart(k, n):
    return HypersurfaceChart(k, n, np.zeros((k, n)))


def tilted_chart(k, n, coeffs=None):
    """A non-flat affine chart; by default rho = x_{02}."""
    rho = np.zeros((k, n))
    if coeffs is None:
        if n < 2:
            raise ValueError("default tilt needs n >= 2")
        rho[0, 1] = 1.0
    else:
        rho = np.asarray(coeffs, dtype=float).reshape(k, n).copy()
    return HypersurfaceChart(k, n, rho)


def frame_factors(chart, rep):
    """The frame's constant factors ``(fac, inv0)``.

    fac[:, A] = nabla_A phi is i times the Dirac symbol at grad_A phi, shape
    (2, k, s, s), [0] acting on S+ and [1] on S-.  The gammas square to -1,
    so inv0 = (nabla_0 phi)^{-1} = -fac[:, 0] / |grad_0 phi|^2, shape
    (2, s, s); the x_{01} coefficient 1 of phi keeps it finite.
    """
    g = chart.grad_phi()
    fac = 1j * np.stack(dirac_symbol(rep, g))
    return fac, -fac[:, 0] / float((g[0] ** 2).sum())


def _times(blocks, f):
    """f times the block of ``blocks`` (2, s, s) for its chirality, which flips."""
    mat, target = (blocks[0], "S-") if f.chirality > 0 else (blocks[1], "V0")
    return PolyField(f.k, f.n, target, f.expo, np.einsum("st,...t->...s", mat, f.vals))


def dx(A, j, f):
    """Scalar partial derivative with respect to x_{A, j+1} (0-based j)."""
    return PolyField(f.k, f.n, f.space, *_partial(f.expo, f.vals, A * f.n + j))


def tangential_frame(chart, rep, f):
    """The frame on f, a scalar field or stack of either chirality:
    ``(T f, (Z_1 f, ..., Z_{k-1} f))``.

    With w = (nabla_0 phi)^{-1} nabla_0 f, computed once, T f = w - d_{01} f
    keeps the chirality and Z_mu f = nabla_mu f - (nabla_mu phi) w flips it.
    """
    fac, inv0 = frame_factors(chart, rep)
    w = _times(inv0, nabla(0, f, rep))
    zs = tuple(nabla(mu, f, rep) - _times(fac[:, mu], w) for mu in range(1, f.k))
    return w - dx(0, 0, f), zs


def defining_polynomial(chart, rep):
    """phi times each basis spinor e_t, as one stack of s V0 (S+ valued) fields.

    phi is linear with the coefficients of :meth:`HypersurfaceChart.grad_phi`,
    so member t has the coefficient ``grad_phi * e_t`` on each variable.
    """
    g = chart.grad_phi().reshape(-1)
    lin = np.flatnonzero(g)
    return PolyField(chart.k, chart.n, "V0", np.eye(len(g), dtype=np.int64)[lin],
                     g[lin, None, None] * np.eye(rep.s_dim))


def script_d0(chart, rep, fhat):
    """First boundary operator: fhat -> (Z_mu fhat, -Z_mu T fhat).

    fhat must be a V0 (S+ valued) field in the surface variables (independent
    of x_{01}).  Both output tuples have k-1 components of S- valued fields.
    """
    if fhat.space != "V0":
        raise ValueError(f"boundary data must be V0 (S+ valued), got {fhat.space}")
    if fhat.expo[:, 1].any():
        raise ValueError("field must not depend on the defining variable x_{01}")
    tf, first = tangential_frame(chart, rep, fhat)
    second = tuple(g.scale(-1.0) for g in tangential_frame(chart, rep, tf)[1])
    return first, second


def _largest_norms(fields, size):
    """Per member, the largest norm among stacked fields (0 if there are none)."""
    return np.max([np.zeros(size)] + [member_norms(g) for g in fields], axis=0)


def pi1_kernel_check(chart, rep, F, Fprime):
    """Residuals of the boundary projection on canonical zero-Cauchy data.

    F and F' are stacks (:func:`~diraclab.fields.stack`) of B V0 fields
    each.  For each pair (F, F') of members, builds the V1 jet
    ``hatF_A = (nabla_A phi) F`` at order zero and
    ``hatF'_A = nabla_A F + (nabla_A phi) F'`` at order one, pushes it
    through the quotient-map formulas, and returns the largest norm among
    the outputs, which must vanish identically: an array with one value per
    pair.
    """
    count = F.vals.shape[1]
    if count != Fprime.vals.shape[1]:
        raise ValueError(f"{count} fields F but {Fprime.vals.shape[1]} fields F'")
    fac, inv0 = frame_factors(chart, rep)
    hat = [_times(fac[:, A], F) for A in range(chart.k)]
    hatp = [nabla(A, F, rep) + _times(fac[:, A], Fprime) for A in range(chart.k)]
    core = _times(inv0, hat[0])  # V0
    inner = hatp[0] - nabla(0, core, rep)
    outputs = []
    for mu in range(1, chart.k):
        outputs.append(hat[mu] - _times(fac[:, mu], core))
        outputs.append(hatp[mu] - nabla(mu, core, rep) - _times(fac[:, mu], _times(inv0, inner)))
    return _largest_norms(outputs, count)


def restrict_to_chart(f, chart):
    """Substitute x_{01} = rho(rest), yielding a surface field."""
    width = f.expo.shape[1]  # the key column, then x_{01} and the rest
    lin = np.flatnonzero(chart.rho_coeffs.reshape(-1))
    rho_e = np.eye(width, dtype=np.int64)[1 + lin]
    rho_c = chart.rho_coeffs.reshape(-1)[lin]
    base = f.expo.copy()
    base[:, 1] = 0
    # power_e, power_c: exponents (key 0) and coefficients of rho**p, p = 0, 1, ...
    power_e, power_c = np.zeros((1, width), dtype=np.int64), np.ones(1)
    expo, vals = [], []
    for p in range(int(f.expo[:, 1].max(initial=0)) + 1):
        if p:
            power_e, power_c = _canonical(
                (power_e[:, None] + rho_e[None]).reshape(-1, width),
                (power_c[:, None] * rho_c[None]).reshape(-1),
            )
        rows = f.expo[:, 1] == p
        expo.append((base[rows][:, None] + power_e[None]).reshape(-1, width))
        vals.append(np.einsum("m,t...->tm...", power_c, f.vals[rows])
                    .reshape((-1,) + f.vals.shape[1:]))
    return PolyField(f.k, f.n, f.space, np.concatenate(expo), np.concatenate(vals))


def restrict_and_test(f, chart, rep):
    """Restrict a stack of monogenic fields to the chart and measure their
    tangential monogenicity.

    `f` is a stack (:func:`~diraclab.fields.stack`) of B V0 fields.  Returns
    a dict of arrays with one entry per member: the input norms and the
    largest norms of the Z_mu and Z_mu T outputs.  Raises ValueError naming
    the index of the first member with |d0 f| > 1e-10 max(|f|, 1).
    """
    fnorm = member_norms(f)
    # |d0 f|^2 is the sum over A of |nabla_A f|^2
    defect = np.sqrt(sum(member_norms(nabla(A, f, rep)) ** 2 for A in range(f.k)))
    bad = np.flatnonzero(defect > 1e-10 * np.maximum(fnorm, 1.0))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"member {i} is not monogenic (|d0 f| = {defect[i]:.3e} > 1e-10 |f|)"
        )
    first, second = script_d0(chart, rep, restrict_to_chart(f, chart))
    return {
        "input_norm": fnorm,
        "z_residual": _largest_norms(first, len(fnorm)),
        "zt_residual": _largest_norms(second, len(fnorm)),
    }
