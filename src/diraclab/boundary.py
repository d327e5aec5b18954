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
operator.
"""

from dataclasses import dataclass

import numpy as np

from .dirac_ops import d0, nabla
from .fields import PolyField, _canonical, _partial, make_field


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


class SpinorFactor:
    """Constant multiplication operator with chirality blocks.

    plus maps S+ -> S-, minus maps S- -> S+ (the shape every gamma-built
    factor has).  Applying it flips the chirality of a scalar field.
    """

    def __init__(self, plus, minus):
        self.plus = plus
        self.minus = minus

    def apply(self, f):
        mat = self.plus if f.chirality > 0 else self.minus
        target = "S-" if f.chirality > 0 else "S+"
        if not len(f):
            return PolyField(f.k, f.n, target)
        return PolyField(f.k, f.n, target, f.expo, np.einsum("st,...t->...s", mat, f.vals))


def nabla_phi_factor(chart, rep, A):
    """The constant factor nabla_A phi = sum_j gamma_j (d_{Aj} phi)."""
    g = chart.grad_phi()[A]
    plus = np.einsum("j,jst->st", g, rep.gamma_plus)
    minus = np.einsum("j,jst->st", g, rep.gamma_minus)
    return SpinorFactor(plus, minus)


def inv_nabla0_phi_factor(chart, rep):
    """Inverse of the nabla_0 phi factor.

    The gammas square to -1, so the factor squares to the scalar
    -|grad_0 phi|^2, which never vanishes (the x_{01} coefficient of phi is
    1); the inverse is the factor itself divided by that scalar.
    """
    g0 = chart.grad_phi()[0]
    norm2 = float((g0**2).sum())
    base = nabla_phi_factor(chart, rep, 0)
    return SpinorFactor(-base.plus / norm2, -base.minus / norm2)


def dx(A, j, f):
    """Scalar partial derivative with respect to x_{A, j+1} (0-based j)."""
    return PolyField(f.k, f.n, f.space, *_partial(f.expo, f.vals, A * f.n + j))


def apply_t(chart, rep, f):
    """The tangential scalar-like field T (chirality preserving)."""
    inv = inv_nabla0_phi_factor(chart, rep)
    return inv.apply(nabla(0, f, rep)) - dx(0, 0, f)


def apply_z(chart, rep, mu, f):
    """The tangential Dirac field Z_mu, mu = 1..k-1 (chirality flipping)."""
    if not 1 <= mu < f.k:
        raise ValueError(f"tangential index must lie in 1..{f.k - 1}, got {mu}")
    inv = inv_nabla0_phi_factor(chart, rep)
    fac = nabla_phi_factor(chart, rep, mu)
    return nabla(mu, f, rep) - fac.apply(inv.apply(nabla(0, f, rep)))


def apply_zt_commutator(chart, rep, mu, f):
    return apply_z(chart, rep, mu, apply_t(chart, rep, f)) - apply_t(
        chart, rep, apply_z(chart, rep, mu, f)
    )


@dataclass(frozen=True)
class TangentialFrame:
    """Constant-coefficient forms of the Z_mu and T operators.

    z_coeffs[mu-1] and t_coeffs map a variable index (B, j) to the matrix
    multiplying d_{B,j} when the operator acts on S+ valued fields.
    """

    k: int
    n: int
    z_coeffs: tuple
    t_coeffs: dict


def tangential_fields(chart, rep):
    """Coefficient forms of the tangential frame on the S+ side."""
    inv = inv_nabla0_phi_factor(chart, rep)
    zs = []
    for mu in range(1, chart.k):
        fac = nabla_phi_factor(chart, rep, mu)
        carry = fac.plus @ inv.minus  # S- -> S- factor in front of nabla_0
        coeffs = {}
        for j in range(chart.n):
            coeffs[(mu, j)] = rep.gamma_plus[j].copy()
            coeffs[(0, j)] = coeffs.get((0, j), 0) - carry @ rep.gamma_plus[j]
        zs.append(coeffs)
    t_coeffs = {}
    for j in range(chart.n):
        t_coeffs[(0, j)] = inv.minus @ rep.gamma_plus[j]
    t_coeffs[(0, 0)] = t_coeffs[(0, 0)] - np.eye(rep.s_dim)
    return TangentialFrame(chart.k, chart.n, tuple(zs), t_coeffs)


def defining_polynomial(chart, rep, spinor=None):
    """phi times a constant spinor, as an S+ valued field."""
    if spinor is None:
        spinor = np.zeros(rep.s_dim, dtype=complex)
        spinor[0] = 1.0
    spinor = np.asarray(spinor, dtype=complex)
    k, n = chart.k, chart.n
    terms = {}
    e01 = [0] * (k * n)
    e01[0] = 1
    terms[tuple(e01)] = spinor.copy()
    for A in range(k):
        for j in range(n):
            c = chart.rho_coeffs[A, j]
            if c == 0.0:
                continue
            e = [0] * (k * n)
            e[A * n + j] = 1
            terms[tuple(e)] = terms.get(tuple(e), 0) - c * spinor
    return make_field(k, n, "S+", terms, validate=False)


def _require_surface_function(f):
    if f.expo[:, 0].any():
        raise ValueError("field must not depend on the defining variable x_{01}")


def script_d0(chart, rep, fhat):
    """First boundary operator: fhat -> (Z_mu fhat, -Z_mu T fhat).

    fhat must be an S+ valued field in the surface variables (independent of
    x_{01}).  Both output tuples have k-1 components of S- valued fields.
    """
    if fhat.space not in ("V0", "S+"):
        raise ValueError(f"boundary data must be S+ valued, got {fhat.space}")
    _require_surface_function(fhat)
    f = PolyField(fhat.k, fhat.n, "S+", fhat.expo, fhat.vals)
    tf = apply_t(chart, rep, f)
    first = tuple(apply_z(chart, rep, mu, f) for mu in range(1, chart.k))
    second = tuple(
        apply_z(chart, rep, mu, tf).scale(-1.0) for mu in range(1, chart.k)
    )
    return first, second


def pi1_kernel_check(chart, rep, F, Fprime):
    """Residual of the boundary projection on canonical zero-Cauchy data.

    Builds the V1 jet ``hatF_A = (nabla_A phi) F`` at order zero and
    ``hatF'_A = nabla_A F + (nabla_A phi) F'`` at order one, pushes it
    through the quotient-map formulas, and returns the largest norm among
    the outputs, which must vanish identically.
    """
    inv = inv_nabla0_phi_factor(chart, rep)
    hat = [nabla_phi_factor(chart, rep, A).apply(F) for A in range(chart.k)]
    hatp = [
        nabla(A, F, rep) + nabla_phi_factor(chart, rep, A).apply(Fprime)
        for A in range(chart.k)
    ]
    core = inv.apply(hat[0])  # S+ valued
    inner = hatp[0] - nabla(0, core, rep)
    worst = 0.0
    for mu in range(1, chart.k):
        fac = nabla_phi_factor(chart, rep, mu)
        f1 = hat[mu] - fac.apply(inv.apply(hat[0]))
        f2 = hatp[mu] - nabla(mu, core, rep) - fac.apply(inv.apply(inner))
        worst = max(worst, f1.norm(), f2.norm())
    return worst


def restrict_to_chart(f, chart):
    """Substitute x_{01} = rho(rest), yielding a surface field."""
    space = f.space if f.space != "V0" else "S+"
    if not len(f):
        return PolyField(f.k, f.n, space)
    kn = f.k * f.n
    lin = np.flatnonzero(chart.rho_coeffs.reshape(-1))
    rho_e = np.eye(kn, dtype=np.int64)[lin]
    rho_c = chart.rho_coeffs.reshape(-1)[lin]
    base = f.expo.copy()
    base[:, 0] = 0
    # power_e, power_c: exponents and coefficients of rho**p, p = 0, 1, ...
    power_e, power_c = np.zeros((1, kn), dtype=np.int64), np.ones(1)
    expo, vals = [], []
    for p in range(int(f.expo[:, 0].max()) + 1):
        if p:
            power_e, power_c = _canonical(
                (power_e[:, None] + rho_e[None]).reshape(-1, kn),
                (power_c[:, None] * rho_c[None]).reshape(-1),
            )
        rows = f.expo[:, 0] == p
        expo.append((base[rows][:, None] + power_e[None]).reshape(-1, kn))
        vals.append(np.einsum("m,t...->tm...", power_c, f.vals[rows])
                    .reshape((-1,) + f.vals.shape[1:]))
    return PolyField(f.k, f.n, space, np.concatenate(expo), np.concatenate(vals))


def restrict_and_test(f, chart, rep, tol=1e-10):
    """Restrict a monogenic field to the chart and test tangential monogenicity."""
    fnorm = f.norm()
    defect = d0(f, rep).norm()
    if defect > tol * max(fnorm, 1.0):
        raise ValueError(
            f"input is not monogenic (|d0 f| = {defect:.3e} > tol * |f|)"
        )
    fhat = restrict_to_chart(f, chart)
    first, second = script_d0(chart, rep, fhat)
    r1 = max((g.norm() for g in first), default=0.0)
    r2 = max((g.norm() for g in second), default=0.0)
    return {
        "input_norm": fnorm,
        "z_residual": r1,
        "zt_residual": r2,
        "pass": max(r1, r2) <= tol * max(fnorm, 1.0),
    }
