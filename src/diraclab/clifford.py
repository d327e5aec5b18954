"""Spinor modules S+/S- and Dirac gamma matrices for arbitrary n >= 1.

Construction convention (fixed so results are reproducible bit for bit):

* For even n = 2m, build 2m Hermitian anticommuting involutions E_1..E_2m on
  (C^2)^{tensor m} by the standard tensor recursion

      E_{2l-1} = s3^{(l-1)} (x) s1 (x) 1^{(m-l)}
      E_{2l}   = s3^{(l-1)} (x) s2 (x) 1^{(m-l)}

  with s1, s2, s3 the Pauli matrices.  The gamma matrices are g_j = i E_j,
  which square to -1 and are skew-adjoint.  The volume element of this family
  is s3^{(x)m}, already diagonal in the computational basis: a basis vector
  indexed by the bit string b has chirality (-1)^popcount(b).  S+ is spanned
  by the even-parity basis vectors (in increasing index order), S- by the
  odd-parity ones, and gamma_plus[j] / gamma_minus[j] are the two
  off-diagonal blocks of g_j in that ordering.

* For odd n, the even-case family for n+1 is built and the last generator is
  dropped; both blocks are taken over the resulting half-spin spaces, which
  makes S+ and S- the same coordinate space.

Each family E_1..E_2m is built once per m and shared by n = 2m - 1 and
n = 2m, from the family of m - 1.  Every E is the left-associated chain of
krons from [[1]], so the blocks are the same bytes, signed zeros included,
as when each E is built alone.

All matrix entries lie in {0, +-1, +-i}, so the algebraic identities below
hold exactly in double precision.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_PAULI1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class CliffordRep:
    """Gamma matrices of the half-spin representations.

    Attributes
    ----------
    n : int
        Spatial dimension.
    s_dim : int
        Dimension of S+ (equal to that of S-).
    gamma_plus : ndarray, shape (n, s_dim, s_dim)
        Blocks mapping S+ -> S-, one per generator.
    gamma_minus : ndarray, shape (n, s_dim, s_dim)
        Blocks mapping S- -> S+.

    The generators satisfy, blockwise,

        gamma_minus[j] @ gamma_plus[k] + gamma_minus[k] @ gamma_plus[j]
            = -2 delta_jk Id   on S+  (and symmetrically on S-),

    and skew-adjointness ``gamma_plus[j].conj().T == -gamma_minus[j]``.
    """

    n: int
    s_dim: int
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray


@lru_cache(maxsize=None)
def _hermitian_generators(m):
    """E_1..E_2m, one family per m (n = 2m - 1 and n = 2m share it), and the
    s3 prefix s3^{(x)m}, each a left-associated kron chain from [[1]].

    The chains of family m are those of family m - 1 extended by (x) 1, and
    the last two extend the prefix of family m - 1."""
    if m == 0:
        return (), np.array([[1.0 + 0.0j]])
    gens, prefix = _hermitian_generators(m - 1)
    gens = tuple(np.kron(e, _ID2) for e in gens) + tuple(
        np.kron(prefix, pauli) for pauli in (_PAULI1, _PAULI2))
    return gens, np.kron(prefix, _PAULI3)


def spinor_dim(n):
    """Dimension of S+ (equal to that of S-) for spatial dimension n >= 1.

    A bool is refused: True is an int, but not a dimension."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"spatial dimension must be a positive integer, got {n!r}")
    return 2 ** ((int(n) + 1) // 2 - 1)


@lru_cache(maxsize=None, typed=True)
def build_clifford(n):
    """Construct the spinor modules and gamma blocks for dimension n.

    Cached, as the rep is frozen and its arrays read-only; the cache is
    typed, so a float n is still refused once the int is built.

    Parameters
    ----------
    n : int
        Spatial dimension, n >= 1.

    Returns
    -------
    CliffordRep
    """
    dim = 2 * spinor_dim(n)
    n = int(n)
    gammas = 1j * np.stack(_hermitian_generators((n + 1) // 2)[0][:n])
    parity = np.array([bin(b).count("1") % 2 for b in range(dim)])
    plus = np.where(parity == 0)[0]
    minus = np.where(parity == 1)[0]
    gp = gammas[:, minus[:, None], plus]
    gm = gammas[:, plus[:, None], minus]
    gp.setflags(write=False)
    gm.setflags(write=False)
    return CliffordRep(n=n, s_dim=dim // 2, gamma_plus=gp, gamma_minus=gm)


def dirac_symbol(rep, xi):
    """Symbol of the Dirac operator in one vector variable at frequency xi.

    The only place the gamma matrices are contracted with a vector.  xi has
    shape (..., n); returns the pair ``(xi_plus, xi_minus)``, each of shape
    (..., s, s), with ``xi_plus = -i sum_j gamma_plus[j] xi[j]`` mapping
    S+ -> S- and ``xi_minus`` the S- -> S+ counterpart.  Their composition
    in either order is ``|xi|^2`` times the identity.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0 or xi.shape[-1] != rep.n:
        raise ValueError(f"xi must have shape (..., {rep.n}), got {xi.shape}")
    return (-1j * np.einsum("...j,jst->...st", xi, rep.gamma_plus),
            -1j * np.einsum("...j,jst->...st", xi, rep.gamma_minus))

