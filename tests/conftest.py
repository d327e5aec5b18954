import numpy as np
import pytest

from diraclab import build_clifford, dirac_ops, random_field


@pytest.fixture(scope="session")
def reps():
    """Clifford data for the dimensions the suites sweep over."""
    return {n: build_clifford(n) for n in range(1, 5)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# dense oracle of the Weyl layer: the library composes Q[S_m] elements exactly
# and never forms these (k^m, k^m) matrices


def terms_matrix(x, k, m=None):
    """Dense matrix of a Q[S_m] element ``{p: coeff}`` on (C^k)^{m}, flattened.

    ``M_p`` maps ``h`` to ``h[i_{p[0]}, ..., i_{p[m-1]}]``.  The order m is
    read off the permutations; pass it for the empty (zero) element.
    """
    m = len(next(iter(x))) if m is None else m
    size = k**m
    rows = np.arange(size)
    digits = [(rows // k ** (m - 1 - t)) % k for t in range(m)]
    mat = np.zeros((size, size))
    for p, c in x.items():
        cols = np.zeros(size, dtype=np.int64)
        for t in range(m):
            cols += digits[p[t]] * k ** (m - 1 - t)
        np.add.at(mat, (rows, cols), float(c))
    return mat


def dense_image_basis(proj, rtol=1e-9):
    """Orthonormal basis of the column space of a dense idempotent matrix.

    Up to 1300 rows by a full SVD; above that, a seeded sketch of width
    round(trace) + 16 (an idempotent's rank is its trace).
    """
    size = proj.shape[0]
    if size <= 1300:
        u, s, _ = np.linalg.svd(proj)
    else:
        rank = int(round(np.trace(proj)))
        if rank == 0:
            return np.zeros((size, 0))
        sketch = np.random.default_rng(1).standard_normal((size, min(size, rank + 16)))
        u, s, _ = np.linalg.svd(proj @ sketch, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((size, 0))
    return u[:, : int((s > rtol * s[0]).sum())]


def principal_angles(basis_a, basis_b):
    """Principal angles (radians) between two orthonormal column spans.

    Computed from the sine (projection defect), which keeps full precision
    for nearly identical subspaces where the cosine formula saturates.
    """
    if basis_a.shape[1] != basis_b.shape[1]:
        raise ValueError(
            f"subspace dimensions differ: {basis_a.shape[1]} vs {basis_b.shape[1]}"
        )
    if basis_a.shape[1] == 0:
        return np.zeros(0)
    defect = basis_b - basis_a @ (basis_a.conj().T @ basis_b)
    sines = np.linalg.svd(defect, compute_uv=False)
    return np.arcsin(np.clip(sines, 0.0, 1.0))


# ---------------------------------------------------------------------------
# one-sample oracle of the complex suite: the library evaluates all samples
# of a check on one sample-keyed field


def complex_sample(rng, k, n, rep):
    """Draw one sample's random fields from rng; its residuals by check key.

    Each operator runs on one plain field, in the rng order the suite draws
    in: f, F, [h2], g, then the indices B, C, A."""
    val = {}
    f = random_field(rng, k, n, "V0", rep, degree=4, nterms=6)
    fn = max(f.norm(), 1e-300)
    df = dirac_ops.d0(f, rep)
    val["d1d0"] = dirac_ops.d1(df, rep).norm() / fn
    lap = dirac_ops.d0_star(df, rep) - dirac_ops.laplacian(f, rep)
    val["laplace"] = lap.norm() / fn

    F = random_field(rng, k, n, "V1", rep, degree=4, nterms=6)
    Fn = max(F.norm(), 1e-300)
    h = dirac_ops.d1(F, rep)
    hp = dirac_ops.d1_projector(F, rep)
    val["agree"] = (h - hp).norm() / Fn
    val["member"] = h.membership_residual() / Fn
    if k >= 3:  # for k = 2 the order-5 branch does not exist
        val["d2pd1"] = dirac_ops.d2p(h, rep).norm() / Fn
        val["d2ppd1"] = dirac_ops.d2pp(h, rep).norm() / Fn
        h2 = random_field(rng, k, n, "V2", rep, degree=2, nterms=5)
        h2n = max(h2.norm(), 1e-300)
        a = dirac_ops.d2p(h2, rep)
        b = dirac_ops.d2p_projector(h2, rep)
        c = dirac_ops.d2pp(h2, rep)
        d = dirac_ops.d2pp_projector(h2, rep)
        val["agree"] = max(val["agree"], (a - b).norm() / h2n, (c - d).norm() / h2n)
        val["member"] = max(val["member"], a.membership_residual() / h2n,
                            c.membership_residual() / h2n)
    g = random_field(rng, k, n, "V0", rep, degree=3, nterms=4)
    bidx = int(rng.integers(0, k))
    cidx = int(rng.integers(0, k))
    aidx = int(rng.integers(0, k))
    lhs = dirac_ops.delta_op(bidx, cidx, dirac_ops.nabla(aidx, g, rep), rep)
    rhs = dirac_ops.nabla(aidx, dirac_ops.delta_op(bidx, cidx, g, rep), rep)
    val["commute"] = (lhs - rhs).norm() / max(g.norm(), 1e-300)
    return val
