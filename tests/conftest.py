import numpy as np
import pytest
import scipy.sparse


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_sparse_symmetric(rng, dim, nnz_factor=4):
    """Random sparse symmetric csr_array helper shared by several suites:
    ``nnz_factor * dim`` upper-triangle draws (duplicates summed), mirrored."""
    nnz = nnz_factor * dim
    rows = rng.integers(0, dim, nnz)
    cols = rng.integers(0, dim, nnz)
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    vals = rng.standard_normal(nnz)
    off = lo < hi
    return scipy.sparse.csr_array(
        (np.concatenate([vals, vals[off]]),
         (np.concatenate([lo, hi[off]]), np.concatenate([hi, lo[off]]))),
        shape=(dim, dim))


def spectral_sum(values, vectors, psi, t):
    """Survival amplitude sum_j <j|psi>^2 exp(-i t E_j) from a full spectrum,
    the reference the Krylov echoes are checked against."""
    return np.exp(-1j * np.multiply.outer(t, values)) @ (vectors.T @ psi) ** 2
