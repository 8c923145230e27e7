import math

import numpy as np
import pytest
import scipy.sparse

from qptscale import TruncatedDicke


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


def dicke_systems(n_atoms, n_boson, *couplings):
    """One truncated Dicke system at omega = omega0 = 1 per coupling, all on
    the same basis: the argument pairs of ``fidelity_exact`` and
    ``echo_exact``."""
    return [TruncatedDicke(n_atoms, n_boson, 1.0, 1.0, c) for c in couplings]


def dicke_reference(spec):
    """Dense truncated Dicke Hamiltonian written out element by element, the
    oracle for ``build_hamiltonian``: basis index n * (N + 1) + (m + j),
    omega * n + omega0 * m on the diagonal, and between (n, m) and
    (n +/- 1, m +/- 1) the amplitude (coupling / sqrt(N)) * sqrt(boson
    factor) * sqrt(j(j+1) - m(m +/- 1)), the boson factor being n + 1 going
    up and n going down."""
    n_atoms, n_boson = spec.n_atoms, spec.n_boson
    j = n_atoms / 2.0
    width = n_atoms + 1
    g = spec.coupling / math.sqrt(n_atoms)
    h = np.zeros((n_boson * width, n_boson * width))
    for n in range(n_boson):
        for k in range(width):
            m = k - j
            row = n * width + k
            h[row, row] = spec.omega * n + spec.omega0 * m
            for dn, boson in ((1, n + 1), (-1, n)):
                for dm in (1, -1):
                    if 0 <= n + dn < n_boson and 0 <= k + dm < width:
                        col = (n + dn) * width + k + dm
                        h[row, col] = g * math.sqrt(boson) * math.sqrt(j * (j + 1) - m * (m + dm))
    return h


def dicke_parity_indices(spec):
    """Basis indices of the even and odd blocks of n + m + j, in the layout
    of ``dicke_reference`` (k = m + j, so n + k has the parity of n + m + j):
    the oracle for the indices of ``build_hamiltonian``'s blocks."""
    width = spec.n_atoms + 1
    blocks = ([], [])
    for n in range(spec.n_boson):
        for k in range(width):
            blocks[(n + k) % 2].append(n * width + k)
    return tuple(np.array(block, dtype=np.intp) for block in blocks)
