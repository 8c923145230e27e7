"""Real symmetric linear algebra built on one Lanczos recurrence.

A single Lanczos loop with full (two-pass) reorthogonalization serves two
solvers: :func:`lanczos_ground`, the lowest eigenpair from a random start,
stopped on its residual; and :func:`lanczos_survival`, the survival amplitude
<psi0| exp(-i A t) |psi0> on a time grid from a start at psi0, by Gauss
quadrature of psi0's spectral measure.  Sparse Hamiltonians are never
densified on these paths.

The dense eigendecomposition (:func:`eigh_dense`, through LAPACK's
``numpy.linalg.eigh``) and :func:`spectral_propagate` remain as the reference
the Krylov solvers are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import InputError, NumericError

DENSE_THRESHOLD_DEFAULT = 4096
SURVIVAL_TOL = 1e-12
SURVIVAL_CHECK_EVERY = 20

ApplyLike = Union["SymmetricMatrix", np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SymmetricMatrix:
    """Real symmetric matrix; only the upper triangle is authoritative.

    Exactly one storage is populated: ``dense`` holds a full square array
    (symmetrized from its upper triangle), or ``rows``/``cols``/``vals``
    hold sorted upper-triangle coordinates with ``rows <= cols``.
    """

    dim: int
    dense: np.ndarray | None = None
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    vals: np.ndarray | None = None

    def __post_init__(self):
        if self.dim <= 0:
            raise InputError("matrix dimension must be positive")
        if (self.dense is None) == (self.vals is None):
            raise InputError("exactly one of dense or coordinate storage must be set")
        if self.dense is not None:
            if self.dense.shape != (self.dim, self.dim):
                raise InputError("dense storage shape does not match dim")
            if not np.all(np.isfinite(self.dense)):
                raise InputError("matrix entries must be finite")
        else:
            if not np.all(np.isfinite(self.vals)):
                raise InputError("matrix entries must be finite")
            if np.any(self.rows > self.cols):
                raise InputError("coordinate storage must satisfy row <= col")
            if np.any(self.rows < 0) or np.any(self.cols >= self.dim):
                raise InputError("coordinate indices out of range")
            object.__setattr__(self, "_csr", self._build_csr())

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SymmetricMatrix":
        """Wrap a square array; only its upper triangle is read."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("expected a square 2-d array")
        upper = np.triu(a)
        full = upper + np.triu(a, 1).T
        return cls(dim=a.shape[0], dense=full)

    @classmethod
    def from_upper(cls, dim: int, rows, cols, vals) -> "SymmetricMatrix":
        """Build from upper-triangle coordinates; duplicates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape):
            raise InputError("rows, cols, vals must have equal length")
        if rows.size:
            key = rows * dim + cols
            uniq, inv = np.unique(key, return_inverse=True)
            vals = np.bincount(inv, weights=vals, minlength=uniq.size)
            rows = uniq // dim
            cols = uniq % dim
        return cls(dim=dim, rows=rows, cols=cols, vals=vals)

    def _build_csr(self):
        off = self.rows < self.cols
        r = np.concatenate([self.rows, self.cols[off]])
        c = np.concatenate([self.cols, self.rows[off]])
        v = np.concatenate([self.vals, self.vals[off]])
        return scipy.sparse.csr_matrix((v, (r, c)), shape=(self.dim, self.dim))

    @property
    def is_dense(self) -> bool:
        return self.dense is not None

    @property
    def nnz_upper(self) -> int:
        if self.is_dense:
            return int(np.count_nonzero(np.triu(self.dense)))
        return int(self.vals.size)

    def to_dense(self) -> np.ndarray:
        if self.is_dense:
            return self.dense.copy()
        a = np.zeros((self.dim, self.dim))
        a[self.rows, self.cols] = self.vals
        off = self.rows < self.cols
        a[self.cols[off], self.rows[off]] = self.vals[off]
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self.is_dense:
            return self.dense @ x
        return self._csr @ x

    def frobenius(self) -> float:
        if self.is_dense:
            return float(np.linalg.norm(self.dense))
        off = self.rows < self.cols
        return float(math.sqrt(np.sum(self.vals**2) + np.sum(self.vals[off] ** 2)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a real symmetric matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray

    def ground(self) -> tuple[float, np.ndarray]:
        return float(self.values[0]), self.vectors[:, 0]

    def validate(self, matrix: SymmetricMatrix | None = None, *,
                 ortho_tol: float = 1e-10, residual_tol: float = 1e-8) -> None:
        """Raise NumericError if ordering, orthonormality or residuals fail."""
        if np.any(np.diff(self.values) < 0):
            raise NumericError("eigenvalues are not non-decreasing")
        gram = self.vectors.T @ self.vectors
        dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        if dev > ortho_tol:
            raise NumericError(f"eigenvector set not orthonormal: max deviation {dev:.3e}")
        if matrix is not None:
            scale = matrix.frobenius()
            resid = matrix.matvec(self.vectors) - self.vectors * self.values
            worst = float(np.max(np.linalg.norm(resid, axis=0)))
            if worst > residual_tol * max(scale, 1e-300):
                raise NumericError(
                    f"eigenpair residual {worst:.3e} exceeds {residual_tol:.1e} * |A|_F")


def _first_significant(v: np.ndarray, thresh: float) -> int:
    idx = np.nonzero(np.abs(v) > thresh)[0]
    return int(idx[0]) if idx.size else v.size


def _canonical_order(values: np.ndarray, vectors: np.ndarray, scale: float):
    """Deterministic post-pass: re-orthonormalize degenerate clusters, break
    exact ordering ties by first significant component, fix global signs."""
    n = values.size
    cluster_gap = 1e-10 * max(scale, 1.0)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop] - values[stop - 1] < cluster_gap:
            stop += 1
        if stop - start > 1:
            block = vectors[:, start:stop]
            gram = block.T @ block
            if np.max(np.abs(gram - np.eye(stop - start))) > 1e-13:
                q, _ = np.linalg.qr(block)
                vectors[:, start:stop] = q
            # exact ties: order deterministically by leading support
            exact = np.nonzero(np.diff(values[start:stop]) == 0.0)[0]
            if exact.size:
                keys = [_first_significant(vectors[:, k], 1e-8) for k in range(start, stop)]
                order = np.argsort(np.asarray(keys), kind="stable")
                if np.all(values[start:stop][order] == values[start:stop]):
                    vectors[:, start:stop] = vectors[:, start:stop][:, order]
        start = stop
    for k in range(n):
        col = vectors[:, k]
        lead = _first_significant(col, 1e-8 * max(np.max(np.abs(col)), 1e-300))
        if lead < col.size and col[lead] < 0:
            vectors[:, k] = -col
    return values, vectors


def eigh_dense(matrix: SymmetricMatrix | np.ndarray, *,
               dense_threshold: int = DENSE_THRESHOLD_DEFAULT) -> EigenDecomposition:
    """Full eigendecomposition of a real symmetric matrix.

    The matrix must fit below ``dense_threshold``; larger problems belong to
    :func:`lanczos_ground`.
    """
    if isinstance(matrix, np.ndarray):
        matrix = SymmetricMatrix.from_dense(matrix)
    if matrix.dim > dense_threshold:
        raise InputError(
            f"dim {matrix.dim} exceeds dense threshold {dense_threshold}")
    a = matrix.to_dense()
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise NumericError(f"dense eigensolver failed to converge: {err}") from err
    values, vectors = _canonical_order(values, vectors, matrix.frobenius())
    return EigenDecomposition(np.ascontiguousarray(values),
                              np.ascontiguousarray(vectors))


def _as_matvec(apply: ApplyLike, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(apply, SymmetricMatrix):
        if apply.dim != dim:
            raise InputError("operator dimension does not match dim")
        return apply.matvec
    if isinstance(apply, np.ndarray):
        if apply.shape != (dim, dim):
            raise InputError("operator array shape does not match dim")
        return lambda x: apply @ x
    if callable(apply):
        return apply
    raise InputError("apply must be a SymmetricMatrix, ndarray or callable")


def _tridiag_ground(alphas: np.ndarray, betas: np.ndarray):
    w, v = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i",
                                         select_range=(0, 0))
    return float(w[0]), v[:, 0]


def _norm_estimate(alphas: np.ndarray, betas: np.ndarray) -> float:
    """Gershgorin-style bound on the projected operator's norm."""
    return float(np.max(np.abs(alphas))
                 + (np.max(np.abs(betas)) if betas.size else 0.0)) or 1.0


def _lanczos(matvec, start: np.ndarray, cap: int):
    """Lanczos recurrence with two-pass full reorthogonalization.

    Yields ``(basis, alphas, betas, beta)`` after each step: the k Lanczos
    vectors as the rows of ``basis``, the k x k tridiagonal projection
    (diagonal ``alphas``, off-diagonal ``betas``) and the norm ``beta`` of the
    next residual vector.  The views are only valid until the next step.
    Ends after ``cap`` steps, when the Krylov space fills the whole space, or
    at a breakdown (``beta`` negligible against the projection's norm), where
    the Krylov space is invariant and the projection exact on it.
    """
    dim = start.size
    basis = np.empty((cap, dim))
    alphas = np.empty(cap)
    betas = np.empty(cap)
    q = start / np.linalg.norm(start)
    for k in range(cap):
        basis[k] = q
        w = matvec(q)
        alphas[k] = float(q @ w)
        w = w - alphas[k] * q
        if k:
            w = w - betas[k - 1] * basis[k - 1]
        done = basis[:k + 1]
        w = w - (done @ w) @ done
        w = w - (done @ w) @ done
        beta = float(np.linalg.norm(w))
        yield done, alphas[:k + 1], betas[:k], beta
        if k == dim - 1:
            return
        if beta <= 1e3 * np.finfo(float).eps * _norm_estimate(alphas[:k + 1], betas[:k]):
            return
        betas[k] = beta
        q = w / beta


@dataclass(frozen=True)
class LanczosInfo:
    """What a Lanczos ground-state solve did: Lanczos steps taken in the
    final run and the residual estimate |A v - E v| it stopped at."""

    iterations: int
    residual: float


def _ground_run(matvec, start, tol, cap):
    """One Lanczos run toward the lowest eigenpair; the Ritz vector is
    formed once, on exit."""
    converged = False
    for basis, alphas, betas, beta in _lanczos(matvec, start, cap):
        theta, s = _tridiag_ground(alphas, betas)
        resid = beta * abs(s[-1])
        normest = _norm_estimate(alphas, betas)
        if resid <= tol * normest:
            converged = True
            break
    k = alphas.size
    if converged or k == start.size:
        # an exhausted Krylov space makes the tridiagonal problem the full one
        status = "converged"
    elif k < cap:
        status = "breakdown"
    else:
        status = "maxiter"
    ritz = s @ basis
    nrm = np.linalg.norm(ritz)
    if nrm > 0:
        ritz = ritz / nrm
    return theta, ritz, resid, normest, k, status


def lanczos_ground(apply: ApplyLike, dim: int, tol: float = 1e-10, *,
                   max_iter: int | None = None, seed: int = 0,
                   max_restarts: int = 3):
    """Lowest eigenpair of a real symmetric operator via Lanczos iteration.

    Parameters
    ----------
    apply : SymmetricMatrix, ndarray or callable
        Symmetric operator, or a matrix-vector oracle x -> A x.
    dim : int
        Operator dimension.
    tol : float
        Convergence threshold on the residual |A v - E v| relative to a
        Gershgorin estimate of |A|.
    max_iter, seed, max_restarts
        Iteration cap (default min(dim, 600)), RNG seed for the start
        vector, and number of perturbed restarts after a Krylov breakdown.

    Returns
    -------
    (energy, vector, info)
        Ritz value, unit-norm Ritz vector for the ground state, and a
        :class:`LanczosInfo` with the step count and residual.
    """
    if dim < 1:
        raise InputError("dim must be positive")
    if not tol > 0:
        raise InputError("tol must be positive")
    matvec = _as_matvec(apply, dim)
    if dim == 1:
        e = float(matvec(np.ones(1))[0])
        return e, np.ones(1), LanczosInfo(iterations=1, residual=0.0)
    cap = int(max_iter) if max_iter else min(dim, 600)
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(dim)
    best = None
    for _ in range(max_restarts + 1):
        theta, vector, resid, normest, k, status = _ground_run(matvec, start, tol, cap)
        if status == "converged":
            lead = int(np.argmax(np.abs(vector)))
            if vector[lead] < 0:
                vector = -vector
            return theta, vector, LanczosInfo(iterations=k, residual=float(resid))
        if best is None or resid < best[2]:
            best = (theta, vector, resid, normest)
        if status == "breakdown":
            start = vector + 0.05 * rng.standard_normal(dim)
        else:
            break
    raise NumericError(
        f"Lanczos did not converge within {cap} iterations: residual "
        f"{best[2]:.3e} vs bound {tol * best[3]:.3e}")


def lanczos_survival(apply: ApplyLike, psi0: np.ndarray, t, *,
                     max_iter: int | None = None) -> tuple[np.ndarray, int]:
    """Survival amplitude <psi0| exp(-i A t) |psi0> on a time grid by Lanczos
    tridiagonalization seeded with ``psi0``.

    After k steps the amplitude is the k-point Gauss quadrature of psi0's
    spectral measure, A(t) = sum_j s_j[0]^2 exp(-i theta_j t), from the
    eigenpairs (theta_j, s_j) of the tridiagonal projection.  Every
    ``SURVIVAL_CHECK_EVERY`` steps the echo |A|^2 on the grid is compared
    with the previous check; the run stops once it moves by at most
    ``SURVIVAL_TOL``.  The echo, not the amplitude, is tested because the
    amplitude carries a round-off phase drift of order eps |A| t that no
    depth removes.  A Krylov space that fills the space, or closes at a
    breakdown, gives the exact amplitude.

    Returns ``(amplitude, depth)`` with ``depth`` the number of Lanczos
    steps.  Raises NumericError if the echo has not settled within
    ``max_iter`` steps (default min(dim, 600)).
    """
    psi0 = np.asarray(psi0, dtype=float)
    if psi0.ndim != 1:
        raise InputError("psi0 must be a 1-d state vector")
    dim = psi0.size
    nrm = float(np.linalg.norm(psi0))
    if abs(nrm - 1.0) > 1e-6:
        raise InputError(f"psi0 must be unit norm (got {nrm:.8f})")
    matvec = _as_matvec(apply, dim)
    t = np.asarray(t, dtype=float)
    cap = int(max_iter) if max_iter else min(dim, 600)

    def amplitude(alphas, betas):
        theta, s = scipy.linalg.eigh_tridiagonal(alphas, betas)
        return np.exp(-1j * np.multiply.outer(t, theta)) @ (s[0] ** 2)

    previous, change = None, math.inf
    for _, alphas, betas, _ in _lanczos(matvec, psi0, cap):
        k = alphas.size
        if k % SURVIVAL_CHECK_EVERY and k < cap:
            continue
        amp = amplitude(alphas, betas)
        echo = np.abs(amp) ** 2
        if previous is not None:
            change = float(np.max(np.abs(echo - previous)))
            if change <= SURVIVAL_TOL:
                return amp, k
        previous = echo
    if k == dim or k < cap:
        return amplitude(alphas, betas), k
    raise NumericError(
        f"Lanczos echo did not settle within {cap} steps: last change "
        f"{change:.3e} vs tolerance {SURVIVAL_TOL:.1e}")


def spectral_propagate(decomp: EigenDecomposition, psi0: np.ndarray, t):
    """Survival amplitude <psi0| exp(-i H t) |psi0> from a full spectrum.

    ``t`` may be a scalar or an array; the amplitude is returned with the
    matching shape.
    """
    psi0 = np.asarray(psi0, dtype=float)
    if psi0.shape != (decomp.values.size,):
        raise InputError("state dimension does not match the decomposition")
    nrm = float(np.linalg.norm(psi0))
    if abs(nrm - 1.0) > 1e-6:
        raise InputError(f"psi0 must be unit norm (got {nrm:.8f})")
    weights = (decomp.vectors.T @ psi0) ** 2
    t_in = np.asarray(t, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(np.atleast_1d(t_in), decomp.values))
    amp = phases @ weights
    if t_in.ndim == 0:
        return complex(amp[0])
    return amp
