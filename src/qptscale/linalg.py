"""Real symmetric linear algebra built on one Lanczos recurrence, in numpy
alone.

One three-term Lanczos recurrence, with no stored basis and no
reorthogonalization, serves two solvers: :func:`lanczos_ground`, the lowest
eigenpair from a caller's start vector (a fixed Gaussian draw by default),
stopped on its residual, its Ritz vector summed by a second run that
replays the first; and :func:`lanczos_survival`, the survival amplitude
<psi0| exp(-i A t) |psi0> on a time grid from a start at psi0, by Gauss
quadrature of psi0's spectral measure.  Both take any real symmetric
operator with ``.shape`` and ``@`` (an ndarray, a :class:`GatherOperator`, a
``scipy.sparse`` array or a ``LinearOperator``), never densify it, and hold
a few vectors of length dim at any depth k, besides the k x k tridiagonal
projection.  Both test their stopping rule every ``KRYLOV_CHECK_EVERY``
steps by ``np.linalg.eigh`` of that projection; only a breakdown ends a run
between checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

SURVIVAL_TOL = 1e-12
KRYLOV_CHECK_EVERY = 20  # Lanczos steps between stopping-rule checks
KRYLOV_MAX_STEPS = 600   # Lanczos steps either solver may take


class GatherOperator:
    """A real symmetric operator on a subset of a basis, matrix-free, with
    ``.shape`` and ``@``: ``indices`` are the subset's indices in the full
    basis, ascending, and ``op @ x`` adds to ``diagonal * x`` one gather
    ``amplitudes[r] * x[neighbours[r]]`` per row r of the ``(k, dim)``
    arrays.  A missing neighbour points at entry 0 with amplitude 0."""

    def __init__(self, indices: np.ndarray, diagonal: np.ndarray,
                 neighbours: np.ndarray, amplitudes: np.ndarray):
        self.indices = indices
        self.diagonal = diagonal
        self.neighbours = neighbours  # (k, dim) subset positions
        self.amplitudes = amplitudes  # (k, dim) matrix elements
        self.shape = (indices.size, indices.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.diagonal * x + np.einsum("ij,ij->j", self.amplitudes,
                                             x[self.neighbours])


def _operator_dim(a) -> int:
    """Dimension of a square operator: anything with ``.shape`` and ``a @ x``."""
    shape = getattr(a, "shape", ())
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
        raise InputError(f"operator must be square and non-empty, got shape {shape}")
    return int(shape[0])


def _unit_state(psi0, dim: int) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=float)
    if psi0.shape != (dim,):
        raise InputError(f"psi0 must be a state vector of dimension {dim}")
    nrm = float(np.linalg.norm(psi0))
    if abs(nrm - 1.0) > 1e-6:
        raise InputError(f"psi0 must be unit norm (got {nrm:.8f})")
    return psi0


def _tridiagonal_eigh(alphas: np.ndarray, betas: np.ndarray):
    """All eigenpairs of the symmetric tridiagonal matrix with diagonal
    ``alphas`` and off-diagonal ``betas``, ascending."""
    t = np.diag(alphas)
    i = np.arange(betas.size)
    t[i + 1, i] = t[i, i + 1] = betas
    return np.linalg.eigh(t)


def _lanczos(a, start: np.ndarray, every: int = KRYLOV_CHECK_EVERY):
    """Three-term Lanczos recurrence on ``a`` from ``start``, storing no basis.

    Only the last two Lanczos vectors are kept.  Orthogonality is lost as
    Ritz values converge, which only adds copies of converged values; the
    Ritz values and the Gauss quadrature of the start's spectral measure
    stay accurate (Paige; Greenbaum, Linear Algebra Appl. 113, 7 (1989)).
    The recurrence is deterministic, so a second run from the same start
    replays the same vectors (Cullum & Willoughby, 1985).

    Yields ``(q, alphas, betas, beta, norm, closed)`` after every
    ``every``-th step and after the last one: the step's Lanczos vector, the
    k x k tridiagonal projection (diagonal ``alphas``, off-diagonal
    ``betas``), the norm ``beta`` of the next residual vector, the
    Gershgorin-style bound ``norm`` = max|alpha| + max|beta| on the
    projection's norm (1 for a zero projection), and whether the run closed
    at a breakdown (``beta`` negligible against ``norm``), where the Krylov
    space is invariant and the projection exact on it.  The views are only
    valid until the next step.  The run ends at a breakdown or after
    ``KRYLOV_MAX_STEPS`` steps.
    """
    alphas = np.empty(KRYLOV_MAX_STEPS)
    betas = np.empty(KRYLOV_MAX_STEPS)
    q_prev, q = None, start / np.linalg.norm(start)
    tiny, alpha_max, beta_max = 1e3 * np.finfo(float).eps, 0.0, 0.0
    for k in range(KRYLOV_MAX_STEPS):
        w = a @ q
        alphas[k] = float(q @ w)
        w = w - alphas[k] * q
        if k:
            w -= betas[k - 1] * q_prev
        beta = float(np.linalg.norm(w))
        alpha_max = max(alpha_max, abs(alphas[k]))
        norm = (alpha_max + beta_max) or 1.0
        closed = beta <= tiny * norm
        if closed or k + 1 == KRYLOV_MAX_STEPS or (k + 1) % every == 0:
            yield q, alphas[:k + 1], betas[:k], beta, norm, closed
        if closed:
            return
        betas[k] = beta
        beta_max = max(beta_max, beta)
        w /= beta
        q_prev, q = q, w


@dataclass(frozen=True)
class LanczosInfo:
    """What a Lanczos ground-state solve did: Lanczos steps taken and the
    residual estimate |A v - E v| it stopped at.  The residual is tested
    every ``KRYLOV_CHECK_EVERY`` steps, so ``iterations`` is the first such
    multiple at which it met its bound, or the step at which the run broke
    down, whichever came first."""

    iterations: int
    residual: float


def lanczos_ground(a, tol: float = 1e-10, *, start=None):
    """Lowest eigenpair of the operator ``a`` by two Lanczos runs from the
    vector ``start`` (any nonzero length-dim vector; normalised here).  With
    ``start=None`` the runs start from the Gaussian vector
    ``np.random.default_rng(0).standard_normal(dim)``.  The start must
    overlap the lowest eigenvector, which a random one does almost surely; a
    start close to it cuts the steps taken.

    The first run finds the Ritz value.  Its residual |A v - E v| is tested
    every ``KRYLOV_CHECK_EVERY`` steps; the run stops at the first test
    where it is within ``tol`` times a Gershgorin estimate of |A|, or at a
    breakdown, where the projection is exact.  Reaching
    ``KRYLOV_MAX_STEPS`` steps first raises NumericError.  The second run
    replays the same k steps and sums the Ritz vector sum_i s_i q_i from the
    projection's eigenvector s, so memory stays a few vectors of length dim.

    Returns ``(energy, vector, info)``: the Ritz value, the unit-norm Ritz
    vector with its largest component positive, and a :class:`LanczosInfo`.
    """
    dim = _operator_dim(a)
    if not tol > 0:
        raise InputError("tol must be positive")
    if start is None:
        start = np.random.default_rng(0).standard_normal(dim)
    start = np.asarray(start, dtype=float)
    if start.shape != (dim,) or not 0 < np.linalg.norm(start) < math.inf:
        raise InputError(f"start must be a nonzero finite vector of dimension {dim}")
    for _, alphas, betas, beta, norm, closed in _lanczos(a, start):
        values, vectors = _tridiagonal_eigh(alphas, betas)
        theta, s = float(values[0]), vectors[:, 0]
        resid = beta * abs(s[-1])
        bound = tol * norm
        if resid <= bound:
            break
    k = alphas.size
    if resid > bound and not closed:
        raise NumericError(
            f"Lanczos did not converge within {k} iterations: residual "
            f"{resid:.3e} vs bound {bound:.3e}")
    vector = np.zeros(dim)
    for s_i, (q, *_) in zip(s, _lanczos(a, start, every=1)):
        vector += s_i * q
    vector /= np.linalg.norm(vector)
    lead = int(np.argmax(np.abs(vector)))
    if vector[lead] < 0:
        vector = -vector
    return theta, vector, LanczosInfo(iterations=k, residual=float(resid))


def lanczos_survival(a, psi0: np.ndarray, t) -> tuple[np.ndarray, int]:
    """Survival amplitude <psi0| exp(-i A t) |psi0> on a time grid by Lanczos
    tridiagonalization of the operator ``a`` seeded with ``psi0``.

    After k steps the amplitude is the k-point Gauss quadrature of psi0's
    spectral measure, A(t) = sum_j s_j[0]^2 exp(-i theta_j t), from the
    eigenpairs (theta_j, s_j) of the tridiagonal projection.  The sum runs
    over the nodes that can move it: the smallest weights s_j[0]^2, which
    together stay below one ulp of the total, are dropped.  Every
    ``KRYLOV_CHECK_EVERY`` steps the echo |A|^2 on the grid is compared
    with the previous check; the run stops once it moves by at most
    ``SURVIVAL_TOL``.  The echo, not the amplitude, is tested because the
    amplitude carries a round-off phase drift of order eps |A| t that no
    depth removes.  A breakdown gives the exact amplitude.

    Returns ``(amplitude, depth)`` with ``depth`` the number of Lanczos
    steps.  Raises NumericError if the echo has not settled within
    ``KRYLOV_MAX_STEPS`` steps.
    """
    dim = _operator_dim(a)
    psi0 = _unit_state(psi0, dim)
    t = np.asarray(t, dtype=float)
    previous, change = None, math.inf
    for _, alphas, betas, _, _, closed in _lanczos(a, psi0):
        theta, s = _tridiagonal_eigh(alphas, betas)
        weights = s[0] ** 2
        order = np.argsort(weights)
        nodes = np.sort(order[np.cumsum(weights[order]) >= np.spacing(1.0)])
        amp = np.exp(-1j * np.multiply.outer(t, theta[nodes])) @ weights[nodes]
        if closed:
            return amp, alphas.size
        echo = np.abs(amp) ** 2
        if previous is not None:
            change = float(np.max(np.abs(echo - previous)))
            if change <= SURVIVAL_TOL:
                return amp, alphas.size
        previous = echo
    raise NumericError(
        f"Lanczos echo did not settle within {alphas.size} steps: last change "
        f"{change:.3e} vs tolerance {SURVIVAL_TOL:.1e}")
