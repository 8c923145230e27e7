"""Real symmetric linear algebra built on one Lanczos recurrence, in numpy
alone.

A single Lanczos loop with full reorthogonalization serves two solvers:
:func:`lanczos_ground`, the lowest eigenpair from a caller's start vector (a
fixed Gaussian draw by default), stopped on its residual; and
:func:`lanczos_survival`, the survival amplitude
<psi0| exp(-i A t) |psi0> on a time grid from a start at psi0, by Gauss
quadrature of psi0's spectral measure.  Both take any real symmetric
operator with ``.shape`` and ``@`` (an ndarray, a
:class:`qptscale.dicke_exact.ParityBlock`, a ``scipy.sparse`` array or a
``LinearOperator``), so sparse Hamiltonians are never densified.  Both test
their stopping rule every ``KRYLOV_CHECK_EVERY`` steps, where the k x k
tridiagonal projection is diagonalized in full with ``np.linalg.eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

SURVIVAL_TOL = 1e-12
KRYLOV_CHECK_EVERY = 20  # Lanczos steps between stopping-rule checks
KRYLOV_MAX_STEPS = 600   # Lanczos steps either solver may take
DGKS_RATIO = 0.717       # second Gram-Schmidt pass below this share of |w|


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


def _norm_estimate(alphas: np.ndarray, betas: np.ndarray) -> float:
    """Gershgorin-style bound on the projected operator's norm."""
    return float(np.max(np.abs(alphas))
                 + (np.max(np.abs(betas)) if betas.size else 0.0)) or 1.0


def _tridiagonal_eigh(alphas: np.ndarray, betas: np.ndarray):
    """All eigenpairs of the symmetric tridiagonal matrix with diagonal
    ``alphas`` and off-diagonal ``betas``, ascending."""
    t = np.diag(alphas)
    i = np.arange(betas.size)
    t[i + 1, i] = t[i, i + 1] = betas
    return np.linalg.eigh(t)


def _lanczos(a, start: np.ndarray):
    """Lanczos recurrence on ``a`` with full reorthogonalization.

    Each step orthogonalizes the new residual against the whole basis by
    classical Gram-Schmidt.  A second pass runs only when the first cuts
    its norm below ``DGKS_RATIO`` of its value: that much cancellation can
    leave it off-orthogonal (Daniel, Gragg, Kaufman & Stewart, Math. Comp.
    30, 772 (1976)).

    Yields ``(basis, alphas, betas, beta, closed)`` after every
    ``KRYLOV_CHECK_EVERY``-th step and after the last one: the k Lanczos
    vectors as the rows of ``basis``, the k x k tridiagonal projection
    (diagonal ``alphas``, off-diagonal ``betas``), the norm ``beta`` of the
    next residual vector, and whether the Krylov space is closed.  The views
    are only valid until the next step.  The run ends after
    ``KRYLOV_MAX_STEPS`` steps or once the Krylov space closes: when it
    fills the whole space, or at a breakdown (``beta`` negligible against
    the projection's norm), where it is invariant and the projection exact
    on it.
    """
    dim = start.size
    cap = min(dim, KRYLOV_MAX_STEPS)
    basis = np.empty((cap, dim))
    alphas = np.empty(cap)
    betas = np.empty(cap)
    q = start / np.linalg.norm(start)
    for k in range(cap):
        basis[k] = q
        w = a @ q
        alphas[k] = float(q @ w)
        w = w - alphas[k] * q
        if k:
            w = w - betas[k - 1] * basis[k - 1]
        done = basis[:k + 1]
        before = float(np.linalg.norm(w))
        w = w - (done @ w) @ done
        beta = float(np.linalg.norm(w))
        if beta < DGKS_RATIO * before:
            w = w - (done @ w) @ done
            beta = float(np.linalg.norm(w))
        steps = k + 1
        closed = steps == dim or beta <= 1e3 * np.finfo(float).eps * _norm_estimate(
            alphas[:steps], betas[:k])
        if closed or steps == cap or steps % KRYLOV_CHECK_EVERY == 0:
            yield done, alphas[:steps], betas[:k], beta, closed
        if closed:
            return
        betas[k] = beta
        q = w / beta


@dataclass(frozen=True)
class LanczosInfo:
    """What a Lanczos ground-state solve did: Lanczos steps taken and the
    residual estimate |A v - E v| it stopped at.  The residual is tested
    every ``KRYLOV_CHECK_EVERY`` steps, so ``iterations`` is the first such
    multiple at which it met its bound, or the step at which the Krylov
    space closed, whichever came first."""

    iterations: int
    residual: float


def lanczos_ground(a, tol: float = 1e-10, *, start=None):
    """Lowest eigenpair of the operator ``a`` by one Lanczos run from the
    vector ``start`` (any nonzero length-dim vector; normalised here).  With
    ``start=None`` the run starts from the Gaussian vector
    ``np.random.default_rng(0).standard_normal(dim)``.  The start must
    overlap the lowest eigenvector, which a random one does almost surely; a
    start close to it cuts the steps taken.

    The residual |A v - E v| is tested every ``KRYLOV_CHECK_EVERY`` steps;
    the run stops at the first test where it is within ``tol`` times a
    Gershgorin estimate of |A|, or when the Krylov space fills the space or
    closes at a breakdown, where the projection is exact.  Reaching
    ``KRYLOV_MAX_STEPS`` steps first raises NumericError.

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
    for basis, alphas, betas, beta, closed in _lanczos(a, start):
        values, vectors = _tridiagonal_eigh(alphas, betas)
        theta, s = float(values[0]), vectors[:, 0]
        resid = beta * abs(s[-1])
        bound = tol * _norm_estimate(alphas, betas)
        if resid <= bound:
            break
    k = alphas.size
    if resid > bound and not closed:
        raise NumericError(
            f"Lanczos did not converge within {k} iterations: residual "
            f"{resid:.3e} vs bound {bound:.3e}")
    vector = s @ basis
    vector = vector / np.linalg.norm(vector)
    lead = int(np.argmax(np.abs(vector)))
    if vector[lead] < 0:
        vector = -vector
    return theta, vector, LanczosInfo(iterations=k, residual=float(resid))


def lanczos_survival(a, psi0: np.ndarray, t) -> tuple[np.ndarray, int]:
    """Survival amplitude <psi0| exp(-i A t) |psi0> on a time grid by Lanczos
    tridiagonalization of the operator ``a`` seeded with ``psi0``.

    After k steps the amplitude is the k-point Gauss quadrature of psi0's
    spectral measure, A(t) = sum_j s_j[0]^2 exp(-i theta_j t), from the
    eigenpairs (theta_j, s_j) of the tridiagonal projection.  Every
    ``KRYLOV_CHECK_EVERY`` steps the echo |A|^2 on the grid is compared
    with the previous check; the run stops once it moves by at most
    ``SURVIVAL_TOL``.  The echo, not the amplitude, is tested because the
    amplitude carries a round-off phase drift of order eps |A| t that no
    depth removes.  A Krylov space that fills the space, or closes at a
    breakdown, gives the exact amplitude.

    Returns ``(amplitude, depth)`` with ``depth`` the number of Lanczos
    steps.  Raises NumericError if the echo has not settled within
    ``KRYLOV_MAX_STEPS`` steps.
    """
    dim = _operator_dim(a)
    psi0 = _unit_state(psi0, dim)
    t = np.asarray(t, dtype=float)
    previous, change = None, math.inf
    for _, alphas, betas, _, closed in _lanczos(a, psi0):
        theta, s = _tridiagonal_eigh(alphas, betas)
        amp = np.exp(-1j * np.multiply.outer(t, theta)) @ (s[0] ** 2)
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
