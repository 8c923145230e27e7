"""Thermodynamic-limit analytics for the driven spin-boson (Dicke) model:
the critical coupling, quasi-mode energies in both phases, the two-mode
Gaussian ground-state fidelity, and the critical-ratio fidelity law."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CrossPhaseError, InputError, NumericError
from .squeeze import fidelity as squeeze_fidelity
from .squeeze import width_map


def critical_coupling(omega: float, omega0: float) -> float:
    """Critical coupling sqrt(omega * omega0) / 2."""
    if not (omega > 0 and omega0 > 0 and math.isfinite(omega) and math.isfinite(omega0)):
        raise InputError("frequencies must be positive and finite")
    return 0.5 * math.sqrt(omega * omega0)


@dataclass(frozen=True)
class DickeParams:
    """Boson frequency, atomic splitting, and coupling (hbar = 1)."""

    omega: float
    omega0: float
    coupling: float

    def __post_init__(self):
        critical_coupling(self.omega, self.omega0)
        if not (self.coupling >= 0 and math.isfinite(self.coupling)):
            raise InputError("coupling must be finite and nonnegative")

    @property
    def lambda_c(self) -> float:
        return critical_coupling(self.omega, self.omega0)


@dataclass(frozen=True)
class ModeSpectrum:
    """Energies of the two effective modes, with e1 <= e2; ``gamma_angle`` is
    the orthogonal mixing angle used by the Gaussian fidelity formula."""

    e1: float
    e2: float
    gamma_angle: float


def mode_energies(params: DickeParams) -> ModeSpectrum:
    """Quasi-mode energies; the lower one vanishes exactly at the critical point.

    e2 comes from the characteristic quadratic and e1 from the product
    e1 e2 = sqrt(det), with the determinant's factor (lambda_c - lambda) or
    (1/mu - 1) formed directly, so e1 does not cancel when omega and omega0
    lie orders of magnitude apart.  NumericError when the arithmetic fails or,
    off the critical point, e1 or (e1 e2)^2 under- or overflows.
    """
    w, w0 = params.omega, params.omega0
    lam, lc = params.coupling, params.lambda_c
    ssum = w * w + w0 * w0
    try:
        if lam <= lc:
            disc = math.sqrt((w0 * w0 - w * w) ** 2 + 16.0 * lam * lam * w * w0)
            e2 = math.sqrt(0.5 * (ssum + disc))
            e1 = math.sqrt(w * w0 * 4.0 * (lc - lam) * (lc + lam)) / e2
            angle = 0.5 * math.atan(4.0 * lam * math.sqrt(w * w0) / ssum)
        else:
            mu = w * w0 / (4.0 * lam * lam)
            a = w0 * w0 / (mu * mu)
            disc = math.sqrt((a - w * w) ** 2 + 4.0 * w * w * w0 * w0)
            e2 = math.sqrt(0.5 * (w * w + a + disc))
            e1 = w * w0 * math.sqrt((1.0 / mu - 1.0) * (1.0 / mu + 1.0)) / e2
            angle = 0.5 * math.atan(2.0 * w * w0 / (w * w + a))
    except ArithmeticError as err:  # an overflow, or mu underflowing to 0
        raise NumericError(f"mode energies fail at {params}: {err}") from err
    if lam == lc:
        e1 = 0.0
    elif not 0 < e1 < math.inf:  # (e1 e2)^2 or e2 out of range
        raise NumericError(f"the lower mode energy is {e1} at {params}")
    return ModeSpectrum(e1=e1, e2=e2, gamma_angle=angle)


def scaling_eta(lambda1: float, lambda2: float, lambda_c: float) -> float:
    """Critical-distance ratio eta = (lambda1 - lambda_c) / (lambda2 - lambda_c)
    of two control parameters of either model."""
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2),
                        ("lambda_c", lambda_c)):
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite")
    d1 = lambda1 - lambda_c
    d2 = lambda2 - lambda_c
    if d1 == 0.0 or d2 == 0.0:
        raise InputError(f"both parameters must differ from the critical point {lambda_c}")
    if d1 * d2 < 0.0:
        raise CrossPhaseError(
            f"parameters {lambda1} and {lambda2} straddle the critical point {lambda_c}")
    return d1 / d2


def fidelity_scaling(eta: float) -> float:
    """Ground-state fidelity as a function of the critical-distance ratio only:
    sqrt(2) * eta^{1/8} / sqrt(sqrt(eta) + 1).  Symmetric under eta -> 1/eta."""
    if not (math.isfinite(eta) and eta > 0):
        raise InputError("eta must be positive and finite")
    return math.sqrt(2.0) * eta**0.125 / math.sqrt(math.sqrt(eta) + 1.0)


def _width_matrix(spectrum: ModeSpectrum) -> np.ndarray:
    c = math.cos(spectrum.gamma_angle)
    s = math.sin(spectrum.gamma_angle)
    u = np.array([[c, -s], [s, c]])
    return u.T @ np.diag([spectrum.e1, spectrum.e2]) @ u


def _det2(a: np.ndarray) -> float:
    return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


def fidelity_gaussian(params: DickeParams, coupling: float, *,
                      shared_rotation: bool = False) -> float:
    """Two-mode Gaussian fidelity between ``params`` and the same frequencies at ``coupling``.

    Evaluates 2 [det A1 det A2]^{1/4} / det(A1 + A2)^{1/2} with A = U^T M U,
    M = diag(e1, e2).  By default each coupling uses its own mixing angle;
    with ``shared_rotation=True`` the rotation cancels and the fidelity
    reduces to a product of single-mode overlaps (exact when omega == omega0,
    where the true mixing angle does not depend on the coupling).

    The default is not the Gaussian ground-state fidelity of the effective
    Hamiltonian, whose two modes have unequal masses: at omega = omega0 = 1,
    couplings (0.45, 0.4), it gives 0.9923214 where that fidelity (and
    ``shared_rotation=True``) gives 0.9925127; at omega0 = 2, couplings
    (0.6, 0.5), it gives 0.9935229 against 0.9934212 (``shared_rotation=True``:
    0.9939400).  The fix is ROADMAP item 14b, which waits for item 28.

    Returns 0.0 when either coupling sits exactly at the critical point.
    """
    other = replace(params, coupling=coupling)
    if params.coupling == coupling:
        return 1.0
    lc = params.lambda_c
    if lc in (params.coupling, coupling):
        return 0.0
    if (params.coupling < lc) != (coupling < lc):
        raise CrossPhaseError(
            f"couplings {params.coupling} and {coupling} lie in different phases")
    s1, s2 = mode_energies(params), mode_energies(other)
    if shared_rotation:
        # each mode's width is its frequency
        return (squeeze_fidelity(width_map(s1.e1, s2.e1))
                * squeeze_fidelity(width_map(s1.e2, s2.e2)))
    a1 = _width_matrix(s1)
    a2 = _width_matrix(s2)
    num = 2.0 * (_det2(a1) * _det2(a2)) ** 0.25
    return num / math.sqrt(_det2(a1 + a2))
