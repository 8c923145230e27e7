"""Collective-spin (LMG) analytics in the large-N limit: the quadratic mode of
either phase, and from it the excitation gap, the ground-state fidelity and
the single-mode Loschmidt echo.

Energy convention: H = -(2/N)(S_x^2 + gamma S_y^2) - 2h S_z, Dusuel and
Vidal's Pauli form with lambda = 1 (PRB 71, 224420 (2005)).  To order N^0
about each phase's own mean field it is one mode 2 (T p^2/2 + V x^2/2), of
gap 2 sqrt(T V) and ground-state width W = sqrt(V/T).  The spin form
-(1/N)(S_x^2 + gamma S_y^2) - h S_z is half of this H: its echoes run at half
the speed, while its fidelities are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .echo import EchoSeries, survival_closed
from .errors import CrossPhaseError, InputError, NumericError
from .squeeze import fidelity as squeeze_fidelity
from .squeeze import width_map


@dataclass(frozen=True)
class LmgParams:
    """Anisotropy gamma in [0, 1) and field h > 0.

    h = 1 is the critical point.  In the broken phase h^2 must exceed gamma,
    which keeps the width W^2 = (1 - h^2)/(1 - gamma) below 1, as it is
    throughout the symmetric phase.
    """

    gamma: float
    h: float

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise InputError("gamma must lie in [0, 1)")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise InputError("h must be positive and finite")
        if self.h < 1.0 and self.h * self.h <= self.gamma:
            raise InputError("broken phase requires h^2 > gamma")


def quadratic(params: LmgParams) -> tuple[float, float]:
    """(T, V) of the collective mode: T = h - gamma and V = h - 1 in the
    symmetric phase, T = 1 - gamma and V = (1 - h)(1 + h) in the broken phase
    and at h = 1, where V = 0.  V is formed from 1 - h, which is exact near
    h = 1, so it keeps its digits as the gap closes."""
    g, h = params.gamma, params.h
    if h > 1.0:
        return h - g, h - 1.0
    return 1.0 - g, (1.0 - h) * (1.0 + h)


def gap(params: LmgParams) -> float:
    """Excitation gap 2 sqrt(T V); 0 at h = 1.  NumericError when T V
    overflows, as it does for h above about 1.3e154."""
    t, v = quadratic(params)
    if not math.isfinite(t * v):
        raise NumericError(f"the LMG gap overflows at {params}")
    return 2.0 * math.sqrt(t * v)


def width(params: LmgParams) -> float:
    """Ground-state width W = sqrt(V/T) of the collective mode; 0 at h = 1."""
    t, v = quadratic(params)
    return math.sqrt(v / t)


def _same_phase_pair(gamma: float, h1: float, h2: float):
    p1 = LmgParams(gamma=gamma, h=h1)
    p2 = LmgParams(gamma=gamma, h=h2)
    if 1.0 in (h1, h2) or (h1 < 1.0) != (h2 < 1.0):
        raise CrossPhaseError(f"fields {h1} and {h2} do not share a phase")
    return p1, p2


def fidelity_lmg(gamma: float, h1: float, h2: float) -> float:
    """Ground-state fidelity (2 sqrt(W1 W2) / (W1 + W2))^{1/2}."""
    p1, p2 = _same_phase_pair(gamma, h1, h2)
    return squeeze_fidelity(width_map(width(p1), width(p2)))


def echo_lmg(gamma: float, h1: float, h2: float, t_grid) -> EchoSeries:
    """Single-mode echo of the h2 ground state evolved with the h1 mode.

    Number-state phases advance as 2 n delta(h1) t, so the series is periodic
    with period pi / delta(h1) and its minimum is (1-q^2)/(1+q^2) with
    q = tanh(ln(W2/W1)/2).
    """
    p1, p2 = _same_phase_pair(gamma, h1, h2)
    return survival_closed(width_map(width(p1), width(p2)), gap(p1), t_grid)
