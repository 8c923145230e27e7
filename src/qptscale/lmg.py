"""Collective-spin (LMG) analytics in the large-N limit: excitation gap and
Bogoliubov angle in both phases, ground-state fidelity, and the single-mode
Loschmidt echo."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .echo import EchoSeries, survival_closed
from .errors import CrossPhaseError, InputError
from .squeeze import fidelity as squeeze_fidelity
from .squeeze import relative_map


@dataclass(frozen=True)
class LmgParams:
    """Anisotropy gamma in [0, 1) and field h > 0.

    h = 1 is the critical point; it is accepted so sweeps can straddle it,
    with the phase reported as "critical".  In the broken phase h^2 must
    exceed gamma for the Bogoliubov angle to be defined.
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

    @property
    def phase(self) -> str:
        if self.h > 1.0:
            return "symmetric"
        if self.h < 1.0:
            return "broken"
        return "critical"


@dataclass(frozen=True)
class LmgMode:
    """Excitation gap and Bogoliubov angle of the collective mode."""

    delta: float
    theta: float


def gap_angle(params: LmgParams) -> LmgMode:
    """Gap and angle in either phase.

    Symmetric phase: delta = 2 sqrt((h-1)(h-gamma)), tanh(theta) =
    (1-gamma)/(2h-1-gamma).  Broken phase: delta = 2 sqrt((1-h^2)(1-gamma)),
    tanh(theta) = (h^2-gamma)/(2-h^2-gamma).  At h = 1 the gap closes and the
    limiting angle diverges (tanh(theta) -> 1), returned as theta = inf.
    """
    g, h = params.gamma, params.h
    if h > 1.0:
        delta = 2.0 * math.sqrt((h - 1.0) * (h - g))
        tanh_theta = (1.0 - g) / (2.0 * h - 1.0 - g)
    elif h < 1.0:
        delta = 2.0 * math.sqrt((1.0 - h * h) * (1.0 - g))
        tanh_theta = (h * h - g) / (2.0 - h * h - g)
    else:
        return LmgMode(delta=0.0, theta=math.inf)
    return LmgMode(delta=delta, theta=math.atanh(tanh_theta))


def _same_phase_pair(gamma: float, h1: float, h2: float):
    p1 = LmgParams(gamma=gamma, h=h1)
    p2 = LmgParams(gamma=gamma, h=h2)
    if "critical" in (p1.phase, p2.phase) or p1.phase != p2.phase:
        raise CrossPhaseError(f"fields {h1} and {h2} do not share a phase")
    return p1, p2


def fidelity_lmg(gamma: float, h1: float, h2: float) -> float:
    """Ground-state fidelity [1 - tanh^2((theta2 - theta1)/2)]^{1/4}."""
    p1, p2 = _same_phase_pair(gamma, h1, h2)
    return squeeze_fidelity(relative_map(gap_angle(p1).theta, gap_angle(p2).theta))


def echo_lmg(gamma: float, h1: float, h2: float, t_grid) -> EchoSeries:
    """Single-mode echo of the h2 ground state evolved with the h1 gap.

    Number-state phases advance as 2 n delta(h1) t, so the series is periodic
    with period pi / delta(h1) and its minimum is (1-q^2)/(1+q^2) with
    q = tanh((theta2 - theta1)/2).
    """
    p1, p2 = _same_phase_pair(gamma, h1, h2)
    mode1 = gap_angle(p1)
    m = relative_map(mode1.theta, gap_angle(p2).theta)
    return survival_closed(m, mode1.delta, t_grid)
