"""Loschmidt-echo analytics and post-processing.

Closed-form single-mode echo, minimum extraction, the echo-minimum law, and
multi-series collapse checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError
from .squeeze import SqueezeMap


def _as_time_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InputError("time grid must be a 1-d array with at least 2 samples")
    if t[0] != 0.0:
        raise InputError("time grid must start at 0")
    if np.any(np.diff(t) <= 0):
        raise InputError("time grid must be strictly ascending")
    if not np.all(np.isfinite(t)):
        raise InputError("time grid must be finite")
    return t


@dataclass(frozen=True)
class EchoSeries:
    """Sampled echo M(t), its critical-mode frequency omega1 and solver
    diagnostics in ``meta``.  The rescaled grid ``tau`` = omega1 * t, the
    echo ``period`` pi / omega1 and ``covers_period`` are derived, never
    stored."""

    t: np.ndarray
    echo: np.ndarray
    omega1: float
    meta: dict = field(default_factory=dict)

    @property
    def tau(self) -> np.ndarray:
        return self.omega1 * self.t

    @property
    def period(self) -> float:
        return math.pi / self.omega1 if self.omega1 > 0 else math.inf

    @property
    def covers_period(self) -> bool:
        """Whether the grid reaches one full period (to a relative 1e-12)."""
        return bool(math.isfinite(self.period)
                    and self.t[-1] >= self.period * (1 - 1e-12))


def survival_closed(map: SqueezeMap, delta1: float, t_grid) -> EchoSeries:
    """Closed-form single-mode echo for a squeezed initial vacuum.

    The even-state expansion with phases advancing as 2 n delta1 t resums to
    M(t) = (1 - q^2) / sqrt((1 - q^2)^2 + 4 q^2 sin^2(delta1 t)), q = tanh r.
    Periodic with period pi / delta1; minimum (1 - q^2)/(1 + q^2).  At the
    scaling map r = ln(1/eta) / 4 it is the eta law of the whole curve,
    M = [1 + (1 - eta)^2 / (4 eta) sin^2(tau)]^{-1/2} with tau = delta1 t.
    """
    t = _as_time_grid(t_grid)
    q = map.q
    if not abs(q) < 1.0:
        raise InputError("|tanh r| must be below 1")
    if not (math.isfinite(delta1) and delta1 >= 0):
        raise InputError("delta1 must be finite and nonnegative")
    if delta1 == 0.0 and q != 0.0:
        warnings.warn("zero gap: echo series is constant", stacklevel=2)
    one_minus_q2 = 1.0 / math.cosh(map.r) ** 2
    m = one_minus_q2 / np.sqrt(one_minus_q2**2
                               + 4.0 * q * q * np.sin(delta1 * t) ** 2)
    return EchoSeries(t=t, echo=m, omega1=delta1)


def min_echo(series: EchoSeries) -> float:
    """Global echo minimum over the grid, refined parabolically.

    Requires the grid to reach one full period pi / omega1
    (``series.covers_period``).
    """
    if not series.covers_period:
        raise DomainError("series does not cover a full echo period")
    m = series.echo
    if float(np.max(m) - np.min(m)) < 1e-13:
        return float(np.min(m))
    k = int(np.argmin(m))
    if k == 0 or k == m.size - 1:
        return float(m[k])
    x = series.t[k - 1:k + 2]
    y = m[k - 1:k + 2]
    coef = np.polyfit(x - x[1], y, 2)
    if coef[0] <= 0:
        return float(m[k])
    vertex = float(coef[2] - coef[1] ** 2 / (4.0 * coef[0]))
    return vertex


def mp_scaling(eta: float) -> float:
    """Echo minimum as a function of the critical-distance ratio:
    2 sqrt(eta) / (1 + eta).  Symmetric under eta -> 1/eta; equals 1 at eta = 1."""
    if not (math.isfinite(eta) and eta > 0):
        raise InputError("eta must be positive and finite")
    return 2.0 * math.sqrt(eta) / (1.0 + eta)


@dataclass(frozen=True)
class GroupCollapse:
    """Collapse diagnostics for one group of echo series at equal eta."""

    eta: float
    n_members: int
    tau_lo: float
    tau_hi: float
    spread: float
    trend_decreasing: bool | None


def collapse_check(groups) -> tuple[GroupCollapse, ...]:
    """Pointwise spread of echo curves on their common rescaled-time window.

    ``groups`` is an iterable of (eta, [(scale, EchoSeries), ...]), where
    ``scale`` is the member's distance from the critical point in any unit
    shared by the group; only its order is used.  Members are linearly
    interpolated onto the intersection of their tau ranges; the spread is
    the largest pointwise gap between members.  When a group has more than
    two members, ``trend_decreasing`` states whether their distances from
    the smallest-scale member shrink as the scale does.
    """
    out = []
    for eta, pairs in groups:
        if not pairs:
            raise InputError("collapse group has no member series")
        scales, members = zip(*pairs)
        taus = [s.tau for s in members]
        lo = max(float(tau[0]) for tau in taus)
        hi = min(float(tau[-1]) for tau in taus)
        if not hi > lo:
            raise InputError(f"no overlapping rescaled-time window for eta={eta}")
        grid = np.linspace(lo, hi, max(len(tau) for tau in taus))
        curves = np.vstack([np.interp(grid, tau, s.echo) for tau, s in zip(taus, members)])
        spread = float(np.max(curves.max(axis=0) - curves.min(axis=0)))
        trend = None
        if len(members) > 2:
            order = sorted(range(len(members)), key=lambda i: -scales[i])
            ref = curves[order[-1]]
            gaps = [np.max(np.abs(curves[i] - ref)) for i in order[:-1]]
            trend = all(a >= b for a, b in zip(gaps, gaps[1:]))
        out.append(GroupCollapse(eta=float(eta), n_members=len(members), tau_lo=lo,
                                 tau_hi=hi, spread=spread, trend_decreasing=trend))
    return tuple(out)
