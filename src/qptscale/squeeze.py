"""Single-mode Bogoliubov relation between two ground-state bases.

One vacuum expanded over the other basis is a squeezed vacuum: only even
number states appear, with amplitudes controlled by tanh(r) where r is half
the log of the ratio of the two ground-state widths.  Every quantity returned
here is a metric one, built from absolute overlaps, so both phase angles of
the transformation are fixed to zero, and each is in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, NumericError


@dataclass(frozen=True)
class SqueezeMap:
    """Relative squeeze r between two single-mode ground-state bases, whose
    creation and annihilation operators mix with coefficients cosh(r) and
    sinh(r)."""

    r: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise InputError("squeeze parameter must be finite")
        if abs(self.r) > 700.0:
            raise InputError("squeeze parameter too large: cosh(r) overflows")

    @property
    def q(self) -> float:
        """Expansion parameter tanh(r)."""
        return math.tanh(self.r)


def width_map(w1: float, w2: float) -> SqueezeMap:
    """Squeeze map between the ground bases of one mode at widths w1 and w2,
    W = sqrt(V/T) for the mode T p^2/2 + V x^2/2: r = ln(w2/w1) / 2."""
    if not (0.0 < w1 < math.inf and 0.0 < w2 < math.inf):
        raise InputError("widths must be positive and finite")
    if not 0.0 < w2 / w1 < math.inf:
        raise InputError(f"width ratio {w2!r} / {w1!r} is outside (0, inf)")
    return SqueezeMap(0.5 * math.log(w2 / w1))


def fidelity(map: SqueezeMap) -> float:
    """Vacuum-vacuum overlap |<0_1|0_2>| = (1 - tanh^2 r)^{1/4} = cosh(r)^{-1/2}."""
    return 1.0 / math.sqrt(math.cosh(map.r))


def participation_ratio(map: SqueezeMap) -> float:
    """Participation ratio chi0 = 1 / sum_n |<n_1|0_2>|^4 of the squeezed
    vacuum, in closed form: cosh^2 r * AGM(1, sqrt(1 - tanh^4 r)).

    The sum over the amplitudes |a_2n|^2 = C(2n, n) / 4^n tanh^2n r / cosh r
    is a complete elliptic integral of modulus tanh^2 r, whence the AGM.  Its
    second argument is formed as sqrt(1 + tanh^2 r) / cosh r, which keeps
    full precision where 1 - tanh^4 r cancels.  NumericError past |r| ~ 355,
    where cosh^2 r overflows.
    """
    c = math.cosh(map.r)
    if not math.isfinite(c * c):
        raise NumericError(f"cosh^2 r overflows at r = {map.r}")
    a, b, prev = 1.0, math.sqrt(1.0 + map.q * map.q) / c, None
    while a != prev:  # a fixed point: a relative-gap stop can cycle at round-off
        prev, a, b = a, 0.5 * (a + b), math.sqrt(a * b)
    return c * c * a
