"""Single-mode Bogoliubov relation between two ground-state bases.

One vacuum expanded over the other basis is a squeezed vacuum: only even
number states appear, with amplitudes controlled by tanh(r) where r is half
the log of the ratio of the two ground-state widths.  Everything here is a metric
quantity (absolute overlaps), so both phase angles of the transformation are
fixed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericError

R_CAP = 20.0               # largest |r| ground_expansion accepts
OVERLAP_TRUNC_TOL = 1e-10  # weight an overlap column may lose to truncation


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
    return SqueezeMap(0.5 * math.log(w2 / w1))


@dataclass(frozen=True)
class GroundExpansion:
    """Even-number-state amplitudes of one vacuum in the other basis.

    ``amplitudes[n]`` is the coefficient of the 2n-th number state; odd
    states are absent by parity.  ``tail_bound`` bounds the probability
    weight beyond the truncation.
    """

    amplitudes: np.ndarray
    tail_bound: float


def ground_expansion(map: SqueezeMap, n_max: int) -> GroundExpansion:
    """Expansion of the mapped vacuum over even number states, from column 0
    of the overlap recursion :func:`_signed_overlaps`.

    a_{2n} = (cosh r)^{-1/2} * sqrt((2n-1)!!/(2n)!!) * tanh(r)^n, accumulated
    multiplicatively to avoid factorial overflow.
    """
    if n_max < 0:
        raise InputError("n_max must be nonnegative")
    if abs(map.r) >= R_CAP:
        raise DomainError(
            f"|r| = {abs(map.r):.3f} >= cap {R_CAP}: refine the parameter step")
    amps = _signed_overlaps(map, 2 * n_max, 0)[::2, 0]
    tail = float(amps[-1] ** 2 * math.sinh(map.r) ** 2)
    return GroundExpansion(amplitudes=amps, tail_bound=tail)


def fidelity(map: SqueezeMap) -> float:
    """Vacuum-vacuum overlap |<0_1|0_2>| = (1 - tanh^2 r)^{1/4} = cosh(r)^{-1/2}."""
    return 1.0 / math.sqrt(math.cosh(map.r))


def _signed_overlaps(map: SqueezeMap, n_rows: int, n_cols: int) -> np.ndarray:
    """Signed overlaps S[n, m] = <n_1|m_2> via two three-term recursions.

    Row 0 is seeded by annihilating the bra vacuum; each column then climbs
    in n.  Both recursions follow from inserting the Bogoliubov relation in
    matrix elements of the annihilators, so no factorials ever appear.
    """
    p = math.cosh(map.r)
    q = map.q
    s = np.zeros((n_rows + 1, n_cols + 1))
    s[0, 0] = p ** -0.5
    for m in range(1, n_cols):
        s[0, m + 1] = -q * math.sqrt(m / (m + 1)) * s[0, m - 1]
    for m in range(n_cols + 1):
        for n in range(n_rows):
            acc = q * math.sqrt(n / (n + 1)) * s[n - 1, m] if n else 0.0
            if m:
                acc += math.sqrt(m / (n + 1)) * s[n, m - 1] / p
            s[n + 1, m] = acc
    return s


def overlap_matrix(map: SqueezeMap, n_max: int, *,
                   m_max: int | None = None) -> np.ndarray:
    """Metric overlaps C[n, m] = |<n_1|m_2>| for n <= n_max, m <= m_max.

    Entries with odd n+m vanish identically (parity selection of the
    quadratic Bogoliubov relation).  Every returned column must carry at
    least 1 - OVERLAP_TRUNC_TOL of its probability within the n_max rows,
    otherwise a NumericError names the first offending column; pass more rows
    or fewer columns in that case.
    """
    if n_max < 0:
        raise InputError("n_max must be nonnegative")
    m_max = n_max if m_max is None else m_max
    if m_max < 0:
        raise InputError("m_max must be nonnegative")
    c = np.abs(_signed_overlaps(map, n_max, m_max))
    sums = np.sum(c * c, axis=0)
    bad = np.nonzero(sums < 1.0 - OVERLAP_TRUNC_TOL)[0]
    if bad.size:
        raise NumericError(
            f"overlap column {bad[0]} holds weight {sums[bad[0]]:.12f} "
            f"< 1 - {OVERLAP_TRUNC_TOL:g}; increase n_max or reduce m_max")
    return c


def participation_ratio(map: SqueezeMap, m: int, n_max: int) -> float:
    """Participation ratio chi = 1 / sum_n C_nm^4 of basis state m.

    Requires the overlap column to be converged (probability weight within
    OVERLAP_TRUNC_TOL of unity) at the given n_max.
    """
    if m < 0:
        raise InputError("m must be nonnegative")
    if n_max < 0:
        raise InputError("n_max must be nonnegative")
    col = _signed_overlaps(map, n_max, m)[:, m]
    weight = float(np.sum(col**2))
    if weight < 1.0 - OVERLAP_TRUNC_TOL:
        raise NumericError(
            f"overlap column {m} unconverged at n_max={n_max}: weight {weight:.12f}")
    return float(1.0 / np.sum(col**4))
