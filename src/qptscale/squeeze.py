"""Single-mode Bogoliubov relation between two ground-state bases.

One vacuum expanded over the other basis is a squeezed vacuum: only even
number states appear, with amplitudes controlled by tanh(r) where r is half
the log of the ratio of the two ground-state widths.  Every quantity returned
here is a metric one, built from absolute overlaps, so both phase angles of
the transformation are fixed to zero; the signed overlaps of the recursion
stay private.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

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
    if not 0.0 < w2 / w1 < math.inf:
        raise InputError(f"width ratio {w2!r} / {w1!r} is outside (0, inf)")
    return SqueezeMap(0.5 * math.log(w2 / w1))


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
    """Participation ratio chi = 1 / sum_n C_nm^4 of basis state m, from
    column m of :func:`overlap_matrix`, which must be converged at n_max
    (together with every lower column) or a NumericError names the column.
    """
    if m < 0:
        raise InputError("m must be nonnegative")
    col = overlap_matrix(map, n_max, m_max=m)[:, m]
    return float(1.0 / np.sum(col**4))
