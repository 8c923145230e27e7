import math

import numpy as np
import pytest
import scipy.linalg

from qptscale import (InputError, NumericError, SqueezeMap, overlap_matrix,
                      participation_ratio, squeeze_fidelity, width_map)


def expm_overlap_oracle(r, n_rows, n_cols, fock=240):
    """Independent overlaps from the exponentiated squeeze generator.

    Returns both orientation candidates; metric comparisons take the best
    match since |<n|U|m>| is insensitive to the sign convention of r.
    """
    a = np.diag(np.sqrt(np.arange(1.0, fock)), 1)
    gen = 0.5 * (a @ a - a.T @ a.T)
    return [np.abs(scipy.linalg.expm(s * gen)[:n_rows + 1, :n_cols + 1])
            for s in (r, -r)]


def test_width_map_identity():
    m = width_map(0.7, 0.7)
    assert m.r == 0.0


def test_width_map_frozen_example():
    # mpmath: r = -0.15153395, tanh r = -0.15038463727322312
    m = width_map(math.exp(1.1989476), math.exp(0.8958797))
    assert m.r == pytest.approx(-0.15153395, abs=1e-12)
    assert m.q == pytest.approx(-0.15038463727322312, abs=1e-12)


def test_width_map_antisymmetry():
    # exact where the width ratio is exact; else to the rounding of the ratio
    assert width_map(0.5, 2.0).r == -width_map(2.0, 0.5).r
    m = width_map(0.31, 1.27)
    w = width_map(1.27, 0.31)
    assert w.r == pytest.approx(-m.r, abs=2 * math.ulp(m.r))


def test_width_map_rejects_nonfinite():
    with pytest.raises(InputError):
        width_map(math.nan, 1.0)
    with pytest.raises(InputError):
        width_map(1.0, math.inf)


def test_width_map_rejects_nonpositive():
    # the last two are valid widths whose ratio underflows to 0 or overflows
    for w1, w2 in [(0.0, 1.0), (1.0, 0.0), (-0.5, 1.0), (1.0, -2.0),
                   (1e300, 1e-300), (1e-300, 1e300)]:
        with pytest.raises(InputError):
            width_map(w1, w2)


def test_squeeze_map_invariant_and_phases():
    # strict 1e-12 window over the working squeeze range: the vacuum
    # overlap from cosh r is (1 - tanh^2 r)^{1/4}
    for w1, w2 in [(1.0, 1.2), (3.3, 2.4), (0.1, 1e3), (50.0, 0.2)]:
        m = width_map(w1, w2)
        assert abs(squeeze_fidelity(m) ** 4 - (1.0 - m.q * m.q)) <= 1e-12


class TestFidelity:
    def test_identity_map(self):
        assert squeeze_fidelity(SqueezeMap(0.0)) == 1.0

    def test_frozen_value(self):
        # mpmath: (1 - 0.1503847^2)^{1/4} = 0.99429751822452207
        r = math.atanh(-0.1503847)
        assert squeeze_fidelity(SqueezeMap(r)) == pytest.approx(
            0.99429751822452207, abs=1e-12)

    def test_critical_ratio_form(self):
        # tanh r = (sqrt(0.1)-1)/(sqrt(0.1)+1): fidelity equals the
        # ratio-only law at eta = 0.1 (mpmath: 0.92437772965439573)
        r = math.atanh((math.sqrt(0.1) - 1.0) / (math.sqrt(0.1) + 1.0))
        assert squeeze_fidelity(SqueezeMap(r)) == pytest.approx(
            0.92437772965439573, abs=1e-12)

    def test_matches_leading_amplitude_and_overlap(self):
        for r in (0.05, -0.8, 1.7):
            m = SqueezeMap(r)
            c = overlap_matrix(m, 600, m_max=0)
            assert abs(squeeze_fidelity(m) - c[0, 0]) <= 1e-12

    def test_even_in_r(self):
        assert squeeze_fidelity(SqueezeMap(0.9)) == squeeze_fidelity(SqueezeMap(-0.9))


class TestOverlapMatrix:
    def test_identity(self):
        c = overlap_matrix(SqueezeMap(0.0), 8)
        assert np.array_equal(c, np.eye(9))

    def test_parity_zeros_are_exact(self):
        c = overlap_matrix(SqueezeMap(0.37), 40, m_max=6)
        n, m = np.meshgrid(np.arange(41), np.arange(7), indexing="ij")
        assert np.all(c[(n + m) % 2 == 1] == 0.0)

    def test_column_zero_matches_closed_form(self):
        # |a_2n| = (cosh r)^{-1/2} sqrt(C(2n, n) / 4^n) |tanh r|^n; at
        # tanh r = 1/2, mpmath: a_0 = 0.9306048591020996,
        # a_2 = 0.32901850323812312, a_4 = 0.1424691910596736
        m = SqueezeMap(math.atanh(0.5))
        c = overlap_matrix(m, 60, m_max=0)
        closed = [squeeze_fidelity(m) * math.sqrt(math.comb(2 * n, n) / 4**n)
                  * 0.5**n for n in range(31)]
        assert np.max(np.abs(c[0::2, 0] - closed)) <= 1e-12
        assert c[0:5:2, 0] == pytest.approx(
            [0.9306048591020996, 0.32901850323812312, 0.1424691910596736],
            abs=1e-14)

    @pytest.mark.parametrize("r,n_rows", [(0.2, 40), (-0.45, 70), (0.8, 120)])
    def test_against_matrix_exponential_oracle(self, r, n_rows):
        c = overlap_matrix(SqueezeMap(r), n_rows, m_max=6)
        best = min(np.max(np.abs(c - o)) for o in expm_overlap_oracle(r, n_rows, 6))
        assert best <= 1e-12

    def test_invariant_under_r_flip(self):
        c_plus = overlap_matrix(SqueezeMap(0.6), 80, m_max=5)
        c_minus = overlap_matrix(SqueezeMap(-0.6), 80, m_max=5)
        assert np.array_equal(c_plus, c_minus)

    def test_column_completeness(self):
        c = overlap_matrix(SqueezeMap(0.5), 90, m_max=4)
        sums = np.sum(c * c, axis=0)
        assert np.all(sums >= 1.0 - 1e-10)
        assert np.all(sums <= 1.0 + 1e-12)

    def test_unconverged_column_reports_index(self):
        with pytest.raises(NumericError, match="column"):
            overlap_matrix(SqueezeMap(0.8), 10)


class TestParticipationRatio:
    def test_identity_map_gives_one(self):
        for m in (0, 1, 3):
            assert participation_ratio(SqueezeMap(0.0), m, 10) == 1.0

    def test_frozen_value_at_half(self):
        # mpmath: sum a^4 = 0.76214952007279367, chi = 1.3120785012165185
        chi = participation_ratio(SqueezeMap(math.atanh(0.5)), 0, 120)
        assert chi == pytest.approx(1.3120785012165185, abs=1e-10)

    def test_strictly_increasing_in_r(self):
        values = [participation_ratio(SqueezeMap(float(r)), 0, 900)
                  for r in np.arange(0.1, 2.01, 0.1)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v >= 1.0 for v in values)

    def test_unconverged_column_raises(self):
        with pytest.raises(NumericError, match="column"):
            participation_ratio(SqueezeMap(1.5), 0, 12)

    def test_even_in_r(self):
        a = participation_ratio(SqueezeMap(0.7), 2, 300)
        b = participation_ratio(SqueezeMap(-0.7), 2, 300)
        assert a == b


@pytest.mark.parametrize("call", [
    lambda: overlap_matrix(SqueezeMap(0.3), -1),
    lambda: overlap_matrix(SqueezeMap(0.3), 8, m_max=-1),
    lambda: participation_ratio(SqueezeMap(0.3), -1, 8),
    lambda: participation_ratio(SqueezeMap(0.3), 0, -1),
], ids=["overlap-n_max", "overlap-m_max", "ratio-m", "ratio-n_max"])
def test_negative_order_is_refused(call):
    with pytest.raises(InputError, match="nonnegative"):
        call()
