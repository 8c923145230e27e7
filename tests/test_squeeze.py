import math

import numpy as np
import pytest
import scipy.linalg

from qptscale import (InputError, NumericError, SqueezeMap, participation_ratio,
                      squeeze_fidelity, width_map)


def expm_overlap_oracle(r, n_rows, fock=240):
    """Independent vacuum amplitudes |<n|S(r)|0>|, n <= n_rows, from the
    exponentiated squeeze generator; insensitive to the sign convention of r."""
    a = np.diag(np.sqrt(np.arange(1.0, fock)), 1)
    gen = 0.5 * (a @ a - a.T @ a.T)
    return np.abs(scipy.linalg.expm(r * gen)[:n_rows + 1, 0])


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


def test_squeeze_map_rejects_non_finite_or_overflowing_r():
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="finite"):
            SqueezeMap(r)
    for r in (700.5, -701.0):
        with pytest.raises(InputError, match="overflows"):
            SqueezeMap(r)


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

    def test_even_in_r(self):
        assert squeeze_fidelity(SqueezeMap(0.9)) == squeeze_fidelity(SqueezeMap(-0.9))


class TestOverlapMatrix:
    """The squeezed vacuum's overlaps |<n|S(r)|0>| from the exponentiated
    generator, against the closed forms the library evaluates."""

    def test_identity(self):
        assert np.array_equal(expm_overlap_oracle(0.0, 8), np.eye(9)[:, 0])
        assert squeeze_fidelity(SqueezeMap(0.0)) == 1.0
        assert participation_ratio(SqueezeMap(0.0)) == 1.0

    def test_column_zero_matches_closed_form(self):
        # |a_2n| = (cosh r)^{-1/2} sqrt(C(2n, n) / 4^n) |tanh r|^n; at
        # tanh r = 1/2, mpmath: a_0 = 0.9306048591020996,
        # a_2 = 0.32901850323812312, a_4 = 0.1424691910596736
        m = SqueezeMap(math.atanh(0.5))
        column = expm_overlap_oracle(m.r, 60)
        closed = [squeeze_fidelity(m) * math.sqrt(math.comb(2 * n, n) / 4**n)
                  * 0.5**n for n in range(31)]
        assert np.max(np.abs(column[0::2] - closed)) <= 1e-12
        assert np.max(column[1::2]) <= 1e-12
        assert closed[:3] == pytest.approx(
            [0.9306048591020996, 0.32901850323812312, 0.1424691910596736],
            abs=1e-14)
        assert participation_ratio(m) == pytest.approx(
            1.0 / math.fsum(a**4 for a in closed), rel=1e-14)

    @pytest.mark.parametrize("r,n_rows", [(0.2, 40), (-0.45, 70), (0.8, 120)])
    def test_against_matrix_exponential_oracle(self, r, n_rows):
        column = expm_overlap_oracle(r, n_rows)
        assert participation_ratio(SqueezeMap(r)) == pytest.approx(
            1.0 / np.sum(column**4), rel=1e-12)

    def test_invariant_under_r_flip(self):
        assert np.max(np.abs(expm_overlap_oracle(0.6, 80)
                             - expm_overlap_oracle(-0.6, 80))) <= 1e-14
        plus, minus = SqueezeMap(0.6), SqueezeMap(-0.6)
        assert squeeze_fidelity(plus) == squeeze_fidelity(minus)
        assert participation_ratio(plus) == participation_ratio(minus)


# 50-digit mpmath values of cosh^2 r AGM(1, sqrt(1 + tanh^2 r) / cosh r).
# From r = 20 on, the literal sqrt((1 - q^2)(1 + q^2)), q = tanh r, rounds to
# 0 and so does the ratio; at r = 10 it is 5e-10 off
CHI_50_DIGITS = {
    0.01: 1.0001000008334610986, 0.5: 1.2568313566382748057,
    1.2: 2.7989161460610287881, 5.0: 1617.8161105673683554,
    10.0: 18414204.958498848102, 20.0: 4543053783584745.87,
    100.0: 2.8278327416621601076e+84, 300.0: 4.9331729997594412754e+257,
    355.0: 2.4688227167288969985e+305, -7.5: 163605.18453777338103,
    math.log(10) / 4: 1.3440967402925513394,  # the scaling map at eta = 0.1
}


class TestParticipationRatio:
    def test_identity_map_gives_one(self):
        assert participation_ratio(SqueezeMap(0.0)) == 1.0

    def test_frozen_value_at_half(self):
        # mpmath: sum a^4 = 0.76214952007279367, chi = 1.3120785012165184927
        chi = participation_ratio(SqueezeMap(math.atanh(0.5)))
        assert chi == pytest.approx(1.3120785012165184927, rel=1e-15)

    @pytest.mark.parametrize("r", list(CHI_50_DIGITS))
    def test_frozen_values_over_the_whole_range(self, r):
        assert participation_ratio(SqueezeMap(r)) == pytest.approx(CHI_50_DIGITS[r],
                                                                   rel=1e-15)

    @pytest.mark.parametrize("r", [356.0, -356.0, 700.0])
    def test_overflow_of_cosh_squared_raises(self, r):
        with pytest.raises(NumericError, match="overflows"):
            participation_ratio(SqueezeMap(r))

    def test_strictly_increasing_in_r(self):
        values = [participation_ratio(SqueezeMap(float(r)))
                  for r in np.arange(0.1, 2.01, 0.1)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v >= 1.0 for v in values)

    def test_even_in_r(self):
        assert participation_ratio(SqueezeMap(0.7)) == participation_ratio(SqueezeMap(-0.7))
