import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qptscale import (CrossPhaseError, InputError, LmgParams, NumericError,
                      echo_lmg, fidelity_lmg, fidelity_scaling, min_echo,
                      mp_scaling, scaling_eta, width_map)
from qptscale.lmg import gap, quadratic, width
from conftest import assert_echo_series


def test_params_validation():
    with pytest.raises(InputError):
        LmgParams(gamma=1.0, h=2.0)
    with pytest.raises(InputError):
        LmgParams(gamma=-0.1, h=2.0)
    with pytest.raises(InputError):
        LmgParams(gamma=0.5, h=0.0)
    # broken phase needs h^2 > gamma
    with pytest.raises(InputError):
        LmgParams(gamma=0.5, h=0.6)


def test_gap_overflow_is_numeric_error():
    with pytest.raises(NumericError):
        gap(LmgParams(0.0, 1e300))


class TestGapAngle:
    """Gap and width W = sqrt(V/T); W = exp(-theta) of the Bogoliubov angle
    theta, whose frozen values these cases keep."""

    def test_symmetric_phase_frozen(self):
        # gap = 2 sqrt(0.75), theta = atanh(1/2): W = sqrt(1/3)
        p = LmgParams(0.0, 1.5)
        assert gap(p) == pytest.approx(1.7320508075688773, abs=1e-14)
        assert width(p) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-14)
        assert width(p) == pytest.approx(math.exp(-0.54930614433405485), abs=1e-14)

    def test_broken_phase_frozen(self):
        # gap = 2 sqrt(0.75), theta = atanh(1/7): W = sqrt(3/4)
        p = LmgParams(0.0, 0.5)
        assert gap(p) == pytest.approx(1.7320508075688773, abs=1e-14)
        assert width(p) == pytest.approx(math.sqrt(0.75), abs=1e-14)
        assert width(p) == pytest.approx(math.exp(-0.14384103622589046), abs=1e-14)

    def test_gap_closes_continuously_at_critical_point(self):
        for eps in (1e-2, 1e-4, 1e-6):
            above = gap(LmgParams(0.3, 1.0 + eps))
            below = gap(LmgParams(0.3, 1.0 - eps))
            assert 0.0 < above <= 3.0 * math.sqrt(eps)
            assert 0.0 < below <= 3.0 * math.sqrt(eps)
        degenerate = LmgParams(0.3, 1.0)
        assert gap(degenerate) == 0.0
        assert width(degenerate) == 0.0  # theta = inf

    def test_angle_bounded(self):
        # 0 < tanh(theta) < 1, i.e. 0 < W < 1
        for g, h in [(0.0, 1.2), (0.5, 4.0), (0.2, 0.7), (0.0, 0.05)]:
            p = LmgParams(g, h)
            assert 0.0 < width(p) < 1.0
            assert gap(p) > 0.0


class TestFidelityLmg:
    def test_equal_fields(self):
        assert fidelity_lmg(0.0, 1.3, 1.3) == 1.0

    def test_frozen_value(self):
        # W1 = 11^{-1/2}, W2 = 6^{-1/2}; mpmath gives 0.99429752295598005
        got = fidelity_lmg(0.0, 1.1, 1.2)
        assert got == pytest.approx(0.99429752295598005, abs=1e-12)

    def test_symmetric_in_fields(self):
        assert fidelity_lmg(0.3, 1.4, 1.05) == pytest.approx(
            fidelity_lmg(0.3, 1.05, 1.4), abs=1e-14)

    def test_near_critical_matches_ratio_law(self):
        got = fidelity_lmg(0.0, 1.0 + 1e-4, 1.0 + 1e-3)
        assert abs(got - fidelity_scaling(0.1)) <= 1e-3

    def test_broken_phase_near_critical(self):
        got = fidelity_lmg(0.0, 1.0 - 1e-4, 1.0 - 1e-3)
        assert abs(got - fidelity_scaling(0.1)) <= 1e-3

    def test_cross_phase_rejected(self):
        with pytest.raises(CrossPhaseError):
            fidelity_lmg(0.0, 1.1, 0.9)
        with pytest.raises(CrossPhaseError):
            fidelity_lmg(0.0, 1.0, 1.1)


def _reference_mode(gamma, h):
    """(T, V) to 50 digits at the exact binary values of gamma and h."""
    g, h = Decimal(gamma), Decimal(h)
    return (h - g, h - 1) if h > 1 else (1 - g, (1 - h) * (1 + h))


def _reference_fidelity(gamma, h1, h2):
    with localcontext() as ctx:
        ctx.prec = 50
        w1, w2 = ((v / t).sqrt() for t, v in (_reference_mode(gamma, h1),
                                               _reference_mode(gamma, h2)))
        return float((2 * (w1 * w2).sqrt() / (w1 + w2)).sqrt())


def _reference_gap(gamma, h):
    with localcontext() as ctx:
        ctx.prec = 50
        t, v = _reference_mode(gamma, h)
        return float(2 * (t * v).sqrt())


@pytest.mark.parametrize("scale", [1e-5, 1e-6])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["symmetric", "broken"])
class TestNearCritical:
    """Within 1e-14 of 50-digit references where the gap nearly closes."""

    def points(self, sign, scale):
        for gamma in (0.0, 0.3, 0.8):
            for eta in (0.001, 0.5):
                yield gamma, 1.0 + sign * eta * scale, 1.0 + sign * scale

    def test_fidelity(self, sign, scale):
        for gamma, h1, h2 in self.points(sign, scale):
            assert abs(fidelity_lmg(gamma, h1, h2)
                       - _reference_fidelity(gamma, h1, h2)) <= 1e-14, (gamma, h1, h2)

    def test_gap(self, sign, scale):
        for gamma, h1, h2 in self.points(sign, scale):
            for h in (h1, h2):
                assert abs(gap(LmgParams(gamma, h)) / _reference_gap(gamma, h)
                           - 1.0) <= 1e-14, (gamma, h)


@pytest.mark.parametrize("gamma,h1,h2,frozen", [
    (0.0, 1.05, 1.1, 0.9935161406366475),
    (0.5, 1.01, 1.3, 0.8822630941394407),
    (0.0, 0.8, 0.6, 0.9948584414934553),
    (0.3, 0.9, 0.7, 0.9850320657445474),
])
def test_fidelity_pinned_away_from_criticality(gamma, h1, h2, frozen):
    # the Bogoliubov-angle form's values: the width form agrees to 2 ulp
    assert abs(fidelity_lmg(gamma, h1, h2) - frozen) <= 2 * math.ulp(frozen)


def test_quadratic_of_each_phase():
    assert quadratic(LmgParams(0.25, 1.5)) == (1.25, 0.5)
    assert quadratic(LmgParams(0.25, 0.75)) == (0.75, 0.25 * 1.75)


class TestEtaLmg:
    def test_hand_ratio(self):
        assert scaling_eta(1.05, 1.5, 1.0) == pytest.approx(0.1, abs=1e-12)

    def test_equal_fields(self):
        assert scaling_eta(1.2, 1.2, 1.0) == 1.0

    def test_cross_phase_rejected(self):
        with pytest.raises(CrossPhaseError):
            scaling_eta(1.1, 0.9, 1.0)

    def test_critical_field_rejected(self):
        with pytest.raises(InputError):
            scaling_eta(1.0, 1.1, 1.0)

    def test_near_critical_tanh_identity_regression(self):
        # |tanh((T2-T1)/2) - (sqrt(eta)-1)/(sqrt(eta)+1)| <= C (h2-1);
        # C = 0.5 frozen from a scan over gamma in {0, 0.5}, eta in {0.1, 0.5}
        C = 0.5
        for g in (0.0, 0.5):
            for eta in (0.1, 0.5):
                for d2 in (1e-2, 1e-3):
                    h2 = 1.0 + d2
                    h1 = 1.0 + eta * d2
                    # theta = -ln W, so tanh((T2-T1)/2) = -q of the width map
                    lhs = -width_map(width(LmgParams(g, h1)), width(LmgParams(g, h2))).q
                    rhs = (math.sqrt(eta) - 1.0) / (math.sqrt(eta) + 1.0)
                    assert abs(lhs - rhs) <= C * d2


class TestEchoLmg:
    def grid(self, gamma, h1, periods=1.0, samples=2000):
        delta = gap(LmgParams(gamma, h1))
        return np.linspace(0.0, periods * math.pi / delta, samples + 1)

    def test_starts_at_one(self):
        t = self.grid(0.0, 1.2)
        series = echo_lmg(0.0, 1.2, 1.4, t)
        assert series.echo[0] == 1.0
        assert_echo_series(series)

    def test_minimum_matches_ratio_law_near_criticality(self):
        eta = 0.1
        h2 = 1.0 + 1e-6
        h1 = 1.0 + eta * 1e-6
        t = self.grid(0.0, h1, samples=4000)
        series = echo_lmg(0.0, h1, h2, t)
        # mpmath: 2 sqrt(0.1)/1.1 = 0.57495957457606897
        assert min_echo(series) == pytest.approx(0.57495957457606897, abs=1e-4)

    def test_series_minimum_equals_closed_form(self):
        t = self.grid(0.2, 1.3, samples=4000)
        series = echo_lmg(0.2, 1.3, 1.7, t)
        q = width_map(width(LmgParams(0.2, 1.3)), width(LmgParams(0.2, 1.7))).q
        closed = (1.0 - q * q) / (1.0 + q * q)
        assert min_echo(series) == pytest.approx(closed, abs=1e-10)

    def test_periodicity(self):
        gamma, h1, h2 = 0.0, 1.25, 1.6
        delta = gap(LmgParams(gamma, h1))
        period = math.pi / delta
        t = np.linspace(0.0, 2.0 * period, 1601)
        series = echo_lmg(gamma, h1, h2, t)
        half = 800
        assert np.max(np.abs(series.echo[:half] - series.echo[half:2 * half])) <= 1e-10

    def test_rescaled_grid_uses_gap(self):
        t = self.grid(0.0, 1.5)
        series = echo_lmg(0.0, 1.5, 1.8, t)
        delta = gap(LmgParams(0.0, 1.5))
        assert series.omega1 == pytest.approx(delta, abs=1e-14)
        assert np.allclose(series.tau, delta * t, atol=1e-12)

    @pytest.mark.parametrize("periods,covers", [(1.0 - 1e-9, False), (1.0 + 1e-9, True)])
    def test_covers_period(self, periods, covers):
        series = echo_lmg(0.0, 1.2, 1.4, self.grid(0.0, 1.2, periods=periods))
        assert series.covers_period is covers

    def test_broken_phase_series(self):
        t = self.grid(0.0, 0.7)
        series = echo_lmg(0.0, 0.7, 0.8, t)
        assert_echo_series(series)
        assert min_echo(series) < 1.0

    def test_cross_phase_rejected(self):
        t = np.linspace(0.0, 3.0, 30)
        with pytest.raises(CrossPhaseError):
            echo_lmg(0.0, 1.2, 0.8, t)


def test_mp_scaling_consistency_with_lmg_echo():
    # the echo minimum law evaluated at the lmg ratio
    eta = scaling_eta(1.02, 1.2, 1.0)
    assert mp_scaling(eta) == pytest.approx(2.0 * math.sqrt(0.1) / 1.1, abs=1e-12)
