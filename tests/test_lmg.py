import math

import numpy as np
import pytest

from qptscale import (CrossPhaseError, InputError, LmgParams, echo_lmg,
                      fidelity_lmg, fidelity_scaling, gap_angle, min_echo,
                      mp_scaling, relative_map, scaling_eta)


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
    assert LmgParams(gamma=0.5, h=0.8).phase == "broken"
    assert LmgParams(gamma=0.0, h=1.0).phase == "critical"


class TestGapAngle:
    def test_symmetric_phase_frozen(self):
        # delta = 2 sqrt(0.75), theta = atanh(1/2)
        mode = gap_angle(LmgParams(0.0, 1.5))
        assert mode.delta == pytest.approx(1.7320508075688773, abs=1e-14)
        assert mode.theta == pytest.approx(0.54930614433405485, abs=1e-14)

    def test_broken_phase_frozen(self):
        # delta = 2 sqrt(0.75), theta = atanh(1/7)
        mode = gap_angle(LmgParams(0.0, 0.5))
        assert mode.delta == pytest.approx(1.7320508075688773, abs=1e-14)
        assert mode.theta == pytest.approx(0.14384103622589046, abs=1e-14)

    def test_gap_closes_continuously_at_critical_point(self):
        for eps in (1e-2, 1e-4, 1e-6):
            above = gap_angle(LmgParams(0.3, 1.0 + eps)).delta
            below = gap_angle(LmgParams(0.3, 1.0 - eps)).delta
            assert 0.0 < above <= 3.0 * math.sqrt(eps)
            assert 0.0 < below <= 3.0 * math.sqrt(eps)
        degenerate = gap_angle(LmgParams(0.3, 1.0))
        assert degenerate.delta == 0.0
        assert math.isinf(degenerate.theta)

    def test_angle_bounded(self):
        for g, h in [(0.0, 1.2), (0.5, 4.0), (0.2, 0.7), (0.0, 0.05)]:
            mode = gap_angle(LmgParams(g, h))
            assert 0.0 < math.tanh(mode.theta) < 1.0
            assert mode.delta > 0.0


class TestFidelityLmg:
    def test_equal_fields(self):
        assert fidelity_lmg(0.0, 1.3, 1.3) == 1.0

    def test_frozen_value(self):
        # theta1 = ln(11)/2, theta2 = ln(6)/2; mpmath gives 0.99429752295598005
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
                    t1 = gap_angle(LmgParams(g, h1)).theta
                    t2 = gap_angle(LmgParams(g, h2)).theta
                    lhs = math.tanh((t2 - t1) / 2.0)
                    rhs = (math.sqrt(eta) - 1.0) / (math.sqrt(eta) + 1.0)
                    assert abs(lhs - rhs) <= C * d2


class TestEchoLmg:
    def grid(self, gamma, h1, periods=1.0, samples=2000):
        delta = gap_angle(LmgParams(gamma, h1)).delta
        return np.linspace(0.0, periods * math.pi / delta, samples + 1)

    def test_starts_at_one(self):
        t = self.grid(0.0, 1.2)
        series = echo_lmg(0.0, 1.2, 1.4, t)
        assert series.echo[0] == 1.0
        series.validate()

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
        q = relative_map(gap_angle(LmgParams(0.2, 1.3)).theta,
                         gap_angle(LmgParams(0.2, 1.7)).theta).q
        closed = (1.0 - q * q) / (1.0 + q * q)
        assert min_echo(series) == pytest.approx(closed, abs=1e-10)

    def test_periodicity(self):
        gamma, h1, h2 = 0.0, 1.25, 1.6
        delta = gap_angle(LmgParams(gamma, h1)).delta
        period = math.pi / delta
        t = np.linspace(0.0, 2.0 * period, 1601)
        series = echo_lmg(gamma, h1, h2, t)
        half = 800
        assert np.max(np.abs(series.echo[:half] - series.echo[half:2 * half])) <= 1e-10

    def test_rescaled_grid_uses_gap(self):
        t = self.grid(0.0, 1.5)
        series = echo_lmg(0.0, 1.5, 1.8, t)
        delta = gap_angle(LmgParams(0.0, 1.5)).delta
        assert series.omega1 == pytest.approx(delta, abs=1e-14)
        assert np.allclose(series.tau, delta * t, atol=1e-12)

    @pytest.mark.parametrize("periods,covers", [(1.0 - 1e-9, False), (1.0 + 1e-9, True)])
    def test_covers_period(self, periods, covers):
        series = echo_lmg(0.0, 1.2, 1.4, self.grid(0.0, 1.2, periods=periods))
        assert series.covers_period is covers

    def test_broken_phase_series(self):
        t = self.grid(0.0, 0.7)
        series = echo_lmg(0.0, 0.7, 0.8, t)
        series.validate()
        assert min_echo(series) < 1.0

    def test_cross_phase_rejected(self):
        t = np.linspace(0.0, 3.0, 30)
        with pytest.raises(CrossPhaseError):
            echo_lmg(0.0, 1.2, 0.8, t)


def test_mp_scaling_consistency_with_lmg_echo():
    # the echo minimum law evaluated at the lmg ratio
    eta = scaling_eta(1.02, 1.2, 1.0)
    assert mp_scaling(eta) == pytest.approx(2.0 * math.sqrt(0.1) / 1.1, abs=1e-12)
