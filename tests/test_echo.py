import math

import numpy as np
import pytest

from qptscale import (DomainError, EchoSeries, InputError, SqueezeMap,
                      collapse_check, min_echo, mp_scaling, survival_closed)
from qptscale.dicke import DickeParams, critical_coupling, mode_energies
from conftest import assert_echo_series


def ratio_map(eta):
    return SqueezeMap(math.atanh((math.sqrt(eta) - 1.0) / (math.sqrt(eta) + 1.0)))


def series_sum_echo(q, delta1, t, tail=1e-14):
    """Independent oracle: term-by-term sum of the even-state series."""
    amp = np.zeros_like(t, dtype=complex)
    p_n = math.sqrt(1.0 - q * q)  # a_0^2
    n = 0
    while True:
        amp += p_n * np.exp(-2j * n * delta1 * t)
        p_next = p_n * q * q * (2 * n + 1) / (2 * n + 2)
        n += 1
        if p_next < tail or n > 100000:
            break
        p_n = p_next
    return np.abs(amp) ** 2


class TestSurvivalClosed:
    def test_starts_at_one(self):
        t = np.linspace(0.0, 10.0, 101)
        series = survival_closed(SqueezeMap(0.4), 1.0, t)
        assert series.echo[0] == pytest.approx(1.0, abs=1e-14)
        assert_echo_series(series)

    def test_frozen_values_at_tenth_ratio(self):
        m = ratio_map(0.1)
        # minimum at delta1*t = pi/2, quarter point at pi/4 (mpmath):
        # 0.57495957457606897 and 0.70490737685024137
        t = np.array([0.0, math.pi / 4.0, math.pi / 2.0])
        series = survival_closed(m, 1.0, t)
        assert series.echo[1] == pytest.approx(0.70490737685024137, abs=1e-12)
        assert series.echo[2] == pytest.approx(0.57495957457606897, abs=1e-12)

    @pytest.mark.parametrize("eta,delta1", [(0.1, 1.0), (0.4, 0.31), (0.02, 2.5)])
    def test_matches_series_summation(self, eta, delta1):
        m = ratio_map(eta)
        t = np.linspace(0.0, 2.0 * math.pi / delta1, 197)
        series = survival_closed(m, delta1, t)
        oracle = series_sum_echo(m.q, delta1, t)
        assert np.max(np.abs(series.echo - oracle)) <= 1e-10

    def test_periodicity(self):
        m = ratio_map(0.05)
        delta1 = 0.7
        period = math.pi / delta1
        t = np.linspace(0.0, 2.0 * period, 1201)
        series = survival_closed(m, delta1, t)
        assert np.max(np.abs(series.echo[:600] - series.echo[600:1200])) <= 1e-10

    def test_degenerate_gap_warns_and_is_constant(self):
        t = np.linspace(0.0, 4.0, 17)
        with pytest.warns(UserWarning, match="constant"):
            series = survival_closed(SqueezeMap(0.8), 0.0, t)
        assert np.all(series.echo == 1.0)

    def test_grid_validation(self):
        m = SqueezeMap(0.1)
        with pytest.raises(InputError):
            survival_closed(m, 1.0, np.array([0.5, 1.0]))
        with pytest.raises(InputError):
            survival_closed(m, 1.0, np.array([0.0, 1.0, 0.5]))
        with pytest.raises(InputError):
            survival_closed(m, -1.0, np.array([0.0, 1.0]))


class TestRescaleTime:
    def base(self, omega1=1.0):
        # the omega1 = 1 closed-form echo, labelled with frequency omega1
        t = np.linspace(0.0, 6.0, 61)
        return EchoSeries(t=t, echo=survival_closed(ratio_map(0.2), 1.0, t).echo,
                          omega1=omega1)

    def test_unit_frequency(self):
        out = self.base(1.0)
        assert np.array_equal(out.tau, out.t)

    def test_dicke_zero_mode_frequency(self):
        e1 = mode_energies(DickeParams(1.0, 1.0, 0.495)).e1
        out = self.base(e1)
        assert np.allclose(out.tau, 0.1 * out.t, atol=1e-15)

    def test_period_follows_new_frequency(self):
        # the grid reaches t = 6: past the period pi at omega1 = 1, short of
        # 2 pi at omega1 = 0.5
        assert self.base(1.0).covers_period is True
        slow = self.base(0.5)
        assert slow.period == 2.0 * math.pi
        assert slow.covers_period is False
        with pytest.raises(DomainError):
            min_echo(slow)


class TestMinEcho:
    def test_constant_series(self):
        t = np.linspace(0.0, 4.0, 33)
        series = survival_closed(SqueezeMap(0.0), 1.0, t)
        assert min_echo(series) == 1.0

    def test_closed_form_minimum_at_tenth_ratio(self):
        t = np.linspace(0.0, math.pi, 5001)
        series = survival_closed(ratio_map(0.1), 1.0, t)
        assert min_echo(series) == pytest.approx(0.57495957457606897, abs=1e-6)

    def test_parabolic_refinement_beats_coarse_grid(self):
        # 50 samples per period still lands within 1e-4 of the analytic dip
        t = np.linspace(0.0, math.pi, 51)
        series = survival_closed(ratio_map(0.1), 1.0, t)
        assert min_echo(series) == pytest.approx(0.57495957457606897, abs=1e-4)

    def test_requires_full_period(self):
        t = np.linspace(0.0, 1.0, 40)  # period is pi
        series = survival_closed(ratio_map(0.1), 1.0, t)
        with pytest.raises(DomainError):
            min_echo(series)

    def test_hand_built_series_without_meta(self):
        # one period of the closed form, built by hand: no builder, no meta
        q = (math.sqrt(0.1) - 1.0) / (math.sqrt(0.1) + 1.0)
        t = np.linspace(0.0, math.pi / 2.0, 5001)  # omega1 = 2, period pi/2
        m = (1 - q * q) / np.sqrt((1 - q * q) ** 2 + 4 * q * q * np.sin(2.0 * t) ** 2)
        series = EchoSeries(t=t, echo=m, omega1=2.0)
        assert series.meta == {}
        assert min_echo(series) == pytest.approx(0.57495957457606897, abs=1e-6)

    @pytest.mark.parametrize("end,covers", [(1.0 - 1e-9, False), (1.0 + 1e-9, True),
                                            (1.0, True)])
    def test_covers_period_of_closed_form(self, end, covers):
        t = np.linspace(0.0, end * math.pi / 0.7, 65)
        series = survival_closed(ratio_map(0.1), 0.7, t)
        assert series.period == math.pi / 0.7
        assert series.covers_period is covers

    def test_zero_gap_has_no_finite_period(self):
        t = np.linspace(0.0, 1e6, 11)
        series = survival_closed(SqueezeMap(0.0), 0.0, t)
        assert series.period == math.inf
        assert series.covers_period is False


class TestMpScaling:
    def test_unit_ratio(self):
        assert mp_scaling(1.0) == 1.0

    def test_frozen_values(self):
        assert mp_scaling(0.1) == pytest.approx(0.57495957457606897, abs=1e-15)
        assert mp_scaling(0.01) == pytest.approx(0.19801980198019802, abs=1e-15)

    def test_symmetry(self):
        for eta in (0.001, 0.3, 7.0):
            assert mp_scaling(eta) == pytest.approx(mp_scaling(1.0 / eta), abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            mp_scaling(0.0)


class TestCollapseCheck:
    def member(self, omega, omega0, l1, l2, tau_grid, scale):
        e1a = mode_energies(DickeParams(omega, omega0, l1)).e1
        e1b = mode_energies(DickeParams(omega, omega0, l2)).e1
        m = SqueezeMap(0.5 * math.log(e1b / e1a))
        return scale, survival_closed(m, e1a, tau_grid / e1a)

    def test_duplicate_series_has_zero_spread(self):
        t = np.linspace(0.0, math.pi, 101)
        s = survival_closed(ratio_map(0.1), 1.0, t)
        report = collapse_check([(0.1, [(1e-2, s), (1e-3, s)])])
        assert report[0].spread == 0.0

    def test_near_critical_members_collapse(self):
        # unequal frequencies so members differ genuinely at finite distance
        tau = np.linspace(0.0, math.pi, 301)
        lc = math.sqrt(2.0) / 2.0
        eta = 0.1
        members = [self.member(2.0, 1.0, lc * (1 - eta * s), lc * (1 - s), tau, s)
                   for s in (1e-2, 1e-3)]
        report = collapse_check([(eta, members)])
        assert report[0].spread <= 1e-3
        tighter = [self.member(2.0, 1.0, lc * (1 - eta * s), lc * (1 - s), tau, s)
                   for s in (1e-3, 1e-4)]
        tight_report = collapse_check([(eta, tighter)])
        assert tight_report[0].spread < report[0].spread

    def test_trend_flag_tracks_scales(self):
        tau = np.linspace(0.0, math.pi, 301)
        lc = math.sqrt(2.0) / 2.0
        members = [self.member(2.0, 1.0, lc * (1 - 0.1 * s), lc * (1 - s), tau, s)
                   for s in (1e-2, 1e-3, 1e-4)]
        report = collapse_check([(0.1, members)])
        assert report[0].trend_decreasing is True
        assert report[0].n_members == 3
        # only the order of the scales counts: any unit gives the same flag
        relabelled = [(abs(lc * (1 - s) - lc), series) for s, series in members]
        assert collapse_check([(0.1, relabelled)])[0].trend_decreasing is True
        # listed out of order, the members are still ranked by scale
        assert collapse_check([(0.1, members[::-1])])[0].trend_decreasing is True
        assert collapse_check([(0.1, members[:2])])[0].trend_decreasing is None

    def test_empty_group_and_disjoint_windows_rejected(self):
        with pytest.raises(InputError):
            collapse_check([(0.1, [])])
        t = np.linspace(0.0, 1.0, 11)
        a = survival_closed(ratio_map(0.2), 1.0, t)
        b = EchoSeries(t=t + 5.0, echo=a.echo, omega1=1.0)
        with pytest.raises(InputError):
            collapse_check([(0.2, [(1e-2, a), (1e-3, b)])])
