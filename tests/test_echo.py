import math

import numpy as np
import pytest

from qptscale import (DomainError, EchoSeries, FitError, InputError, SemiclassicalParams,
                      SqueezeMap, collapse_check, fit_envelope, min_echo,
                      mp_scaling, semiclassical_envelope,
                      survival_closed)
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


class TestSemiclassicalEnvelope:
    def test_amplitude_at_zero(self):
        p = SemiclassicalParams(gamma=0.3, xi=0.1, b0=0.97)
        assert semiclassical_envelope(p, 0.0) == pytest.approx(0.97, abs=1e-15)

    def test_pure_gaussian_limit(self):
        p = SemiclassicalParams(gamma=1.0, xi=0.0, b0=1.0)
        assert semiclassical_envelope(p, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_frozen_value(self):
        # mpmath: 1.16^{-1/2} exp(-2/1.16) = 0.16557219866316629
        p = SemiclassicalParams(gamma=0.5, xi=0.2, b0=1.0)
        assert semiclassical_envelope(p, 2.0) == pytest.approx(
            0.16557219866316629, abs=1e-15)

    def test_long_time_tail(self):
        # for xi*t >> 1 the envelope approaches b0 exp(-gamma/xi^2)/(xi t)
        p = SemiclassicalParams(gamma=0.09, xi=0.3, b0=1.0)
        t = 100.0 / p.xi
        predicted = math.exp(-p.gamma / p.xi**2) / (p.xi * t)
        assert semiclassical_envelope(p, t) == pytest.approx(predicted, rel=0.01)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            SemiclassicalParams(gamma=-0.1, xi=0.1)
        with pytest.raises(InputError):
            SemiclassicalParams(gamma=0.1, xi=0.1, b0=1.5)
        with pytest.raises(InputError):
            semiclassical_envelope(SemiclassicalParams(0.1, 0.1), -1.0)

    def test_rescaled_combinations(self):
        # on tau = omega1 t the envelope takes gamma / omega1^2 and xi / omega1
        omega1, t = 0.1, np.linspace(0.0, 30.0, 61)
        p = SemiclassicalParams(gamma=0.5, xi=0.2)
        rescaled = SemiclassicalParams(gamma=0.5 / omega1**2, xi=0.2 / omega1)
        assert np.allclose(semiclassical_envelope(p, t),
                           semiclassical_envelope(rescaled, omega1 * t), rtol=1e-13, atol=0.0)


class TestFitEnvelope:
    def synthetic(self, gamma, xi, b0, t_max=20.0, n=400):
        t = np.linspace(0.0, t_max, n)
        data = semiclassical_envelope(SemiclassicalParams(gamma, xi, b0), t)
        return EchoSeries(t=t, echo=data, omega1=1.0)

    def fit_case(self, name):
        if name == "synthetic":
            return self.synthetic(0.5, 0.2, 1.0), (0.0, 20.0)
        if name == "constant":
            t = np.linspace(0.0, 5.0, 60)
            return EchoSeries(t=t, echo=np.ones_like(t), omega1=1.0), (0.0, 5.0)
        if name == "early-window":
            return survival_closed(SqueezeMap(0.05), 1.0, np.linspace(0.0, 0.2, 300)), (0.0, 0.2)
        # acceptance criterion 6: eta = 0.3, second coupling 0.1% below critical
        spectrum = mode_energies(DickeParams(1.0, 1.0, critical_coupling(1.0, 1.0) * (1 - 3e-4)))
        t_echo = math.pi / spectrum.e1
        series = survival_closed(ratio_map(0.3), spectrum.e1,
                                 np.linspace(0.0, 0.5 * t_echo, 4001))
        return series, (2.0 * math.pi / spectrum.e2, 0.4 * t_echo)

    def test_round_trip_within_one_percent(self):
        fit = fit_envelope(*self.fit_case("synthetic"))
        assert fit.params.gamma == pytest.approx(0.5, rel=0.01)
        assert fit.params.xi == pytest.approx(0.2, rel=0.01)
        assert fit.params.b0 == pytest.approx(1.0, rel=0.01)
        assert fit.max_log_residual <= 1e-8

    def test_constant_series_fits_to_no_decay(self):
        fit = fit_envelope(*self.fit_case("constant"))
        assert fit.params.gamma <= 1e-6
        assert fit.params.xi <= 1e-3
        assert fit.params.b0 == pytest.approx(1.0, abs=1e-6)

    def test_early_window_recovers_quadratic_decay(self):
        # small q: -ln M ~ (Gamma + xi^2/2) t^2 with coefficient B^2 d^2/2
        q = SqueezeMap(0.05).q
        delta1 = 1.0
        b_sq = (2.0 * q / (1.0 - q * q)) ** 2
        fit = fit_envelope(*self.fit_case("early-window"))
        quadratic = fit.params.gamma + 0.5 * fit.params.xi**2
        assert quadratic == pytest.approx(0.5 * b_sq * delta1**2, rel=0.05)

    def test_window_needs_enough_samples(self):
        series = self.synthetic(0.5, 0.2, 1.0)
        with pytest.raises(InputError):
            fit_envelope(series, (0.0, 0.1))
        with pytest.raises(InputError):
            fit_envelope(series, (3.0, 1.0))

    def test_amplitude_bound_is_active(self):
        series = self.synthetic(0.5, 0.2, 1.0)
        scaled = EchoSeries(t=series.t, echo=1.5 * series.echo, omega1=1.0)
        assert fit_envelope(scaled, (0.0, 20.0)).params.b0 == 1.2

    def test_nonfinite_echo_in_window_is_fit_error(self):
        series = self.synthetic(0.5, 0.2, 1.0)
        echo = series.echo.copy()
        echo[100] = np.nan
        with pytest.raises(FitError):
            fit_envelope(EchoSeries(t=series.t, echo=echo, omega1=1.0), (0.0, 20.0))
        # outside the window the sample is never read
        fit_envelope(EchoSeries(t=series.t, echo=echo, omega1=1.0), (0.0, 4.0))

    @pytest.mark.parametrize("name", ["synthetic", "constant", "early-window", "criterion-6"])
    def test_cost_no_worse_than_scipy_least_squares(self, name):
        import scipy.optimize

        series, (lo, hi) = self.fit_case(name)
        mask = (series.t >= lo) & (series.t <= hi)
        tt, y = series.t[mask], np.log(series.echo[mask])

        def residual(p):
            g, x, b = p
            den = 1.0 + (x * tt) ** 2
            return math.log(b) - 0.5 * np.log(den) - g * tt**2 / den - y

        p = fit_envelope(series, (lo, hi)).params
        cost = 0.5 * float(np.sum(residual((p.gamma, p.xi, p.b0)) ** 2))
        # scipy's best of three starts, under the same bounds
        drop = max(-float(y[-1]), 1e-8)
        starts = [(drop / tt[-1]**2, 1.0 / tt[-1], 1.0),
                  (1e-8, math.sqrt(2.0 * drop) / tt[-1], 1.0),
                  (0.5 * drop / tt[-1]**2, 4.0 / tt[-1], 1.0)]
        reference = min(scipy.optimize.least_squares(
            residual, x0, bounds=([0.0, 0.0, 1e-6], [np.inf, np.inf, 1.2])).cost
            for x0 in starts)
        # 1e-18 is the cost of log residuals of ~1e-10 over a few hundred samples
        assert cost <= reference * (1.0 + 1e-9) + 1e-18


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
