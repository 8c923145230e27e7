import math

import numpy as np
import pytest

from qptscale import (CrossPhaseError, DickeParams, InputError, NumericError,
                      SqueezeMap, TruncatedDicke, critical_coupling,
                      fidelity_gaussian, fidelity_scaling, mode_energies,
                      scaling_eta, squeeze_fidelity)


def test_critical_coupling_values():
    assert critical_coupling(1.0, 1.0) == 0.5
    assert critical_coupling(4.0, 1.0) == 1.0


def test_critical_coupling_homogeneity():
    base = critical_coupling(1.3, 0.7)
    for s in (0.5, 2.0, 17.0):
        assert critical_coupling(s * 1.3, s * 0.7) == pytest.approx(s * base, rel=1e-14)


def test_critical_coupling_rejects_nonpositive():
    with pytest.raises(InputError):
        critical_coupling(0.0, 1.0)
    with pytest.raises(InputError):
        critical_coupling(1.0, -2.0)


def test_params_refuse_non_finite_frequencies():
    # one rule with critical_coupling: positive and finite
    with pytest.raises(InputError):
        DickeParams(1.0, math.inf, 0.3)
    with pytest.raises(InputError):
        TruncatedDicke(4, 4, 1.0, math.inf, 0.3)
    for coupling in (-0.1, math.inf, math.nan):
        with pytest.raises(InputError, match="coupling"):
            DickeParams(1.0, 1.0, coupling)


class TestModeEnergies:
    def test_normal_phase_frozen(self):
        # e1^2 = 0.1 and e2^2 = 1.9 exactly at these parameters
        s = mode_energies(DickeParams(1.0, 1.0, 0.45))
        assert s.e1 == pytest.approx(math.sqrt(0.1), abs=1e-14)
        assert s.e2 == pytest.approx(math.sqrt(1.9), abs=1e-14)

    def test_zero_mode_at_critical_point(self):
        s = mode_energies(DickeParams(1.0, 1.0, 0.5))
        assert s.e1 == 0.0
        assert s.e2 > 0.0

    def test_super_radiant_frozen(self):
        # mpmath evaluation of the super-radiant branch:
        # e1 = 0.45329835342316059, e2 = 1.5028707871217177
        s = mode_energies(DickeParams(1.0, 1.0, 0.55))
        assert s.e1 == pytest.approx(0.45329835342316059, abs=1e-12)
        assert s.e2 == pytest.approx(1.5028707871217177, abs=1e-12)

    def test_monotone_around_critical_point(self):
        lams = np.linspace(0.0, 0.5, 26)
        e1s = [mode_energies(DickeParams(1.0, 1.0, la)).e1 for la in lams]
        assert all(b < a for a, b in zip(e1s, e1s[1:]))
        lams = np.linspace(0.5, 1.0, 26)
        e1s = [mode_energies(DickeParams(1.0, 1.0, la)).e1 for la in lams]
        assert all(b > a for a, b in zip(e1s, e1s[1:]))

    def test_e1_kept_where_root_formula_cancels(self):
        # at 0.9 lambda_c with omega / omega0 = 1e8, e1^2 = 0.19 lies below
        # the round-off of omega^2, so the root formula cancels to 0; the
        # product e1 e2 = sqrt(det) keeps it
        e1 = mode_energies(DickeParams(1e8, 1.0, 0.45e4)).e1
        assert e1 == pytest.approx(math.sqrt(0.19), rel=1e-15)

    def test_overflowed_or_underflowed_e1_raises(self):
        # at 1e100 omega^4 overflows, and at coupling 1e200 the super-radiant
        # mu underflows to 0
        for params in (DickeParams(1e100, 1.0, 0.45e50), DickeParams(1.0, 1.0, 1e200)):
            with pytest.raises(NumericError):
                mode_energies(params)

    def test_ordering_holds_off_the_degenerate_corner(self):
        for w, w0, la in [(1.0, 2.0, 0.1), (1.0, 1.0, 0.2), (0.5, 3.0, 2.0)]:
            s = mode_energies(DickeParams(w, w0, la))
            assert s.e1 < s.e2


class TestLowerModeEnergyNearCriticalPoint:
    def test_matches_exact_branch_for_equal_frequencies(self):
        # at omega = omega0 = 1 the normal-phase e1^2 = 1 - 2 lambda, up to lambda_c
        for la in (0.3, 0.45, 0.4999):
            assert mode_energies(DickeParams(1.0, 1.0, la)).e1 == pytest.approx(
                math.sqrt(1.0 - 2.0 * la), abs=1e-12)

    def test_zero_at_critical_point(self):
        lc = critical_coupling(1.0, 4.0)
        assert mode_energies(DickeParams(1.0, 4.0, lc)).e1 == 0.0

    def test_gap_ratio_reflects_square_root_exponent(self):
        # e1 ~ sqrt(lambda_c - lambda): at eta = 0.1 the ratio e1(lc - s) /
        # e1(lc - s/10) tends to sqrt(10), its relative error shrinking ~10x
        # per decade of s (1.76e-3, 1.75e-4, 1.75e-5 at s = 1e-2, 1e-3, 1e-4)
        lc = critical_coupling(1.0, 4.0)
        errors = []
        for s in (1e-2, 1e-3, 1e-4):
            r = mode_energies(DickeParams(1.0, 4.0, lc - s)).e1 / \
                mode_energies(DickeParams(1.0, 4.0, lc - 0.1 * s)).e1
            errors.append(abs(r / math.sqrt(10.0) - 1.0))
        assert errors[-1] < 2e-5
        assert all(9.0 < a / b < 11.0 for a, b in zip(errors, errors[1:]))


class TestScalingEta:
    def test_fig_parameters(self):
        assert scaling_eta(0.495, 0.45, 0.5) == pytest.approx(0.1, abs=1e-12)
        assert scaling_eta(0.6, 0.55, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_equal_couplings(self):
        assert scaling_eta(0.3, 0.3, 0.5) == 1.0

    def test_cross_phase_rejected(self):
        with pytest.raises(CrossPhaseError):
            scaling_eta(0.51, 0.45, 0.5)

    def test_critical_input_rejected(self):
        with pytest.raises(InputError):
            scaling_eta(0.5, 0.45, 0.5)

    @pytest.mark.parametrize("args", [(math.inf, 0.45, 0.5), (0.49, math.nan, 0.5),
                                      (0.49, 0.45, math.inf)])
    def test_non_finite_input_rejected(self, args):
        with pytest.raises(InputError, match="must be finite"):
            scaling_eta(*args)


class TestFidelityScaling:
    def test_unit_ratio(self):
        assert fidelity_scaling(1.0) == 1.0

    def test_frozen_values(self):
        # mpmath: 0.92437772965439573 and 0.75826088820146128
        assert fidelity_scaling(0.1) == pytest.approx(0.92437772965439573, abs=1e-15)
        assert fidelity_scaling(0.01) == pytest.approx(0.75826088820146128, abs=1e-15)

    def test_duality(self):
        for eta in np.geomspace(1e-4, 1.0, 25):
            assert abs(fidelity_scaling(eta) - fidelity_scaling(1.0 / eta)) <= 1e-12

    def test_small_ratio_power_law(self):
        for eta in (1e-6, 1e-8):
            assert fidelity_scaling(eta) == pytest.approx(
                math.sqrt(2.0) * eta**0.125, rel=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            fidelity_scaling(0.0)
        with pytest.raises(InputError):
            fidelity_scaling(-1.0)


class TestFidelityGaussian:
    def test_equal_params(self):
        p = DickeParams(1.0, 1.0, 0.3)
        assert fidelity_gaussian(p, 0.3) == 1.0

    def test_symmetry(self):
        p1 = DickeParams(1.0, 2.0, 0.55)
        p2 = DickeParams(1.0, 2.0, 0.62)
        assert abs(fidelity_gaussian(p1, 0.62) - fidelity_gaussian(p2, 0.55)) <= 1e-12

    def test_fig_parameter_value(self):
        got = fidelity_gaussian(DickeParams(1.0, 1.0, 0.495), 0.45)
        assert got == pytest.approx(0.9244, abs=2e-3)
        assert abs(got - fidelity_scaling(0.1)) <= 2e-3

    def test_near_critical_convergence(self):
        got = fidelity_gaussian(DickeParams(1.0, 1.0, 0.4995), 0.495)
        assert abs(got - fidelity_scaling(0.1)) <= 2e-4

    @pytest.mark.parametrize("eta", [0.1, 0.5, 2.0])
    def test_ratio_invariance_tightens_toward_criticality(self, eta):
        lc = 0.5
        devs = []
        for s in (1e-2, 1e-3, 1e-4):  # normal side throughout
            l1 = lc * (1.0 - eta * s)
            l2 = lc * (1.0 - s)
            got = fidelity_gaussian(DickeParams(1.0, 1.0, l1), l2)
            devs.append(abs(got - fidelity_scaling(eta)))
        assert abs(devs[0] - devs[1]) <= 1e-3
        assert devs[0] > devs[1] > devs[2]

    def test_super_radiant_side_converges_too(self):
        lc = 0.5
        for eta in (0.1, 0.5):
            l1 = lc * (1.0 + eta * 1e-3)
            l2 = lc * (1.0 + 1e-3)
            got = fidelity_gaussian(DickeParams(1.0, 1.0, l1), l2)
            assert abs(got - fidelity_scaling(eta)) <= 1e-3

    def test_shared_rotation_variant_close_to_default(self):
        p1 = DickeParams(1.0, 1.0, 0.4995)
        a = fidelity_gaussian(p1, 0.495)
        b = fidelity_gaussian(p1, 0.495, shared_rotation=True)
        assert abs(a - b) <= 1e-4

    def test_critical_coupling_returns_zero(self):
        p1 = DickeParams(1.0, 1.0, 0.5)
        assert fidelity_gaussian(p1, 0.45) == 0.0

    def test_cross_phase_rejected(self):
        with pytest.raises(CrossPhaseError):
            fidelity_gaussian(DickeParams(1.0, 1.0, 0.45), 0.55)

    @pytest.mark.parametrize("coupling", [math.nan, math.inf, -0.1])
    def test_invalid_second_coupling_rejected(self, coupling):
        # the second state is built before the phase comparison, which a
        # nan coupling would fail with CrossPhaseError
        with pytest.raises(InputError, match="coupling must be finite and nonnegative"):
            fidelity_gaussian(DickeParams(1, 1, 0.4), coupling)

    def test_agrees_with_squeeze_route(self):
        # same ratio through the single-mode squeeze: exact identity
        for eta in (0.03, 0.1, 0.7):
            r = math.atanh((math.sqrt(eta) - 1.0) / (math.sqrt(eta) + 1.0))
            assert abs(fidelity_scaling(eta)
                       - squeeze_fidelity(SqueezeMap(r))) <= 1e-12
