import math

import numpy as np
import pytest

from qptscale import (DickeParams, DomainError, InputError, ResourceError,
                      TruncatedDicke, build_hamiltonian, critical_coupling,
                      echo_exact, fidelity_exact, fidelity_gaussian,
                      fidelity_scaling, ground_state_exact, mode_energies)
from qptscale import dicke_exact
from qptscale.config import parse_document
from qptscale.dicke_exact import solve_once
from conftest import (assert_echo_series, dicke_parity_indices, dicke_reference, dicke_systems,
                      gaussian_start, spectral_sum)


def block_dense(block):
    """Dense matrix of a block operator, one column per unit vector."""
    return np.column_stack([block @ e for e in np.eye(block.shape[0])])


def even_block_dense(spec):
    even, _ = dicke_parity_indices(spec)
    return even, dicke_reference(spec)[np.ix_(even, even)]


def test_truncated_dicke_validation():
    with pytest.raises(InputError):
        TruncatedDicke(0, 4, 1.0, 1.0, 0.1)
    with pytest.raises(InputError):
        TruncatedDicke(2, 1, 1.0, 1.0, 0.1)
    with pytest.raises(InputError):
        TruncatedDicke(2, 4, -1.0, 1.0, 0.1)


@pytest.mark.parametrize("n_atoms,n_boson", [(8.0, 8), (8.5, 8), (True, 8), (8, 8.0)],
                         ids=["atoms-float", "atoms-fraction", "atoms-bool", "bosons-float"])
def test_truncated_dicke_sizes_are_integers(n_atoms, n_boson):
    with pytest.raises(InputError, match="must be an integer"):
        TruncatedDicke(n_atoms, n_boson, 1.0, 1.0, 0.4)


class TestBuildHamiltonian:
    def test_decoupled_is_diagonal(self):
        spec = TruncatedDicke(3, 5, 1.3, 0.7, 0.0)
        even, _ = dicke_parity_indices(spec)
        dense = block_dense(build_hamiltonian(spec))
        assert np.all(dense == np.diag(np.diag(dense)))
        for pos, idx in enumerate(even):
            n, k = divmod(int(idx), spec.n_atoms + 1)
            expected = 1.3 * n + 0.7 * (k - spec.j)
            assert dense[pos, pos] == pytest.approx(expected, abs=1e-14)

    def test_hand_checked_coupling_element(self):
        # <n=1, m=0| H |n=0, m=-1> = (0.45/sqrt(2)) * 1 * sqrt(2) = 0.45
        spec = TruncatedDicke(2, 3, 1.0, 1.0, 0.45)
        row, col = 1 * 3 + 1, 0 * 3 + 0  # n * (N + 1) + m + j
        assert dicke_reference(spec)[row, col] == pytest.approx(0.45, abs=1e-14)
        even, _ = dicke_parity_indices(spec)
        pos = {int(idx): p for p, idx in enumerate(even)}
        dense = block_dense(build_hamiltonian(spec))
        assert dense[pos[row], pos[col]] == pytest.approx(0.45, abs=1e-14)

    def test_parity_blocks_decouple_exactly(self):
        spec = TruncatedDicke(5, 8, 1.0, 2.0, 0.9)
        h = dicke_reference(spec)
        assert np.array_equal(h, h.T)
        even, odd = dicke_parity_indices(spec)
        assert even.size + odd.size == spec.dim
        assert np.all(h[np.ix_(even, odd)] == 0.0)
        assert np.count_nonzero(h[np.ix_(even, even)] - np.diag(np.diag(h)[even])) > 0

    @pytest.mark.parametrize("spec", [
        TruncatedDicke(5, 8, 1.0, 2.0, 0.9),
        TruncatedDicke(4, 9, 1.3, 0.7, 0.45),
        TruncatedDicke(6, 3, 0.8, 1.1, 0.3),
        TruncatedDicke(1, 6, 1.0, 1.0, 0.45),
        TruncatedDicke(3, 5, 1.3, 0.7, 0.0),
    ], ids=["N5-nb8", "N4-nb9", "N6-nb3", "N1-nb6", "uncoupled"])
    def test_blocks_match_reference(self, spec):
        # the even block, at couplings on both sides of the critical one
        even, reference = even_block_dense(spec)
        block = build_hamiltonian(spec)
        assert block.shape == (even.size, even.size)
        assert np.allclose(block_dense(block), reference, rtol=0.0, atol=1e-14)

    def test_memory_cap(self):
        # the cap is checked when the system is made, before any block is
        # built: 447 * 448 = 200,256 states exceed MAX_DIM
        assert 447 * 448 > dicke_exact.MAX_DIM
        with pytest.raises(ResourceError, match="cap"):
            TruncatedDicke(447, 447, 1.0, 1.0, 0.1)


class TestGroundStateExact:
    def test_decoupled_ground_state(self):
        # the bare vacuum |n=0, m=-j> is the exact ground state, with energy
        # -omega0 * N / 2, and the Lanczos run starts there: one step
        for spec, energy in ((TruncatedDicke(2, 4, 1.0, 1.0, 0.0), -1.0),
                             (TruncatedDicke(8, 6, 1.0, 2.0, 0.0), -8.0)):
            e0, vector, info = ground_state_exact(spec)
            assert e0 == pytest.approx(energy, abs=1e-12)
            even, _ = dicke_parity_indices(spec)
            expected = (even == 0).astype(float)  # basis index 0 is |n=0, m=-j>
            assert np.allclose(vector, expected, atol=1e-10)
            assert info.iterations == 1

    @pytest.mark.parametrize("n_atoms,cap", [(64, 100), (128, 120)])
    def test_normal_phase_step_count(self, n_atoms, cap):
        # the vacuum start takes 80 and 100 steps here; a random start
        # takes 140 and 220
        _, _, info = ground_state_exact(TruncatedDicke(n_atoms, n_atoms, 1.0, 1.0, 0.495))
        assert info.iterations <= cap

    def test_cutoff_convergence(self):
        e64 = ground_state_exact(TruncatedDicke(1, 64, 1.0, 1.0, 0.45))[0]
        e128 = ground_state_exact(TruncatedDicke(1, 128, 1.0, 1.0, 0.45))[0]
        assert abs(e64 - e128) <= 1e-8

    def test_enlarging_cutoff_is_variational(self):
        energies = [ground_state_exact(TruncatedDicke(4, nb, 1.0, 1.0, 0.48))[0]
                    for nb in (4, 8, 16, 32)]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-12

    def test_matches_dense_oracle(self):
        spec = TruncatedDicke(8, 32, 1.0, 1.0, 0.45)
        energy, vector, info = ground_state_exact(spec)
        even, block = even_block_dense(spec)
        values, vectors = np.linalg.eigh(block)
        assert abs(energy - values[0]) <= 1e-8
        assert abs(abs(vector @ vectors[:, 0]) - 1.0) <= 1e-8
        assert 0 < info.iterations <= even.size
        assert info.residual <= 1e-11 * 2.0 * np.linalg.norm(block)

    @pytest.mark.parametrize("omega0", [0.1, 10.0])
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 0.9, 0.999, 0.999999])
    def test_even_block_holds_the_ground_state(self, omega0, ratio):
        # below the critical coupling the even block's lowest level is the
        # lowest level of the whole truncated Hamiltonian, both blocks
        # included, even at the smallest boson cutoff
        for n_atoms in (1, 2, 5, 8):
            spec = TruncatedDicke(n_atoms, 2, 1.0, omega0,
                                  ratio * critical_coupling(1.0, omega0))
            energy, _, _ = ground_state_exact(spec)
            assert abs(energy - np.linalg.eigvalsh(dicke_reference(spec))[0]) <= 1e-8

    @pytest.mark.parametrize("spec", [TruncatedDicke(4, 5, 1.0, 1.0, 0.3)], ids=["normal"])
    def test_vector_lives_on_its_block(self, spec):
        # the vector has the even block's length (13 states for N = 4,
        # n_b = 5) and is that block's lowest eigenvector
        energy, vector, _ = ground_state_exact(spec)
        block = build_hamiltonian(spec)
        assert vector.size == block.shape[0] == 13
        assert energy == pytest.approx(np.linalg.eigvalsh(block_dense(block))[0], abs=1e-10)
        assert np.linalg.norm(block @ vector - energy * vector) <= 1e-8

    @pytest.mark.parametrize("spec", [
        TruncatedDicke(64, 64, 1.0, 1.0, 0.5),
        TruncatedDicke(12, 24, 1.0, 1.0, 0.9),
        TruncatedDicke(4, 5, 1.0, 1.0, 0.9),
        TruncatedDicke(5, 8, 1.0, 2.0, 1.6),
    ], ids=["critical", "super-radiant", "super-radiant-N4", "super-radiant-omega0-2"])
    def test_super_radiant_refused(self, spec):
        # at and above the critical coupling (0.5 at omega = omega0 = 1,
        # 0.707 at omega0 = 2) there is no normal-phase ground state
        with pytest.raises(DomainError, match="critical"):
            ground_state_exact(spec)

    def test_lanczos_on_decoupled_hamiltonian(self):
        from qptscale import lanczos_ground
        spec = TruncatedDicke(2, 6, 1.0, 1.0, 0.0)
        h = build_hamiltonian(spec)
        energy, _, _ = lanczos_ground(h, gaussian_start(h))
        assert energy == pytest.approx(-1.0, abs=1e-10)


class TestFidelityExact:
    def test_equal_couplings(self):
        assert fidelity_exact(*dicke_systems(4, 8, 0.3, 0.3)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_in_couplings(self):
        a = fidelity_exact(*dicke_systems(8, 8, 0.495, 0.45))
        b = fidelity_exact(*dicke_systems(8, 8, 0.45, 0.495))
        assert a == pytest.approx(b, abs=1e-12)

    def test_bounded(self):
        lp = fidelity_exact(*dicke_systems(6, 6, 0.4, 0.2))
        assert 0.0 <= lp <= 1.0

    def test_dots_the_block_vectors(self):
        spec1, spec2 = dicke_systems(8, 8, 0.495, 0.45)
        g1, g2 = ground_state_exact(spec1)[1], ground_state_exact(spec2)[1]
        assert g1.size == g2.size == build_hamiltonian(spec1).shape[0]
        assert fidelity_exact(spec1, spec2) == abs(g1 @ g2)

    def test_approaches_thermodynamic_value(self):
        # N = 64 sits within ~6e-2 of the two-mode limit at these couplings
        lp = fidelity_exact(*dicke_systems(64, 64, 0.495, 0.45))
        ref = fidelity_gaussian(DickeParams(1.0, 1.0, 0.495),
                                DickeParams(1.0, 1.0, 0.45),
                                shared_rotation=True)
        assert abs(lp - ref) < 6e-2


class TestConvergenceGap:
    """The pieces of the D(N) series that the converge task assembles: exact
    fidelities over N and the size list it accepts."""

    def test_degenerate_pair_gives_constant_zero(self):
        # equal couplings share one ground state at every N, and eta = 1
        # puts the ratio-only law at 1 too
        assert fidelity_scaling(1.0) == 1.0
        for n in (4, 8, 12):
            assert fidelity_exact(*dicke_systems(n, n, 0.4, 0.4)) == pytest.approx(1.0, abs=1e-12)

    def test_fig_parameters_decay_monotonically(self):
        # D(N) = |Lp^N - L_eta| with n_b = N falls over N = 8, 16, 32
        reference = fidelity_scaling(0.1)
        gaps = [abs(fidelity_exact(*dicke_systems(n, n, 0.495, 0.45)) - reference)
                for n in (8, 16, 32)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_cutoff_error_below_truncation_decrement(self):
        # doubling the boson cutoff at fixed N moves Lp far less than N -> 2N
        lp_16_16 = fidelity_exact(*dicke_systems(16, 16, 0.495, 0.45))
        lp_16_32 = fidelity_exact(*dicke_systems(16, 32, 0.495, 0.45))
        lp_32_32 = fidelity_exact(*dicke_systems(32, 32, 0.495, 0.45))
        assert abs(lp_16_32 - lp_16_16) < abs(lp_32_32 - lp_16_16)

    @pytest.mark.parametrize("sizes", [[8.5, 16.9], [8, 16.0], [True, 8]])
    def test_non_integer_sizes_rejected(self, sizes):
        with pytest.raises(InputError, match="n_list"):
            parse_document({"model": "dicke", "task": "converge",
                            "converge": {"n_list": sizes}})


class TestEchoExact:
    def test_starts_at_one(self):
        t = np.linspace(0.0, 5.0, 41)
        series = echo_exact(*dicke_systems(6, 6, 0.45, 0.4), t)
        assert series.echo[0] == pytest.approx(1.0, abs=1e-12)
        assert_echo_series(series)

    def test_equal_couplings_stay_at_one(self):
        t = np.linspace(0.0, 20.0, 101)
        series = echo_exact(*dicke_systems(6, 6, 0.45, 0.45), t)
        assert np.max(np.abs(series.echo - 1.0)) <= 1e-10

    def test_tau_uses_zero_mode_frequency(self):
        t = np.linspace(0.0, 5.0, 21)
        series = echo_exact(*dicke_systems(6, 8, 0.495, 0.45), t)
        e1 = mode_energies(DickeParams(1.0, 1.0, 0.495)).e1
        assert e1 == pytest.approx(0.1, abs=1e-14)
        assert np.allclose(series.tau, 0.1 * t, atol=1e-14)
        assert series.period == pytest.approx(math.pi / 0.1, rel=1e-13)
        assert list(series.meta) == ["krylov_depth"]  # solver diagnostics only

    @pytest.mark.parametrize("end,covers", [(1.0 - 1e-9, False), (1.0 + 1e-9, True)])
    def test_covers_period(self, end, covers):
        e1 = mode_energies(DickeParams(1.0, 1.0, 0.45)).e1
        t = np.linspace(0.0, end * math.pi / e1, 33)
        assert echo_exact(*dicke_systems(6, 6, 0.45, 0.4), t).covers_period is covers

    def test_first_minimum_near_half_period(self):
        # half the echo period pi/e1: the even-parity tower spaces levels
        # by 2*e1, so the first dip sits at pi/(2 e1)
        e1 = mode_energies(DickeParams(1.0, 1.0, 0.4995)).e1
        t = np.linspace(0.0, math.pi / e1, 801)
        series = echo_exact(*dicke_systems(40, 40, 0.4995, 0.45), t)
        t_min = t[int(np.argmin(series.echo))]
        assert t_min == pytest.approx(math.pi / (2.0 * e1), rel=0.1)

    def test_normalized(self):
        t = np.linspace(0.0, 40.0, 201)
        series = echo_exact(*dicke_systems(10, 12, 0.48, 0.42), t)
        assert np.max(series.echo) <= 1.0 + 1e-10
        assert np.min(series.echo) >= 0.0

    def test_matches_dense_oracle(self):
        # one full echo period, t * e1 up to pi
        e1 = mode_energies(DickeParams(1.0, 1.0, 0.495)).e1
        t = np.linspace(0.0, math.pi / e1, 301)
        series = echo_exact(*dicke_systems(32, 32, 0.495, 0.45), t)
        even, block = even_block_dense(TruncatedDicke(32, 32, 1.0, 1.0, 0.495))
        psi0 = ground_state_exact(TruncatedDicke(32, 32, 1.0, 1.0, 0.45))[1]
        oracle = np.abs(spectral_sum(*np.linalg.eigh(block), psi0, t)) ** 2
        assert np.max(np.abs(series.echo - oracle)) <= 1e-10
        assert 0 < series.meta["krylov_depth"] < even.size

    def test_runs_above_old_dense_ceiling(self):
        # even block of dim 4656, above the 4096 the dense path accepted
        e1 = mode_energies(DickeParams(1.0, 1.0, 0.45)).e1
        t = np.linspace(0.0, math.pi / e1, 65)
        series = echo_exact(*dicke_systems(96, 96, 0.45, 0.4), t)
        assert series.echo[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(series.echo >= 0.0) and np.all(series.echo <= 1.0 + 1e-12)
        assert_echo_series(series)


def test_solve_once_reuses_ground_states_inside_its_block(monkeypatch):
    solved = []
    original = dicke_exact.ground_state_exact
    monkeypatch.setattr(dicke_exact, "ground_state_exact",
                        lambda system: solved.append(system.coupling) or original(system))
    t = np.linspace(0.0, 5.0, 21)
    plain = [fidelity_exact(*dicke_systems(8, 8, l1, 0.45)) for l1 in (0.48, 0.49)]
    plain_echo = echo_exact(*dicke_systems(8, 8, 0.48, 0.45), t).echo
    assert solved == [0.48, 0.45, 0.49, 0.45, 0.45]
    with solve_once():
        reused = [fidelity_exact(*dicke_systems(8, 8, l1, 0.45)) for l1 in (0.48, 0.49)]
        reused_echo = echo_exact(*dicke_systems(8, 8, 0.48, 0.45), t).echo
    assert solved[5:] == [0.48, 0.45, 0.49]
    assert reused == plain and np.array_equal(reused_echo, plain_echo)
    fidelity_exact(*dicke_systems(8, 8, 0.48, 0.45))  # the block has ended
    assert solved[8:] == [0.48, 0.45]


def test_super_radiant_exact_fidelity_and_echo_refused():
    t = np.linspace(0.0, 1.0, 11)
    for l1, l2 in ((0.55, 0.6), (0.45, 0.55), (0.5, 0.45)):
        with pytest.raises(DomainError):
            fidelity_exact(*dicke_systems(8, 8, l1, l2))
        with pytest.raises(DomainError):
            echo_exact(*dicke_systems(8, 8, l1, l2), t)


@pytest.mark.parametrize("other", [
    TruncatedDicke(6, 8, 1.0, 1.0, 0.2),
    TruncatedDicke(8, 12, 1.0, 1.0, 0.2),
    TruncatedDicke(8, 8, 1.0, 2.0, 0.2),
    TruncatedDicke(8, 8, 2.0, 1.0, 0.2),
], ids=["n_atoms", "n_boson", "omega0", "omega"])
def test_systems_on_different_bases_refused(other):
    # a vector laid out on one basis says nothing about the other's states
    system = TruncatedDicke(8, 8, 1.0, 1.0, 0.3)
    t = np.linspace(0.0, 1.0, 11)
    for pair in ((system, other), (other, system)):
        with pytest.raises(InputError, match="differ only in coupling"):
            fidelity_exact(*pair)
        with pytest.raises(InputError, match="differ only in coupling"):
            echo_exact(*pair, t)

