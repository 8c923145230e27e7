"""Acceptance suite: one test per ship criterion, each printing a PASS line
with its measured margin.  Run with `pytest -v tests/test_acceptance.py`
(add -s to see the margin lines on passing runs)."""

import math
import time

import numpy as np
import pytest

from qptscale import (DickeParams, DomainError, SqueezeMap, TruncatedDicke,
                      build_hamiltonian, collapse_check,
                      critical_coupling, echo_exact, fidelity_exact,
                      fidelity_gaussian, fidelity_lmg, fidelity_scaling,
                      ground_state_exact,
                      lanczos_ground, lanczos_survival, min_echo, mode_energies,
                      mp_scaling, participation_ratio,
                      squeeze_fidelity, survival_closed)
from conftest import (dicke_parity_indices, dicke_reference, dicke_systems,
                      gaussian_start, random_sparse_symmetric, spectral_sum)


def ratio_map(eta):
    return SqueezeMap(math.atanh((math.sqrt(eta) - 1.0) / (math.sqrt(eta) + 1.0)))


def test_criterion_1_fidelity_scaling_law():
    start = time.perf_counter()
    lc = critical_coupling(1.0, 1.0)
    worst = {1e-3: 0.0, 1e-4: 0.0}
    for scale, tol in ((1e-3, 1e-3), (1e-4, 1e-4)):
        for eta in (1e-3, 1e-2, 1e-1, 0.5):
            for sign in (-1.0, 1.0):  # normal and super-radiant sides
                l1 = lc * (1.0 + sign * eta * scale)
                l2 = lc * (1.0 + sign * scale)
                got = fidelity_gaussian(DickeParams(1.0, 1.0, l1),
                                        DickeParams(1.0, 1.0, l2))
                dev = abs(got - fidelity_scaling(eta))
                worst[scale] = max(worst[scale], dev)
                assert dev <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS fidelity scaling law: worst dev "
          f"{worst[1e-3]:.2e} @1e-3, {worst[1e-4]:.2e} @1e-4 ({elapsed:.2f}s)")


def test_criterion_2_lmg_dicke_universality():
    start = time.perf_counter()
    worst = 0.0
    for gamma in (0.0, 0.5):
        for eta in (1e-2, 1e-1):
            h2 = 1.0 + 1e-3
            h1 = 1.0 + eta * 1e-3
            dev = abs(fidelity_lmg(gamma, h1, h2) - fidelity_scaling(eta))
            worst = max(worst, dev)
            assert dev <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS lmg/dicke universality: worst dev {worst:.2e} "
          f"({elapsed:.2f}s)")


def test_criterion_3_convergence_study():
    start = time.perf_counter()
    # D(N) = |Lp^N - Lp(eta)| at eta = 0.1, with n_b = N
    gaps = np.array([abs(fidelity_exact(*dicke_systems(n, n, 0.495, 0.45))
                         - fidelity_scaling(0.1)) for n in (8, 16, 32, 64, 128)])
    assert np.all(np.diff(gaps) < 0.0), "D must decrease strictly"
    slopes = np.diff(np.log(gaps)) / np.diff(np.log([8, 16, 32, 64, 128]))
    margins = -np.diff(slopes)
    assert np.all(margins > 0.0), "successive log-log slopes must steepen"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 3 PASS convergence study: D {gaps[0]:.3e} -> {gaps[-1]:.3e}, "
          f"slopes {np.round(slopes, 3)}, min concavity margin {margins.min():.3f} "
          f"({elapsed:.1f}s)")


def test_criterion_4_echo_minimum_law():
    start = time.perf_counter()
    worst = 0.0
    for eta in (1e-4, 1e-3, 1e-2, 1e-1):
        t = np.linspace(0.0, math.pi, 20001)
        series = survival_closed(ratio_map(eta), 1.0, t)
        dev = abs(min_echo(series) - mp_scaling(eta))
        worst = max(worst, dev)
        assert dev <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 4 PASS echo minimum law: worst dev {worst:.2e} "
          f"({elapsed:.2f}s)")


def test_criterion_5_echo_collapse():
    start = time.perf_counter()
    lc = critical_coupling(1.0, 1.0)
    tau = np.linspace(0.0, math.pi, 257)

    def singlemode(eta, scale):
        l1 = lc * (1.0 - eta * scale)
        l2 = lc * (1.0 - scale)
        e1a = mode_energies(DickeParams(1.0, 1.0, l1)).e1
        e1b = mode_energies(DickeParams(1.0, 1.0, l2)).e1
        m = SqueezeMap(0.5 * math.log(e1b / e1a))
        return scale, survival_closed(m, e1a, tau / e1a)

    groups = [(eta, [singlemode(eta, s) for s in (1e-2, 1e-3)])
              for eta in (1e-2, 1e-3)]
    worst = max(group.spread for group in collapse_check(groups))
    assert worst <= 1e-4

    def exact_member(n_atoms, eta, scale):
        l1 = lc * (1.0 - eta * scale)
        l2 = lc * (1.0 - scale)
        e1 = mode_energies(DickeParams(1.0, 1.0, l1)).e1
        return scale, echo_exact(*dicke_systems(n_atoms, n_atoms, l1, l2), tau / e1)

    spreads = {}
    for n_atoms in (32, 64):
        members = [exact_member(n_atoms, 0.5, s) for s in (0.5, 0.25)]
        spreads[n_atoms] = collapse_check([(0.5, members)])[0].spread
    assert spreads[64] < spreads[32]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 5 PASS echo collapse: single-mode spread {worst:.2e}, "
          f"exact spread {spreads[32]:.3e} (N=32) -> {spreads[64]:.3e} (N=64) "
          f"({elapsed:.1f}s)")


def test_criterion_6_echo_shape():
    start = time.perf_counter()
    # the eta law for the whole curve: at the scaling map the closed-form
    # echo is M(tau; eta) = [1 + (1 - eta)^2 / (4 eta) sin^2 tau]^{-1/2}
    # on tau = omega1 t, over two periods
    lc = critical_coupling(1.0, 1.0)
    eta, scale = 0.3, 1e-3
    e1 = mode_energies(DickeParams(1.0, 1.0, lc * (1.0 - eta * scale))).e1
    worst_law = 0.0
    for omega1 in (e1, 1.0):
        t = np.linspace(0.0, 2.0 * math.pi / omega1, 10001)
        for eta_law in (0.001, 0.1, 0.3, 0.5, 2.0, 10.0):
            law = (1.0 + (1.0 - eta_law) ** 2 / (4.0 * eta_law)
                   * np.sin(omega1 * t) ** 2) ** -0.5
            got = survival_closed(ratio_map(eta_law), omega1, t).echo
            worst_law = max(worst_law, float(np.max(np.abs(got - law))))
    assert worst_law <= 1e-14

    # small-t curvature at the near-critical pair (eta = 0.3, second coupling
    # 0.1% below critical): (1 - M) / t^2 -> sinh^2(2r) e1^2 / 2.  Its
    # relative gap is c tau^2 with c = 3 sinh^2(2r) / 4 + 1/3 = 0.639 here,
    # measured 6.39e-7 at tau = 1e-3 and falling 100-fold per decade of tau
    squeeze = ratio_map(eta)
    taus = np.array([0.0, 1e-3, 1e-2, 1e-1])
    t = taus / e1
    echo = survival_closed(squeeze, e1, t).echo
    limit = 0.5 * math.sinh(2.0 * squeeze.r) ** 2 * e1**2
    gaps = np.abs((1.0 - echo[1:]) / t[1:] ** 2 / limit - 1.0)
    assert np.all(gaps <= taus[1:] ** 2)
    assert 99.0 <= gaps[1] / gaps[0] <= 101.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6 PASS echo shape: eta law worst dev {worst_law:.1e} "
          f"(<= 1e-14), small-t curvature rel gap {gaps[0]:.2e} at tau=1e-3 "
          f"(<= 1e-6), {gaps[1] / gaps[0]:.2f}x per decade ({elapsed:.1f}s)")


def test_criterion_7_solver_integrity():
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    worst_rec, worst_orth = 0.0, 0.0
    for _ in range(100):
        dim = int(rng.integers(5, 201))
        a = rng.standard_normal((dim, dim))
        sym = (a + a.T) / 2.0
        values, vectors = np.linalg.eigh(sym)
        rec = (vectors * values) @ vectors.T
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - sym))
                                         / np.linalg.norm(sym)))
        worst_orth = max(worst_orth, float(np.max(np.abs(
            vectors.T @ vectors - np.eye(dim)))))
    assert worst_rec <= 1e-9
    assert worst_orth <= 1e-10

    worst_gap = 0.0
    for k in range(100):
        dim = int(rng.integers(20, 501))
        sym = random_sparse_symmetric(rng, dim)
        e_dense = np.linalg.eigh(sym.toarray())[0][0]
        e_kry, _, _ = lanczos_ground(sym, np.random.default_rng(k).standard_normal(dim))
        worst_gap = max(worst_gap, abs(e_dense - e_kry))
    assert worst_gap <= 1e-8

    worst_unit, worst_echo = 0.0, 0.0
    t = np.linspace(0.0, 1.3, 14)
    for _ in range(100):
        dim = int(rng.integers(4, 120))
        a = rng.standard_normal((dim, dim))
        sym = (a + a.T) / 2.0
        values, vectors = np.linalg.eigh(sym)
        psi = rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        weights = (vectors.T @ psi) ** 2
        worst_unit = max(worst_unit, abs(float(weights.sum()) - 1.0))
        dense = spectral_sum(values, vectors, psi, t)
        assert np.max(np.abs(dense)) <= 1.0 + 1e-12
        krylov, _ = lanczos_survival(sym, psi, t)
        worst_echo = max(worst_echo, float(np.max(np.abs(
            np.abs(krylov) ** 2 - np.abs(dense) ** 2))))
    assert worst_unit <= 1e-10
    assert worst_echo <= 1e-10

    # the Dicke even parity block against the element-by-element dense
    # Hamiltonian, on a separate stream so the draws above stay as they were
    dicke_rng = np.random.default_rng(77)
    worst_block, worst_dicke = 0.0, 0.0
    for _ in range(20):
        spec = TruncatedDicke(int(dicke_rng.integers(1, 11)), int(dicke_rng.integers(2, 13)),
                              *dicke_rng.uniform(0.5, 1.5, 2), dicke_rng.uniform(0.0, 1.2))
        even, _ = dicke_parity_indices(spec)
        reference = dicke_reference(spec)[np.ix_(even, even)]
        block = build_hamiltonian(spec)
        dense = np.column_stack([block @ e for e in np.eye(even.size)])
        worst_block = max(worst_block, float(np.max(np.abs(dense - reference))))
        e_kry, _, _ = lanczos_ground(block, gaussian_start(block))
        worst_dicke = max(worst_dicke, abs(np.linalg.eigvalsh(reference)[0] - e_kry))
    assert worst_block <= 1e-12
    assert worst_dicke <= 1e-8

    # ground_state_exact (started from the even block's lowest bare state)
    # against the lowest eigenpair of the whole reference, both blocks
    # included, below the critical coupling, and refused at and above it,
    # on a stream of its own
    gs_rng = np.random.default_rng(707)
    worst_gs_energy, worst_gs_overlap, phases = 0.0, 0.0, set()
    for _ in range(20):
        spec = TruncatedDicke(int(gs_rng.integers(1, 11)), int(gs_rng.integers(2, 13)),
                              *gs_rng.uniform(0.5, 1.5, 2), gs_rng.uniform(0.0, 1.2))
        normal = spec.coupling < critical_coupling(spec.omega, spec.omega0)
        phases.add(normal)
        if not normal:
            with pytest.raises(DomainError, match="critical"):
                ground_state_exact(spec)
            continue
        values, vectors = np.linalg.eigh(dicke_reference(spec))
        even, _ = dicke_parity_indices(spec)
        energy, vector, _ = ground_state_exact(spec)
        worst_gs_energy = max(worst_gs_energy, abs(energy - values[0]))
        worst_gs_overlap = max(worst_gs_overlap, 1.0 - abs(vector @ vectors[even, 0]))
    assert phases == {True, False}
    assert worst_gs_energy <= 1e-8
    assert worst_gs_overlap <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 7 PASS solver integrity: rec {worst_rec:.2e}, orth "
          f"{worst_orth:.2e}, lanczos/dense {worst_gap:.2e}, unitarity "
          f"{worst_unit:.2e}, echo lanczos/dense {worst_echo:.2e}, dicke "
          f"block/reference {worst_block:.2e}, dicke lanczos/dense "
          f"{worst_dicke:.2e}, ground state energy/dense {worst_gs_energy:.2e}, "
          f"1 - overlap {worst_gs_overlap:.2e} ({elapsed:.1f}s)")


def test_criterion_8_cross_module_identities():
    worst_fid, worst_chi = 0.0, 0.0
    for eta in (1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0, 2.0, 10.0):
        m = ratio_map(eta)
        worst_fid = max(worst_fid,
                        abs(fidelity_scaling(eta) - squeeze_fidelity(m)))
    assert worst_fid <= 1e-12
    # the participation ratio's AGM form against the direct sum 1 / sum |a_2n|^4
    # over the squeezed vacuum's closed-form amplitudes
    # |a_2n| = (cosh r)^{-1/2} sqrt(C(2n, n) / 4^n) |tanh r|^n
    for r in (0.1, -0.6, 1.2):
        weights = [math.comb(2 * n, n) / 4**n * math.tanh(r) ** (2 * n) / math.cosh(r)
                   for n in range(201)]
        direct = 1.0 / math.fsum(w * w for w in weights)
        worst_chi = max(worst_chi, abs(participation_ratio(SqueezeMap(r)) - direct))
    assert worst_chi <= 1e-12
    print(f"ACCEPTANCE 8 PASS cross-module identities: fidelity dev "
          f"{worst_fid:.2e}, participation ratio/amplitude sum dev {worst_chi:.2e} "
          f"({worst_chi / 1e-12:.1e} of the 1e-12 bound)")
