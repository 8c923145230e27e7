import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

import qptscale.linalg
from qptscale import (InputError, NumericError, TruncatedDicke, build_hamiltonian,
                      lanczos_ground, lanczos_survival)
from qptscale.linalg import GatherOperator
from conftest import gaussian_start, peak_bytes, random_sparse_symmetric, spectral_sum


def stored_ritz_vector(a, start, steps):
    """Lowest Ritz vector after ``steps`` steps of a three-term Lanczos
    recurrence that keeps every Lanczos vector: unit norm, largest
    component positive."""
    basis = [start / np.linalg.norm(start)]
    alphas, betas = [], []
    for k in range(steps):
        w = a @ basis[k]
        alphas.append(float(basis[k] @ w))
        w = w - alphas[k] * basis[k]
        if k:
            w = w - betas[k - 1] * basis[k - 1]
        betas.append(float(np.linalg.norm(w)))
        basis.append(w / betas[k])
    t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    vector = np.linalg.eigh(t)[1][:, 0] @ np.array(basis[:steps])
    vector /= np.linalg.norm(vector)
    return vector if vector[np.argmax(np.abs(vector))] > 0 else -vector


class TestLanczos:
    def test_diagonal_operator(self):
        d = np.diag([5.0, -2.0, 7.0])
        e, v, _ = lanczos_ground(d, gaussian_start(d))
        assert e == pytest.approx(-2.0, abs=1e-10)
        assert np.abs(v[1]) == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_on_random_sparse(self, rng):
        for k in range(10):
            dim = int(rng.integers(30, 501))
            m = random_sparse_symmetric(rng, dim)
            e_dense = np.linalg.eigh(m.toarray())[0][0]
            e_lr, v, _ = lanczos_ground(m, np.random.default_rng(k).standard_normal(dim))
            assert abs(e_lr - e_dense) <= 1e-8
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_callable_oracle(self, rng):
        a = rng.standard_normal((60, 60))
        a = (a + a.T) / 2
        op = LinearOperator((60, 60), matvec=lambda x: a @ x)
        e, _, _ = lanczos_ground(op, gaussian_start(op))
        assert e == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-9)

    def test_residual_bound_holds(self, rng):
        m = random_sparse_symmetric(rng, 200)
        e, v, info = lanczos_ground(m, gaussian_start(m))
        resid = np.linalg.norm(m @ v - e * v)
        scale = max(np.abs(np.linalg.eigh(m.toarray())[0]).max(), 1.0)
        assert resid <= 1e-9 * scale
        assert 1 <= info.iterations <= 200
        assert 0 <= info.residual <= 1e-9 * scale

    def test_iteration_cap_raises(self, rng, monkeypatch):
        m = random_sparse_symmetric(rng, 300)
        monkeypatch.setattr(qptscale.linalg, "KRYLOV_MAX_STEPS", 4)
        monkeypatch.setattr(qptscale.linalg, "GROUND_TOL", 1e-14)
        with pytest.raises(NumericError):
            lanczos_ground(m, gaussian_start(m))

    def test_breakdown_counts_as_converged(self, monkeypatch):
        # two distinct eigenvalues: the Krylov space closes after two steps,
        # with a residual above this tol
        monkeypatch.setattr(qptscale.linalg, "GROUND_TOL", 1e-17)
        d = np.diag([1.0] * 10 + [3.0] * 10)
        e, v, info = lanczos_ground(d, gaussian_start(d))
        assert e == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v[10:]) <= 1e-12
        assert info.iterations == 2

    def test_bad_inputs(self):
        for bad in (np.zeros((0, 0)), np.ones((2, 3)), np.ones(3)):
            with pytest.raises(InputError):
                lanczos_ground(bad, np.ones(3))
            with pytest.raises(InputError):
                lanczos_survival(bad, np.ones(1), [0.0])
        with pytest.raises(InputError):
            lanczos_survival(np.eye(3), np.ones(4) / 2.0, [0.0])
        for bad in (np.ones(4), np.zeros(3), np.array([1.0, np.inf, 0.0])):
            with pytest.raises(InputError):
                lanczos_ground(np.eye(3), bad)

    def test_gather_operator_is_its_dense_matrix(self, rng):
        # a chain with two gather rows, the shape of a tridiagonal block; the
        # missing neighbours at both ends point at entry 0 with amplitude 0
        dim = 40
        diagonal, hop = rng.standard_normal(dim), rng.standard_normal(dim - 1)
        pos = np.arange(dim)
        neighbours = np.array([np.r_[pos[1:], 0], np.r_[0, pos[:-1]]])
        amplitudes = np.array([np.r_[hop, 0.0], np.r_[0.0, hop]])
        op = GatherOperator(diagonal, neighbours, amplitudes)
        dense = np.diag(diagonal) + np.diag(hop, 1) + np.diag(hop, -1)
        assert op.shape == (dim, dim)
        x = rng.standard_normal(dim)
        assert np.allclose(op @ x, dense @ x, rtol=0.0, atol=1e-13)
        e, _, _ = lanczos_ground(op, gaussian_start(op))
        assert e == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-8)

    def test_ground_tol_is_read_at_call_time(self, monkeypatch):
        # a looser GROUND_TOL, patched after import, stops the solve sooner
        block = build_hamiltonian(TruncatedDicke(32, 32, 1.0, 1.0, 0.45))
        vacuum = np.zeros(block.shape[0])
        vacuum[0] = 1.0
        tight = lanczos_ground(block, start=vacuum)[2]
        monkeypatch.setattr(qptscale.linalg, "GROUND_TOL", 1e-4)
        loose = lanczos_ground(block, start=vacuum)[2]
        assert loose.iterations < tight.iterations


class TestKrylovCore:
    def test_second_pass_sums_the_stored_ritz_vector(self, rng):
        block = build_hamiltonian(TruncatedDicke(64, 64, 1.0, 1.0, 0.495))
        vacuum = np.zeros(block.shape[0])
        vacuum[0] = 1.0
        m = random_sparse_symmetric(rng, 300)
        for a, start in ((block, vacuum), (m, rng.standard_normal(300))):
            _, v, info = lanczos_ground(a, start)
            reference = stored_ritz_vector(a, start, info.iterations)
            assert np.max(np.abs(v - reference)) <= 1e-12

    def test_memory_stays_a_few_vectors(self):
        # no stored basis: a few block-length vectors (dim 8256) besides the
        # k x k projection, whose eigh adds 2 k^2 floats; the ground state
        # takes 100 steps and the echo over about one period 200
        block = build_hamiltonian(TruncatedDicke(128, 128, 1.0, 1.0, 0.495))
        dim = block.shape[0]
        vacuum = np.zeros(dim)
        vacuum[0] = 1.0
        quenched = build_hamiltonian(TruncatedDicke(128, 128, 1.0, 1.0, 0.49))
        psi0 = lanczos_ground(quenched, vacuum)[1]
        t = np.linspace(0.0, 30.0, 513)
        for solve in (lambda: lanczos_ground(block, vacuum),
                      lambda: lanczos_survival(block, psi0, t)):
            assert peak_bytes(solve) <= 32 * dim * np.dtype(float).itemsize

    def test_breakdown_between_checks(self, monkeypatch):
        monkeypatch.setattr(qptscale.linalg, "GROUND_TOL", 1e-17)
        d = np.diag([1.0] * 5 + [2.0] * 5 + [4.0] * 5)
        e, v, info = lanczos_ground(d, gaussian_start(d))
        assert info.iterations == 3
        assert e == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v[5:]) <= 1e-12

    def test_space_fills_between_checks(self, rng, monkeypatch):
        a = rng.standard_normal((36, 36))
        a = (a + a.T) / 2
        values, vectors = np.linalg.eigh(a)
        # both runs go past dim 36: only a breakdown ends a run early
        monkeypatch.setattr(qptscale.linalg, "GROUND_TOL", 1e-17)
        e, _, _ = lanczos_ground(a, gaussian_start(a))
        assert e == pytest.approx(values[0], abs=1e-10)
        psi = rng.standard_normal(36)
        psi /= np.linalg.norm(psi)
        t = np.linspace(0.0, 20.0, 41)
        amp, _ = lanczos_survival(a, psi, t)
        assert np.max(np.abs(amp - spectral_sum(values, vectors, psi, t))) <= 1e-10

    def test_survival_step_cap_below_check_cadence_raises(self, rng, monkeypatch):
        # lanczos_ground at a cap of 4: TestLanczos.test_iteration_cap_raises
        m = random_sparse_symmetric(rng, 300)
        psi = rng.standard_normal(300)
        psi /= np.linalg.norm(psi)
        monkeypatch.setattr(qptscale.linalg, "KRYLOV_MAX_STEPS", 4)
        with pytest.raises(NumericError, match="within 4 steps"):
            lanczos_survival(m, psi, np.linspace(0.0, 50.0, 101))


class TestLanczosSurvival:
    def test_step_cap_raises(self, rng, monkeypatch):
        m = random_sparse_symmetric(rng, 300)
        psi = rng.standard_normal(300)
        psi /= np.linalg.norm(psi)
        monkeypatch.setattr(qptscale.linalg, "KRYLOV_MAX_STEPS", 40)
        with pytest.raises(NumericError):
            lanczos_survival(m, psi, np.linspace(0.0, 50.0, 101))

    @pytest.mark.parametrize("t", [np.zeros((2, 3)), np.array(0.5), np.array([]),
                                   np.array([0.0, np.nan, 1.0]), np.array([0.0, np.inf])],
                             ids=["2-d", "0-d", "empty", "nan", "inf"])
    def test_bad_time_grid_is_an_input_error(self, t):
        psi = np.ones(400) / 20.0
        with pytest.raises(InputError, match="1-D grid"):
            lanczos_survival(np.diag(np.linspace(0.0, 1.0, 400)), psi, t)

    def test_quadrature_memory_bounded_on_long_grids(self):
        # 64 levels take 80 steps here; summing the quadrature over the whole
        # 2^16-sample grid at once holds ~140 MB of 2^16 x nodes arrays
        a = np.diag(np.linspace(0.0, 1.0, 64))
        psi = np.ones(64) / 8.0
        t = np.linspace(0.0, 200.0, 2**16)
        item = np.dtype(complex).itemsize
        bound = 4 * qptscale.linalg.QUADRATURE_BLOCK * item + 8 * t.size * item
        assert peak_bytes(lambda: lanczos_survival(a, psi, t)) <= bound

    def test_blocked_quadrature_gives_the_same_bytes(self, monkeypatch):
        # a Dicke echo whose grid spans many blocks of 4096 terms, against
        # the whole grid summed in one block
        block = build_hamiltonian(TruncatedDicke(16, 16, 1.0, 1.0, 0.495))
        vacuum = np.zeros(block.shape[0])
        vacuum[0] = 1.0
        quenched = build_hamiltonian(TruncatedDicke(16, 16, 1.0, 1.0, 0.45))
        psi0 = lanczos_ground(quenched, vacuum)[1]
        t = np.linspace(0.0, 40.0, 3001)
        amps = []
        for terms in (4096, 2**30):
            monkeypatch.setattr(qptscale.linalg, "QUADRATURE_BLOCK", terms)
            amps.append(lanczos_survival(block, psi0, t))
        assert amps[0][1] == amps[1][1]
        assert np.array_equal(amps[0][0], amps[1][0])


class TestSpectralPropagate:
    """Properties every survival amplitude must have, checked on
    lanczos_survival."""

    def test_identity_at_t_zero(self, rng):
        m = random_sparse_symmetric(rng, 30)
        psi = rng.standard_normal(30)
        psi /= np.linalg.norm(psi)
        amp, _ = lanczos_survival(m, psi, [0.0])
        assert amp[0] == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_is_stationary(self, rng):
        m = random_sparse_symmetric(rng, 25)
        psi = np.linalg.eigh(m.toarray())[1][:, 3]
        amp, depth = lanczos_survival(m, psi, [0.1, 2.7, 40.0])
        assert np.abs(amp) == pytest.approx(1.0, abs=1e-12)
        assert depth == 1

    def test_two_level_superposition(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        t = np.linspace(0.0, 12.0, 97)
        amp, depth = lanczos_survival(np.diag([0.0, 1.0]), psi, t)
        assert np.allclose(np.abs(amp) ** 2, np.cos(t / 2) ** 2, atol=1e-12)
        assert depth == 2

    def test_amplitude_bounded(self, rng):
        m = random_sparse_symmetric(rng, 40)
        psi = rng.standard_normal(40)
        psi /= np.linalg.norm(psi)
        amp, _ = lanczos_survival(m, psi, np.linspace(0, 50, 500))
        assert np.max(np.abs(amp)) <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            lanczos_survival(np.eye(4), np.ones(5) / np.sqrt(5), [1.0])

    def test_requires_unit_norm(self):
        with pytest.raises(InputError):
            lanczos_survival(np.eye(4), np.ones(4), [1.0])
