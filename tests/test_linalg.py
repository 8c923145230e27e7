import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import LinearOperator

from qptscale import (EigenDecomposition, InputError, NumericError, eigh_dense,
                      lanczos_ground, lanczos_survival, spectral_propagate)
from conftest import random_sparse_symmetric


class TestEighDense:
    def test_reads_upper_triangle_only(self):
        a = np.array([[1.0, 2.0], [99.0, 3.0]])
        upper = np.array([[1.0, 2.0], [2.0, 3.0]])
        dec, ref = eigh_dense(a), eigh_dense(upper)
        assert np.array_equal(dec.values, ref.values)
        assert np.array_equal(dec.vectors, ref.vectors)
        dec.validate(a)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            eigh_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputError):
            eigh_dense(scipy.sparse.csr_array(([np.inf], ([0], [1])), shape=(3, 3)))

    def test_diagonal_matrix(self):
        dec = eigh_dense(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0])
        # permuted standard basis, signs fixed positive
        assert np.allclose(np.abs(dec.vectors), np.eye(3)[:, [1, 2, 0]])
        assert np.all(dec.vectors.max(axis=0) > 0)

    def test_two_level_mixer(self):
        dec = eigh_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.values, [-1.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(dec.vectors[:, 0]), [s, s])
        assert np.allclose(np.abs(dec.vectors[:, 1]), [s, s])
        assert dec.vectors[:, 0] @ dec.vectors[:, 1] == pytest.approx(0.0, abs=1e-14)

    def test_random_reconstruction_and_orthonormality(self, rng):
        a = rng.standard_normal((50, 50))
        a = (a + a.T) / 2
        dec = eigh_dense(a)
        rec = (dec.vectors * dec.values) @ dec.vectors.T
        assert np.max(np.abs(rec - a)) <= 1e-9 * np.linalg.norm(a)
        assert np.max(np.abs(dec.vectors.T @ dec.vectors - np.eye(50))) <= 1e-10
        dec.validate(a)

    def test_deterministic_on_degenerate_spectrum(self):
        a = np.diag([2.0, 2.0, 5.0])
        a[0, 1] = a[1, 0] = 0.0
        d1 = eigh_dense(a)
        d2 = eigh_dense(a)
        assert np.array_equal(d1.vectors, d2.vectors)
        d1.validate(a)

    def test_dense_threshold_enforced(self):
        with pytest.raises(InputError):
            eigh_dense(np.eye(10), dense_threshold=5)
        with pytest.raises(InputError):  # refused before it is densified
            eigh_dense(scipy.sparse.eye_array(10**6, format="csr"))

    def test_validate_catches_bad_decomposition(self):
        dec = EigenDecomposition(values=np.array([0.0, 1.0]),
                                 vectors=np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NumericError):
            dec.validate()


class TestLanczos:
    def test_diagonal_operator(self):
        e, v, _ = lanczos_ground(np.diag([5.0, -2.0, 7.0]))
        assert e == pytest.approx(-2.0, abs=1e-10)
        assert np.abs(v[1]) == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_on_random_sparse(self, rng):
        for k in range(10):
            dim = int(rng.integers(30, 501))
            m = random_sparse_symmetric(rng, dim)
            e_dense = eigh_dense(m).values[0]
            e_lr, v, _ = lanczos_ground(m, 1e-10, seed=k)
            assert abs(e_lr - e_dense) <= 1e-8
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_callable_oracle(self, rng):
        a = rng.standard_normal((60, 60))
        a = (a + a.T) / 2
        e, _, _ = lanczos_ground(LinearOperator((60, 60), matvec=lambda x: a @ x))
        assert e == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-9)

    def test_residual_bound_holds(self, rng):
        m = random_sparse_symmetric(rng, 200)
        e, v, info = lanczos_ground(m, 1e-10)
        resid = np.linalg.norm(m @ v - e * v)
        assert resid <= 1e-9 * max(np.abs(eigh_dense(m).values).max(), 1.0)
        assert 1 <= info.iterations <= 200
        assert 0 <= info.residual <= 1e-9 * max(np.abs(eigh_dense(m).values).max(), 1.0)

    def test_iteration_cap_raises(self, rng):
        m = random_sparse_symmetric(rng, 300)
        with pytest.raises(NumericError):
            lanczos_ground(m, 1e-14, max_iter=4)

    def test_breakdown_counts_as_converged(self):
        # two distinct eigenvalues: the Krylov space closes after two steps,
        # with a residual above this tol
        e, v, info = lanczos_ground(np.diag([1.0] * 10 + [3.0] * 10), 1e-17)
        assert e == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v[10:]) <= 1e-12
        assert info.iterations == 2

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            lanczos_ground(np.eye(3), tol=0.0)
        for bad in (np.zeros((0, 0)), np.ones((2, 3)), np.ones(3)):
            with pytest.raises(InputError):
                lanczos_ground(bad)
            with pytest.raises(InputError):
                lanczos_survival(bad, np.ones(1), [0.0])
        with pytest.raises(InputError):
            lanczos_survival(np.eye(3), np.ones(4) / 2.0, [0.0])


class TestLanczosSurvival:
    def test_step_cap_raises(self, rng):
        m = random_sparse_symmetric(rng, 300)
        psi = rng.standard_normal(300)
        psi /= np.linalg.norm(psi)
        with pytest.raises(NumericError):
            lanczos_survival(m, psi, np.linspace(0.0, 50.0, 101), max_iter=40)


class TestSpectralPropagate:
    def test_identity_at_t_zero(self, rng):
        dec = eigh_dense(random_sparse_symmetric(rng, 30))
        psi = rng.standard_normal(30)
        psi /= np.linalg.norm(psi)
        assert spectral_propagate(dec, psi, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_is_stationary(self, rng):
        dec = eigh_dense(random_sparse_symmetric(rng, 25))
        psi = dec.vectors[:, 3]
        for t in (0.1, 2.7, 40.0):
            assert abs(spectral_propagate(dec, psi, t)) == pytest.approx(1.0, abs=1e-12)

    def test_two_level_superposition(self):
        dec = EigenDecomposition(values=np.array([0.0, 1.0]), vectors=np.eye(2))
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        t = np.linspace(0.0, 12.0, 97)
        amp = spectral_propagate(dec, psi, t)
        assert np.allclose(np.abs(amp) ** 2, np.cos(t / 2) ** 2, atol=1e-12)

    def test_amplitude_bounded(self, rng):
        dec = eigh_dense(random_sparse_symmetric(rng, 40))
        psi = rng.standard_normal(40)
        psi /= np.linalg.norm(psi)
        amp = spectral_propagate(dec, psi, np.linspace(0, 50, 500))
        assert np.max(np.abs(amp)) <= 1.0 + 1e-12

    def test_dimension_mismatch(self, rng):
        dec = eigh_dense(np.eye(4))
        with pytest.raises(InputError):
            spectral_propagate(dec, np.ones(5) / np.sqrt(5), 1.0)

    def test_requires_unit_norm(self):
        dec = eigh_dense(np.eye(4))
        with pytest.raises(InputError):
            spectral_propagate(dec, np.ones(4), 1.0)
