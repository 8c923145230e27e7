import numpy as np
import pytest

from qptscale import (EigenDecomposition, InputError, NumericError,
                      SymmetricMatrix, eigh_dense, lanczos_ground,
                      lanczos_survival, spectral_propagate)
from conftest import random_sparse_symmetric


class TestSymmetricMatrix:
    def test_from_dense_reads_upper_triangle_only(self):
        a = np.array([[1.0, 2.0], [99.0, 3.0]])
        m = SymmetricMatrix.from_dense(a)
        assert m.dense[1, 0] == 2.0

    def test_from_upper_sums_duplicates_and_matches_dense(self, rng):
        m = random_sparse_symmetric(rng, 40)
        x = rng.standard_normal(40)
        assert np.allclose(m.matvec(x), m.to_dense() @ x, atol=1e-13)
        assert m.frobenius() == pytest.approx(np.linalg.norm(m.to_dense()), rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            SymmetricMatrix.from_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputError):
            SymmetricMatrix.from_upper(3, [0], [1], [np.inf])

    def test_rejects_lower_triangle_coordinates(self):
        with pytest.raises(InputError):
            SymmetricMatrix(dim=3, rows=np.array([2]), cols=np.array([0]),
                            vals=np.array([1.0]))


class TestEighDense:
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
        m = SymmetricMatrix.from_dense(a)
        dec = eigh_dense(m)
        rec = (dec.vectors * dec.values) @ dec.vectors.T
        assert np.max(np.abs(rec - m.dense)) <= 1e-9 * m.frobenius()
        assert np.max(np.abs(dec.vectors.T @ dec.vectors - np.eye(50))) <= 1e-10
        dec.validate(m)

    def test_deterministic_on_degenerate_spectrum(self):
        a = np.diag([2.0, 2.0, 5.0])
        a[0, 1] = a[1, 0] = 0.0
        d1 = eigh_dense(a)
        d2 = eigh_dense(a)
        assert np.array_equal(d1.vectors, d2.vectors)
        d1.validate(SymmetricMatrix.from_dense(a))

    def test_dense_threshold_enforced(self):
        with pytest.raises(InputError):
            eigh_dense(np.eye(10), dense_threshold=5)

    def test_validate_catches_bad_decomposition(self):
        dec = EigenDecomposition(values=np.array([0.0, 1.0]),
                                 vectors=np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NumericError):
            dec.validate()


class TestLanczos:
    def test_diagonal_operator(self):
        e, v, _ = lanczos_ground(np.diag([5.0, -2.0, 7.0]), 3)
        assert e == pytest.approx(-2.0, abs=1e-10)
        assert np.abs(v[1]) == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_on_random_sparse(self, rng):
        for k in range(10):
            dim = int(rng.integers(30, 501))
            m = random_sparse_symmetric(rng, dim)
            e_dense = eigh_dense(m).values[0]
            e_lr, v, _ = lanczos_ground(m, dim, 1e-10, seed=k)
            assert abs(e_lr - e_dense) <= 1e-8
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_callable_oracle(self, rng):
        a = rng.standard_normal((60, 60))
        a = (a + a.T) / 2
        e, _, _ = lanczos_ground(lambda x: a @ x, 60)
        assert e == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-9)

    def test_residual_bound_holds(self, rng):
        m = random_sparse_symmetric(rng, 200)
        e, v, info = lanczos_ground(m, 200, 1e-10)
        resid = np.linalg.norm(m.matvec(v) - e * v)
        assert resid <= 1e-9 * max(np.abs(eigh_dense(m).values).max(), 1.0)
        assert 1 <= info.iterations <= 200
        assert 0 <= info.residual <= 1e-9 * max(np.abs(eigh_dense(m).values).max(), 1.0)

    def test_iteration_cap_raises(self, rng):
        m = random_sparse_symmetric(rng, 300)
        with pytest.raises(NumericError):
            lanczos_ground(m, 300, 1e-14, max_iter=4, max_restarts=0)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            lanczos_ground(np.eye(3), 3, tol=0.0)
        with pytest.raises(InputError):
            lanczos_ground(np.eye(3), 0)


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
