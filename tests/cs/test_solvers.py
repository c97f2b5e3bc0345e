"""Tests for the sparse-recovery solvers.

Each solver is exercised on synthetic exactly-sparse problems where the
ground truth is known, plus edge cases (zero measurements, bad arguments).
"""

import numpy as np
import pytest

from repro.cs.dictionaries import DCT2Dictionary
from repro.cs.matrices import gaussian_matrix
from repro.cs.operators import SensingOperator
from repro.cs.solvers import fista, ista
from repro.cs.solvers.iterative import soft_threshold


def sparse_problem(n_samples=40, n_coefficients=100, sparsity=5, seed=0, noise=0.0):
    """Random Gaussian A, exactly k-sparse x, y = A x (+ noise)."""
    rng = np.random.default_rng(seed)
    matrix = gaussian_matrix(n_samples, n_coefficients, seed=seed)
    coefficients = np.zeros(n_coefficients)
    support = rng.choice(n_coefficients, sparsity, replace=False)
    coefficients[support] = rng.standard_normal(sparsity) + np.sign(rng.standard_normal(sparsity))
    measurements = matrix @ coefficients
    if noise > 0:
        measurements = measurements + noise * rng.standard_normal(n_samples)
    return matrix, coefficients, measurements


class TestThresholdOperators:
    def test_soft_threshold_shrinks_towards_zero(self):
        values = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        assert soft_threshold(values, 1.0).tolist() == [-2.0, 0.0, 0.0, 0.0, 2.0]

    def test_soft_threshold_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros(3), -1.0)


class TestISTAAndFISTA:
    def test_fista_recovers_sparse_signal_approximately(self):
        matrix, truth, measurements = sparse_problem(n_samples=50, sparsity=5, seed=11)
        result = fista(matrix, measurements, regularization=1e-3, max_iterations=500)
        assert np.linalg.norm(result.coefficients - truth) / np.linalg.norm(truth) < 0.05

    def test_fista_converges_faster_than_ista(self):
        matrix, _, measurements = sparse_problem(n_samples=50, sparsity=5, seed=12)
        slow = ista(matrix, measurements, regularization=1e-3, max_iterations=60)
        fast = fista(matrix, measurements, regularization=1e-3, max_iterations=60)
        assert fast.residual_norm <= slow.residual_norm + 1e-9

    def test_large_regularization_gives_zero_solution(self):
        matrix, _, measurements = sparse_problem(seed=13)
        huge = float(np.abs(matrix.T @ measurements).max() * 10)
        result = fista(matrix, measurements, regularization=huge, max_iterations=50)
        assert result.sparsity == 0

    def test_zero_measurements_give_zero_solution(self):
        matrix, _, _ = sparse_problem(seed=14)
        result = fista(matrix, np.zeros(matrix.shape[0]), regularization=0.1)
        assert np.allclose(result.coefficients, 0.0)

    def test_warm_start_initial_vector(self):
        matrix, truth, measurements = sparse_problem(n_samples=50, sparsity=5, seed=15)
        warm = fista(
            matrix, measurements, regularization=1e-3, max_iterations=10, initial=truth
        )
        assert np.linalg.norm(warm.coefficients - truth) < 0.1

    def test_wrong_initial_length_rejected(self):
        matrix, _, measurements = sparse_problem(seed=16)
        with pytest.raises(ValueError):
            fista(matrix, measurements, initial=np.zeros(3))

    def test_works_with_sensing_operator_and_dictionary(self):
        """FISTA through a Φ Ψ operator recovers a DCT-sparse image."""
        dictionary = DCT2Dictionary((8, 8))
        coefficients = np.zeros(64)
        coefficients[[0, 3, 17, 40]] = [8.0, 4.0, -3.0, 2.0]
        phi = gaussian_matrix(40, 64, seed=18)
        operator = SensingOperator(phi, dictionary)
        measurements = operator.matvec(coefficients)
        result = fista(operator, measurements, regularization=1e-3, max_iterations=400)
        # The l1 penalty leaves a small shrinkage bias on the large coefficients.
        assert np.linalg.norm(result.coefficients - coefficients) < 0.25
        assert set(np.argsort(np.abs(result.coefficients))[::-1][:4]) == {0, 3, 17, 40}
