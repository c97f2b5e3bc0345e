"""Greedy sparse recovery: orthogonal matching pursuit (OMP).

OMP builds the support of the solution one atom at a time and solves a
least-squares problem restricted to that support.  It is the right tool for
the small, explicitly-sparse problems in the test-suite and for block-based
CS where each block is low-dimensional; the image-scale benchmarks use the
proximal solvers instead.
"""

from __future__ import annotations

import numpy as np

from repro.cs.operators import SensingOperator
from repro.cs.solvers.result import SolverResult, as_operator, check_measurements
from repro.utils.validation import check_positive


def _least_squares_on_support(
    operator: SensingOperator,
    measurements: np.ndarray,
    support: np.ndarray,
) -> np.ndarray:
    """Solve ``min ||y - A_S x_S||`` and embed the solution in a full vector."""
    columns = operator.columns(support.tolist())
    solution, _, _, _ = np.linalg.lstsq(columns, measurements, rcond=None)
    coefficients = np.zeros(operator.n_coefficients)
    coefficients[support] = solution
    return coefficients


def omp(
    operator_or_matrix: SensingOperator | np.ndarray,
    measurements: np.ndarray,
    *,
    sparsity: int,
    tolerance: float = 1e-6,
    max_iterations: int | None = None,
) -> SolverResult:
    """Orthogonal matching pursuit.

    Parameters
    ----------
    operator_or_matrix:
        Sensing operator (or dense matrix) A.
    measurements:
        Measurement vector y.
    sparsity:
        Number of atoms to select (the stopping criterion together with the
        residual tolerance).
    tolerance:
        Stop early when the residual norm falls below this value.
    max_iterations:
        Hard cap on iterations; defaults to ``sparsity``.
    """
    operator = as_operator(operator_or_matrix)
    measurements = check_measurements(operator, measurements)
    check_positive("sparsity", sparsity)
    if max_iterations is None:
        max_iterations = int(sparsity)
    check_positive("max_iterations", max_iterations)

    residual = measurements.copy()
    support: list = []
    history = []
    coefficients = np.zeros(operator.n_coefficients)
    converged = False
    iteration = 0
    for iteration in range(1, int(max_iterations) + 1):
        correlations = operator.rmatvec(residual)
        correlations[support] = 0.0
        best = int(np.argmax(np.abs(correlations)))
        support.append(best)
        coefficients = _least_squares_on_support(
            operator, measurements, np.array(support, dtype=int)
        )
        residual = measurements - operator.matvec(coefficients)
        history.append(float(np.linalg.norm(residual)))
        if history[-1] <= tolerance or len(support) >= sparsity:
            converged = history[-1] <= tolerance or len(support) >= sparsity
            break
    return SolverResult(
        coefficients=coefficients,
        n_iterations=iteration,
        converged=converged,
        residual_norm=history[-1] if history else float(np.linalg.norm(residual)),
        history=history,
    )
