"""Common result container and input normalisation for the solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cs.operators import BaseSensingOperator, SensingOperator


@dataclass
class SolverResult:
    """Outcome of a sparse-recovery solve.

    Attributes
    ----------
    coefficients:
        Recovered coefficient vector (dictionary domain).
    n_iterations:
        Iterations actually performed.
    converged:
        Whether the stopping tolerance was met before the iteration cap.
    residual_norm:
        Final ``||y - A z||_2``.
    history:
        Residual norm per iteration (useful for convergence plots/tests).
    step_reductions:
        How many times a step failed the sufficient-decrease test and was
        shrunk (0 when the initial step held throughout).
    """

    coefficients: np.ndarray
    n_iterations: int
    converged: bool
    residual_norm: float
    history: list[float] = field(default_factory=list)
    step_reductions: int = 0

    @property
    def sparsity(self) -> int:
        """Number of non-zero coefficients in the solution."""
        return int(np.count_nonzero(self.coefficients))

    def image(self, operator: SensingOperator) -> np.ndarray:
        """Synthesise the recovered coefficients into an image."""
        return operator.coefficients_to_image(self.coefficients)


def as_operator(
    operator_or_matrix: BaseSensingOperator | np.ndarray,
) -> BaseSensingOperator:
    """Accept a sensing operator (dense or structured) or a dense matrix."""
    if isinstance(operator_or_matrix, BaseSensingOperator):
        return operator_or_matrix
    return SensingOperator(np.asarray(operator_or_matrix, dtype=float))


def check_measurements(operator: BaseSensingOperator, measurements: np.ndarray) -> np.ndarray:
    """Validate and flatten the measurement vector."""
    measurements = np.asarray(measurements, dtype=float).reshape(-1)
    if measurements.size != operator.n_samples:
        raise ValueError(
            f"measurements must have {operator.n_samples} entries, got {measurements.size}"
        )
    return measurements
