"""Iterative thresholding solvers: ISTA, FISTA and IHT.

These are the work-horses for the image-scale reconstructions (64x64 = 4096
unknowns, ~1600 measurements): every iteration needs exactly one application
of A and one of A*, both of which are fast (a structured or dense product for
Φ plus a fast transform for Ψ).  The product of the iterate that the residual
norm needs is carried into the next gradient, by linearity through FISTA's
momentum step, instead of being recomputed.

* ISTA/FISTA solve the LASSO problem ``min 0.5||y - Az||² + λ||z||₁`` by
  proximal gradient descent (FISTA adds Nesterov momentum).
* IHT solves the k-sparse constrained problem by gradient steps followed by
  hard thresholding to the k largest coefficients.

Every solver takes an opt-in ``profile``
(:class:`~repro.telemetry.SolverProfile`): when given, it receives the
composite objective and residual norm after each iteration plus the step
size and where it came from.  Profiling only *reads* solver state — it
never changes an iterate or consumes an RNG draw, so a profiled solve is
bit-identical to an unprofiled one (pinned by the telemetry suite), and the
default ``None`` skips every bookkeeping branch.
"""

from __future__ import annotations


import numpy as np

from repro.cs.operators import SensingOperator
from repro.cs.solvers.result import SolverResult, as_operator, check_measurements
from repro.telemetry import SolverProfile
from repro.utils.validation import check_positive


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Soft-thresholding (the proximal operator of the l1 norm)."""
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def hard_threshold(values: np.ndarray, sparsity: int) -> np.ndarray:
    """Keep the ``sparsity`` largest-magnitude entries, zero the rest."""
    check_positive("sparsity", sparsity)
    result = np.zeros_like(values)
    if sparsity >= values.size:
        return values.copy()
    keep = np.argpartition(np.abs(values), -int(sparsity))[-int(sparsity):]
    result[keep] = values[keep]
    return result


def _step_size(operator: SensingOperator, step_size: float | None) -> float:
    if step_size is not None:
        check_positive("step_size", step_size)
        return float(step_size)
    norm = operator.operator_norm()
    if norm == 0.0:
        return 1.0
    return 1.0 / (norm ** 2)


def ista(
    operator_or_matrix: SensingOperator | np.ndarray,
    measurements: np.ndarray,
    *,
    regularization: float = 0.1,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    step_size: float | None = None,
    initial: np.ndarray | None = None,
    profile: SolverProfile | None = None,
) -> SolverResult:
    """Iterative shrinkage-thresholding for the LASSO problem.

    Parameters
    ----------
    regularization:
        The l1 weight λ, in the units of the measurements.
    step_size:
        Gradient step; defaults to ``1/σ_max(A)²`` estimated by power
        iteration (the largest provably-convergent step).
    tolerance:
        Stop when the relative change of the iterate falls below this value.
    profile:
        Opt-in :class:`~repro.telemetry.SolverProfile`: records the
        per-iteration LASSO objective and residual norm plus the step size
        and its provenance.  Read-only — the solve itself is unchanged.
    """
    return _proximal_gradient(
        operator_or_matrix,
        measurements,
        regularization=regularization,
        max_iterations=max_iterations,
        tolerance=tolerance,
        step_size=step_size,
        initial=initial,
        accelerated=False,
        profile=profile,
    )


def fista(
    operator_or_matrix: SensingOperator | np.ndarray,
    measurements: np.ndarray,
    *,
    regularization: float = 0.1,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    step_size: float | None = None,
    initial: np.ndarray | None = None,
    profile: SolverProfile | None = None,
) -> SolverResult:
    """FISTA — ISTA with Nesterov momentum (Beck & Teboulle 2009)."""
    return _proximal_gradient(
        operator_or_matrix,
        measurements,
        regularization=regularization,
        max_iterations=max_iterations,
        tolerance=tolerance,
        step_size=step_size,
        initial=initial,
        accelerated=True,
        profile=profile,
    )


def _proximal_gradient(
    operator_or_matrix: SensingOperator | np.ndarray,
    measurements: np.ndarray,
    *,
    regularization: float,
    max_iterations: int,
    tolerance: float,
    step_size: float | None,
    initial: np.ndarray | None,
    accelerated: bool,
    profile: SolverProfile | None = None,
) -> SolverResult:
    operator = as_operator(operator_or_matrix)
    measurements = check_measurements(operator, measurements)
    check_positive("regularization", regularization, allow_zero=True)
    check_positive("max_iterations", max_iterations)
    check_positive("tolerance", tolerance)
    step = _step_size(operator, step_size)
    if profile is not None:
        profile.record_step_size(
            step, provenance="provided" if step_size is not None else "estimated"
        )
        profile.n_tiles = 1

    if initial is None:
        coefficients = np.zeros(operator.n_coefficients)
    else:
        coefficients = np.asarray(initial, dtype=float).reshape(-1).copy()
        if coefficients.size != operator.n_coefficients:
            raise ValueError("initial vector has the wrong dimension")
    momentum_point = coefficients.copy()
    momentum = 1.0
    # A is linear, so A @ momentum_point is the same combination of
    # A @ candidate and A @ coefficients as the momentum point itself:
    # tracking both measurement-domain images costs one matvec per iteration
    # (the residual's, which stays exact) instead of two.  ISTA's momentum
    # point *is* the candidate, so its bytes are unchanged by the tracking.
    measured_coefficients = operator.matvec(coefficients)
    measured_point = measured_coefficients
    history = []
    converged = False
    iteration = 0
    for iteration in range(1, int(max_iterations) + 1):
        gradient = operator.rmatvec(measured_point - measurements)
        candidate = soft_threshold(momentum_point - step * gradient, step * regularization)
        measured_candidate = operator.matvec(candidate)
        if accelerated:
            next_momentum = (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2)) / 2.0
            weight = (momentum - 1.0) / next_momentum
            momentum_point = candidate + weight * (candidate - coefficients)
            measured_point = measured_candidate + weight * (
                measured_candidate - measured_coefficients
            )
            momentum = next_momentum
        else:
            momentum_point = candidate
            measured_point = measured_candidate
        change = np.linalg.norm(candidate - coefficients)
        scale = max(np.linalg.norm(coefficients), 1e-12)
        coefficients = candidate
        measured_coefficients = measured_candidate
        residual = measurements - measured_coefficients
        history.append(float(np.linalg.norm(residual)))
        if profile is not None:
            profile.record_iteration(
                0.5 * history[-1] ** 2
                + float(regularization) * float(np.abs(coefficients).sum()),
                history[-1],
            )
        if change / scale <= tolerance:
            converged = True
            break
    if profile is not None:
        profile.finish(converged=converged)
    return SolverResult(
        coefficients=coefficients,
        n_iterations=iteration,
        converged=converged,
        residual_norm=history[-1] if history else 0.0,
        history=history,
    )


def iht(
    operator_or_matrix: SensingOperator | np.ndarray,
    measurements: np.ndarray,
    *,
    sparsity: int,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    step_size: float | None = None,
    profile: SolverProfile | None = None,
) -> SolverResult:
    """Iterative hard thresholding (Blumensath & Davies 2009).

    ``profile`` records the data-fidelity objective ``0.5||y - Az||²`` per
    iteration (IHT has no l1 term) plus step-size provenance; read-only.
    """
    operator = as_operator(operator_or_matrix)
    measurements = check_measurements(operator, measurements)
    check_positive("sparsity", sparsity)
    check_positive("max_iterations", max_iterations)
    step = _step_size(operator, step_size)
    if profile is not None:
        profile.record_step_size(
            step, provenance="provided" if step_size is not None else "estimated"
        )
        profile.n_tiles = 1

    coefficients = np.zeros(operator.n_coefficients)
    # The residual's product is the next gradient's: carry it forward (A of
    # the zero start is zero), so each iteration costs one matvec.
    measured = np.zeros(operator.n_samples)
    history = []
    converged = False
    iteration = 0
    for iteration in range(1, int(max_iterations) + 1):
        gradient = operator.rmatvec(measured - measurements)
        candidate = hard_threshold(coefficients - step * gradient, int(sparsity))
        change = np.linalg.norm(candidate - coefficients)
        scale = max(np.linalg.norm(coefficients), 1e-12)
        coefficients = candidate
        measured = operator.matvec(coefficients)
        residual = measurements - measured
        history.append(float(np.linalg.norm(residual)))
        if profile is not None:
            profile.record_iteration(0.5 * history[-1] ** 2, history[-1])
        if change / scale <= tolerance:
            converged = True
            break
    if profile is not None:
        profile.finish(converged=converged)
    return SolverResult(
        coefficients=coefficients,
        n_iterations=iteration,
        converged=converged,
        residual_norm=history[-1] if history else 0.0,
        history=history,
    )
