"""Iterative thresholding solvers: ISTA, FISTA and IHT.

These are the work-horses for the image-scale reconstructions (64x64 = 4096
unknowns, ~1600 measurements): every iteration needs exactly one application
of A and one of A*, both of which are fast (a structured or dense product for
Φ plus a fast transform for Ψ).  The product of the iterate that the residual
norm needs is carried into the next gradient, by linearity through FISTA's
momentum step, instead of being recomputed.

* ISTA/FISTA solve the LASSO problem ``min 0.5||y - Az||² + λ||z||₁`` by
  proximal gradient descent (FISTA adds Nesterov momentum).  Both run
  :func:`proximal_gradient`, the one FISTA/ISTA loop of the package, as a
  stack of one; the batched multi-tile solver
  (:mod:`repro.cs.solvers.batched`) runs it over a stack of tiles.
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

from collections.abc import Callable

import numpy as np

from repro.cs.operators import BaseSensingOperator, SensingOperator
from repro.cs.solvers.result import SolverResult, as_operator, check_measurements
from repro.telemetry import SolverProfile
from repro.utils.validation import check_positive


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Soft-thresholding (the proximal operator of the l1 norm)."""
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    return _shrink(values, threshold)


def _shrink(values: np.ndarray, thresholds: float | np.ndarray) -> np.ndarray:
    """Unchecked soft-thresholding; ``thresholds`` may be one per stack row."""
    return np.sign(values) * np.maximum(np.abs(values) - thresholds, 0.0)


def hard_threshold(values: np.ndarray, sparsity: int) -> np.ndarray:
    """Keep the ``sparsity`` largest-magnitude entries, zero the rest."""
    check_positive("sparsity", sparsity)
    result = np.zeros_like(values)
    if sparsity >= values.size:
        return values.copy()
    keep = np.argpartition(np.abs(values), -int(sparsity))[-int(sparsity):]
    result[keep] = values[keep]
    return result


def step_from_norm(sigma: float) -> float:
    """The gradient step ``1/σ²`` for ``σ = σ_max(A)``; a unit step for σ = 0.

    Solo and batched solves both take their steps from here, because
    Python's float power and numpy's array square can round ``σ²`` apart.
    """
    return 1.0 / (sigma ** 2) if sigma > 0.0 else 1.0


def _step_size(operator: BaseSensingOperator, step_size: float | None) -> float:
    if step_size is not None:
        check_positive("step_size", step_size)
        return float(step_size)
    return step_from_norm(operator.operator_norm())


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
    return _solo_proximal_gradient(
        operator_or_matrix, measurements, regularization=regularization,
        max_iterations=max_iterations, tolerance=tolerance, step_size=step_size,
        initial=initial, accelerated=False, profile=profile,
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
    return _solo_proximal_gradient(
        operator_or_matrix, measurements, regularization=regularization,
        max_iterations=max_iterations, tolerance=tolerance, step_size=step_size,
        initial=initial, accelerated=True, profile=profile,
    )


def _solo_proximal_gradient(
    operator_or_matrix: SensingOperator | np.ndarray,
    measurements: np.ndarray,
    *,
    regularization: float,
    max_iterations: int,
    tolerance: float,
    step_size: float | None,
    initial: np.ndarray | None,
    accelerated: bool,
    profile: SolverProfile | None,
) -> SolverResult:
    """One LASSO solve: the one-tile stack of :func:`proximal_gradient`."""
    operator = as_operator(operator_or_matrix)
    measurements = check_measurements(operator, measurements)
    check_positive("regularization", regularization, allow_zero=True)
    step = _step_size(operator, step_size)
    if initial is None:
        start = np.zeros(operator.n_coefficients)
    else:
        start = np.asarray(initial, dtype=float).reshape(-1)
        if start.size != operator.n_coefficients:
            raise ValueError("initial vector has the wrong dimension")
    (result,) = proximal_gradient(
        lambda stack: operator.matvec(stack[0])[None],
        lambda stack: operator.rmatvec(stack[0])[None],
        measurements[None],
        start[None],
        step_sizes=np.array([step]),
        regularization=np.array([float(regularization)]),
        max_iterations=max_iterations,
        tolerance=tolerance,
        accelerated=accelerated,
        step_provenance="estimated" if step_size is None else "provided",
        profile=profile,
    )
    return result


def proximal_gradient(
    forward: Callable[[np.ndarray], np.ndarray],
    adjoint: Callable[[np.ndarray], np.ndarray],
    measurements: np.ndarray,
    initial: np.ndarray,
    *,
    step_sizes: np.ndarray,
    regularization: np.ndarray,
    max_iterations: int,
    tolerance: float,
    accelerated: bool,
    step_provenance: str,
    profile: SolverProfile | None,
) -> list[SolverResult]:
    """FISTA (or ISTA) on a stack of ``T`` independent LASSO problems.

    ``forward``/``adjoint`` apply every ``A_t``/``A_t*`` to the rows of a
    ``(T, n)``/``(T, m)`` stack; steps and l1 weights are per tile.  A tile
    that meets its relative-change stop is frozen while the rest iterate
    on, and every per-tile reduction is the 1-D norm of one row, so a tile
    gives the same bytes in a stack of one as in a stack of many.  A is
    linear, so ``A @ momentum_point`` is tracked as the same combination of
    ``A @ candidate`` and ``A @ coefficients``: one forward product per
    iteration plus the start point's, with exact residual norms (ISTA's
    momentum point *is* the candidate, so its bytes are unchanged).
    ``profile`` gets the objective and residual norm summed over the stack
    and how many tiles entered each iteration frozen.
    """
    check_positive("max_iterations", max_iterations)
    check_positive("tolerance", tolerance)
    n_tiles = measurements.shape[0]
    if profile is not None:
        profile.record_step_size(float(step_sizes.mean()), provenance=step_provenance)
        profile.n_tiles = n_tiles
    # Per-tile steps and thresholds broadcast as columns; a lone tile's are
    # scalars, which numpy applies faster (same bytes).
    steps = step_sizes[:, None] if n_tiles > 1 else step_sizes[0]
    thresholds = steps * (regularization[:, None] if n_tiles > 1 else regularization[0])
    coefficients = initial.copy()
    momentum_point = coefficients.copy()
    momentum = 1.0
    measured_coefficients = forward(coefficients)
    measured_point = measured_coefficients
    histories: list[list[float]] = [[] for _ in range(n_tiles)]
    live = list(range(n_tiles))
    frozen: list[int] = []
    for _ in range(int(max_iterations)):
        if not live:
            break
        gradient = adjoint(measured_point - measurements)
        candidate = _shrink(momentum_point - steps * gradient, thresholds)
        measured_candidate = forward(candidate)
        if accelerated:
            next_momentum = (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2)) / 2.0
            weight = (momentum - 1.0) / next_momentum
            next_point = candidate + weight * (candidate - coefficients)
            next_measured = measured_candidate + weight * (
                measured_candidate - measured_coefficients
            )
            momentum = next_momentum
        else:
            next_point = candidate
            next_measured = measured_candidate
        deltas = candidate - coefficients
        # Frozen tiles keep their rows: patch them into the new stacks
        # (nothing to patch while every tile is live).
        for index in frozen:
            candidate[index] = coefficients[index]
            next_point[index] = momentum_point[index]
            measured_candidate[index] = measured_coefficients[index]
            next_measured[index] = measured_point[index]
        residuals = measurements - measured_candidate
        still_live = []
        for index in live:
            change = np.linalg.norm(deltas[index])
            scale = max(np.linalg.norm(coefficients[index]), 1e-12)
            histories[index].append(float(np.linalg.norm(residuals[index])))
            if change / scale <= tolerance:
                frozen.append(index)
            else:
                still_live.append(index)
        coefficients, momentum_point = candidate, next_point
        measured_coefficients, measured_point = measured_candidate, next_measured
        if profile is not None:
            objective = sum(
                0.5 * history[-1] ** 2
                + float(regularization[index]) * float(np.abs(coefficients[index]).sum())
                for index, history in enumerate(histories)
            )
            residual = np.hypot.reduce([history[-1] for history in histories])
            profile.record_iteration(objective, residual, frozen=n_tiles - len(live))
        live = still_live
    if profile is not None:
        profile.finish(converged=len(frozen) == n_tiles)
    return [
        SolverResult(
            coefficients=coefficients[index],
            n_iterations=len(history),
            converged=index in frozen,
            residual_norm=history[-1] if history else 0.0,
            history=history,
        )
        for index, history in enumerate(histories)
    ]


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
