"""Iterative soft-thresholding solvers: ISTA and FISTA.

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

The default step ``1/σ²`` comes from ``operator.operator_norm()``, which for
CA frames is a closed-form estimate rather than a bound.  So the loop
checks every step with the sufficient-decrease test of
``f(z) = ½‖Az − y‖²``.  For this quadratic ``f`` the test is exactly
``‖A(z⁺ − v)‖² ≤ ‖z⁺ − v‖²/t``, and both products are already in hand.
A tile that fails it shrinks its step, recomputes its candidate and pays
one forward product for its own row; a step that passes costs nothing.

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


def step_from_norm(sigma: float) -> float:
    """The gradient step ``1/σ²`` for ``σ = σ_max(A)``; a unit step for σ = 0.

    Solo and batched solves both take their steps from here, because
    Python's float power and numpy's array square can round ``σ²`` apart.
    """
    return 1.0 / (sigma ** 2) if sigma > 0.0 else 1.0


#: A step that fails the sufficient-decrease test shrinks to at most this
#: fraction of itself, or to the curvature the failed step measured.
BACKTRACK_FACTOR = 0.5


def backtracked_step(delta: np.ndarray, measured_delta: np.ndarray, step: float) -> float | None:
    """The shrunk step if ``step`` fails the sufficient-decrease test, else ``None``.

    ``delta`` is ``z⁺ − v`` for one tile and ``measured_delta`` its product
    ``A(z⁺ − v)``.  The test ``t·‖A d‖² ≤ ‖d‖²`` is the exact descent
    condition of ``½‖Az − y‖²``.  A failed step shrinks to the smaller of
    ``BACKTRACK_FACTOR·t`` and ``‖d‖²/‖A d‖²``, the inverse curvature along
    ``d``; the halving guarantees the retry loop ends.  A step that moved
    nothing (``d = 0``) passes, whatever rounding left in the tracked
    ``A d``, and so does a test that reads NaN.  Both reductions are 1-D
    dots of one row, so a tile decides alike alone and in a stack.
    """
    curvature = float(measured_delta @ measured_delta)
    distance = float(delta @ delta)
    if distance == 0.0 or not step * curvature > distance:
        return None
    return min(BACKTRACK_FACTOR * step, distance / curvature)


def _step_size(
    operator: BaseSensingOperator, step_size: float | None
) -> tuple[float, str]:
    """The initial step and its provenance: provided, bound or estimated."""
    if step_size is not None:
        check_positive("step_size", step_size)
        return float(step_size), "provided"
    provenance = "estimated" if operator.norm_estimate is None else "bound"
    return step_from_norm(operator.operator_norm()), provenance


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
        Initial gradient step; defaults to ``1/σ²`` for
        ``σ = operator.operator_norm()`` (the closed-form estimate of a CA
        frame, else a power iteration).  Any step that fails the
        sufficient-decrease test is shrunk; see :func:`backtracked_step`.
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
    step, provenance = _step_size(operator, step_size)
    if initial is None:
        start = np.zeros(operator.n_coefficients)
    else:
        start = np.asarray(initial, dtype=float).reshape(-1)
        if start.size != operator.n_coefficients:
            raise ValueError("initial vector has the wrong dimension")
    (result,) = proximal_gradient(
        lambda stack, _tiles: operator.matvec(stack[0])[None],
        lambda stack: operator.rmatvec(stack[0])[None],
        measurements[None],
        start[None],
        step_sizes=np.array([step]),
        regularization=np.array([float(regularization)]),
        max_iterations=max_iterations,
        tolerance=tolerance,
        accelerated=accelerated,
        step_provenance=provenance,
        profile=profile,
    )
    return result


def proximal_gradient(
    forward: Callable[[np.ndarray, list[int]], np.ndarray],
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

    ``forward(stack, tiles)`` applies ``A_t`` to the rows of a ``(k, n)``
    stack for the ``k`` listed tiles; ``adjoint`` applies every ``A_t*`` to
    the rows of a ``(T, m)`` stack.  Steps and l1 weights are per tile, and
    a tile whose step fails the sufficient-decrease test
    (:func:`backtracked_step`) shrinks it, retries its own row and keeps the
    smaller step.  A tile that meets its relative-change stop is frozen
    while the rest iterate on, and every per-tile reduction is the 1-D
    reduction of one row, so a tile gives the same bytes in a stack of one
    as in a stack of many.  A is linear, so ``A @ momentum_point`` is
    tracked as the same combination of ``A @ candidate`` and
    ``A @ coefficients``: one forward product per iteration plus the start
    point's, with exact residual norms (ISTA's momentum point *is* the
    candidate, so its bytes are unchanged).  ``profile`` gets the objective
    and residual norm summed over the stack, how many tiles entered each
    iteration frozen and the number of step reductions.
    """
    check_positive("max_iterations", max_iterations)
    check_positive("tolerance", tolerance)
    n_tiles = measurements.shape[0]
    all_tiles = list(range(n_tiles))
    if profile is not None:
        profile.record_step_size(float(step_sizes.mean()), provenance=step_provenance)
        profile.n_tiles = n_tiles
    step_sizes = np.array(step_sizes, dtype=float)
    reductions = [0] * n_tiles
    coefficients = initial.copy()
    momentum_point = coefficients.copy()
    momentum = 1.0
    measured_coefficients = forward(coefficients, all_tiles)
    measured_point = measured_coefficients
    histories: list[list[float]] = [[] for _ in range(n_tiles)]
    live = all_tiles
    frozen: list[int] = []
    for _ in range(int(max_iterations)):
        if not live:
            break
        # Per-tile steps and thresholds broadcast as columns; a lone tile's
        # are scalars, which numpy applies faster (same bytes).
        steps = step_sizes[:, None] if n_tiles > 1 else step_sizes[0]
        thresholds = steps * (regularization[:, None] if n_tiles > 1 else regularization[0])
        gradient = adjoint(measured_point - measurements)
        candidate = _shrink(momentum_point - steps * gradient, thresholds)
        measured_candidate = forward(candidate, all_tiles)
        failing = live
        while failing:
            retry = []
            for index in failing:
                shrunk = backtracked_step(
                    candidate[index] - momentum_point[index],
                    measured_candidate[index] - measured_point[index],
                    float(step_sizes[index]),
                )
                if shrunk is not None:
                    step_sizes[index] = shrunk
                    reductions[index] += 1
                    candidate[index] = _shrink(
                        momentum_point[index] - step_sizes[index] * gradient[index],
                        step_sizes[index] * regularization[index],
                    )
                    retry.append(index)
            if retry:
                measured_candidate[retry] = forward(candidate[retry], retry)
            failing = retry
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
        profile.step_reductions = sum(reductions)
        profile.finish(converged=len(frozen) == n_tiles)
    return [
        SolverResult(
            coefficients=coefficients[index],
            n_iterations=len(history),
            converged=index in frozen,
            residual_norm=history[-1] if history else 0.0,
            history=history,
            step_reductions=reductions[index],
        )
        for index, history in enumerate(histories)
    ]
