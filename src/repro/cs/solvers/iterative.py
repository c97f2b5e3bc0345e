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

A solve opens with :data:`AMP_ITERATIONS` iterations of approximate
message passing (:func:`message_passing`; Donoho, Maleki & Montanari 2009)
when its budget leaves at least :data:`MIN_STAGE_ITERATIONS` after them
(:func:`amp_budget`).  A centred CA-XOR Φ behaves like an i.i.d. ±½
matrix, the regime where AMP's Onsager memory term lets it take steps of
about ``7/σ²`` without a backtrack and find most of an image in a few
products.  It is no descent method, so it hands on each tile's
least-residual iterate.  The rest of the budget follows a λ path
(fixed-point continuation, Hale, Yin & Zhang 2008): it is split into up to
:data:`CONTINUATION_STAGES` stages (:func:`stage_budgets`) at l1 weights
``λ·27, λ·9, λ·3, λ``, each warm-started from the last one's iterate with
FISTA's momentum reset.  The default budget of 60 is 10 AMP iterations,
then 25 at ``λ·3`` and 25 at ``λ``: about half the products of the
120-iteration λ path it replaced, at a higher PSNR.

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


#: The proximal solvers' iteration budget when the caller names none: the
#: total number of iterations (one product pair each) over the
#: message-passing warm start and every continuation stage of a solve.
DEFAULT_MAX_ITERATIONS = 60

#: Approximate-message-passing iterations that open a solve (its warm
#: start), when its budget leaves a full λ stage after them.
AMP_ITERATIONS = 10

#: AMP's threshold in units of the noise level it estimates from its
#: memory, ``‖mem‖/√m`` (α of Donoho, Maleki & Montanari 2009).
AMP_THRESHOLD = 1.5

#: The most warm-started λ-continuation stages one solve runs.
CONTINUATION_STAGES = 4

#: The factor by which the l1 weight falls from stage to stage, down to the
#: caller's λ (four stages: λ·27, λ·9, λ·3, λ).
CONTINUATION_RATIO = 3.0

#: Every stage gets at least this many iterations: a budget under twice this
#: runs one stage, which is plain FISTA/ISTA at λ.
MIN_STAGE_ITERATIONS = 25


def amp_budget(max_iterations: int) -> int:
    """The AMP iterations of a solve: :data:`AMP_ITERATIONS`, or none when
    fewer than :data:`MIN_STAGE_ITERATIONS` of the budget would be left for
    the λ path.  Like the stage budgets, it depends on the budget alone."""
    if max_iterations - AMP_ITERATIONS >= MIN_STAGE_ITERATIONS:
        return AMP_ITERATIONS
    return 0


def stage_budgets(max_iterations: int) -> list[int]:
    """Iteration budgets of the continuation stages of a solve.

    ``clamp(max_iterations // MIN_STAGE_ITERATIONS, 1, CONTINUATION_STAGES)``
    stages share the budget evenly, the last taking the remainder; they
    depend on the budget alone, never on the stack being solved.
    """
    n_stages = min(max(max_iterations // MIN_STAGE_ITERATIONS, 1), CONTINUATION_STAGES)
    share = max_iterations // n_stages
    return [share] * (n_stages - 1) + [max_iterations - share * (n_stages - 1)]


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
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
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
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
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
        column_energies=np.array([operator.mean_column_energy()]),
        regularization=np.array([float(regularization)]),
        max_iterations=max_iterations,
        tolerance=tolerance,
        accelerated=accelerated,
        step_provenance=provenance,
        profile=profile,
    )
    return result


def message_passing(
    forward: Callable[[np.ndarray, list[int]], np.ndarray],
    adjoint: Callable[[np.ndarray], np.ndarray],
    measurements: np.ndarray,
    coefficients: np.ndarray,
    measured: np.ndarray,
    *,
    column_energies: np.ndarray,
    n_iterations: int,
    histories: list[list[float]],
    profile: SolverProfile | None,
) -> tuple[np.ndarray, np.ndarray]:
    """AMP on a stack of tiles: each tile's least-residual iterate and its product.

    Approximate message passing (Donoho, Maleki & Montanari 2009) with
    soft thresholds, for ``A`` whose columns have mean squared norm
    ``s² = column_energies[t]``::

        x   ← η(x + Aᵀ·mem / s², θ),   θ = AMP_THRESHOLD·‖mem‖ / (s·√m)
        mem ← (y − A x) + mem · nnz(x) / m

    starting from ``coefficients`` (whose product ``measured`` the caller
    has) with ``mem = y − A x``.  The Onsager term ``mem·nnz(x)/m`` keeps
    the effective noise Gaussian for matrices with i.i.d.-like entries,
    such as a centred CA-XOR Φ.  Each iteration costs one adjoint and one
    forward product and appends the iterate's residual norm to its tile's
    history.  Nothing guarantees descent on a structured or degenerate Φ,
    so each tile keeps the iterate (the start included) with the least
    residual norm and returns it with its tracked product.  Every
    per-tile quantity is a 1-D reduction of that tile's row, so a tile
    gives the same bytes alone and in a stack.  ``profile`` records each
    iteration as stage 0, with the mean θ in place of λ.
    """
    n_tiles, n_samples = measurements.shape
    all_tiles = list(range(n_tiles))
    energies = np.where(column_energies > 0.0, column_energies, 1.0)
    noise_scales = [float(np.sqrt(energy)) * np.sqrt(n_samples) for energy in energies]
    residuals = measurements - measured
    memory = residuals
    best, best_measured = coefficients.copy(), measured.copy()
    best_norms = [float(np.linalg.norm(residual)) for residual in residuals]
    for _ in range(n_iterations):
        thresholds = np.array([
            AMP_THRESHOLD * float(np.linalg.norm(memory[index])) / noise_scales[index]
            for index in all_tiles
        ])
        pseudo_data = coefficients + adjoint(memory) / energies[:, None]
        coefficients = _shrink(pseudo_data, thresholds[:, None])
        measured = forward(coefficients, all_tiles)
        residuals = measurements - measured
        onsager = np.array([
            np.count_nonzero(coefficients[index]) / n_samples for index in all_tiles
        ])
        memory = residuals + memory * onsager[:, None]
        for index in all_tiles:
            norm = float(np.linalg.norm(residuals[index]))
            histories[index].append(norm)
            if norm < best_norms[index]:
                best_norms[index] = norm
                best[index] = coefficients[index]
                best_measured[index] = measured[index]
        if profile is not None:
            objective = sum(
                0.5 * history[-1] ** 2
                + float(thresholds[index]) * float(np.abs(coefficients[index]).sum())
                for index, history in enumerate(histories)
            )
            residual = np.hypot.reduce([history[-1] for history in histories])
            profile.record_iteration(
                objective, residual, frozen=0, stage=0,
                regularization=float(thresholds.mean()),
            )
    return best, best_measured


def proximal_gradient(
    forward: Callable[[np.ndarray, list[int]], np.ndarray],
    adjoint: Callable[[np.ndarray], np.ndarray],
    measurements: np.ndarray,
    initial: np.ndarray,
    *,
    step_sizes: np.ndarray,
    column_energies: np.ndarray,
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
    candidate, so its bytes are unchanged).

    ``max_iterations`` is the total budget: the :func:`amp_budget`
    iterations of :func:`message_passing` (whose per-tile scales are
    ``column_energies``, each ``‖A_t‖²_F / n``), then the continuation
    stages of :func:`stage_budgets` over the rest.  Stage ``k`` of ``K``
    solves at ``regularization · CONTINUATION_RATIO**(K − 1 − k)``, from
    the previous stage's iterate and tracked product (the first from the
    AMP guard's), with the momentum reset and every
    tile live; a tile that freezes waits for the next stage.  A result is
    ``converged`` when its tile froze in the final stage, at the caller's λ.
    ``profile`` gets the objective (at the stage's λ) and residual norm
    summed over the stack, how many tiles entered each iteration frozen,
    the stage and its λ (the AMP warm start is stage 0, with θ for λ), and
    the number of step reductions.
    """
    check_positive("max_iterations", max_iterations)
    check_positive("tolerance", tolerance)
    n_tiles = measurements.shape[0]
    all_tiles = list(range(n_tiles))
    n_amp = amp_budget(int(max_iterations))
    budgets = stage_budgets(int(max_iterations) - n_amp)
    # The AMP warm start, when it runs, is stage 0 of the profile.
    first_stage = 1 if n_amp else 0
    if profile is not None:
        profile.record_step_size(float(step_sizes.mean()), provenance=step_provenance)
        profile.n_tiles = n_tiles
        profile.n_stages = first_stage + len(budgets)
        profile.amp_iterations = n_amp
    step_sizes = np.array(step_sizes, dtype=float)
    reductions = [0] * n_tiles
    coefficients = initial.copy()
    measured_coefficients = forward(coefficients, all_tiles)
    histories: list[list[float]] = [[] for _ in range(n_tiles)]
    if n_amp:
        coefficients, measured_coefficients = message_passing(
            forward, adjoint, measurements, coefficients, measured_coefficients,
            column_energies=column_energies,
            n_iterations=n_amp, histories=histories, profile=profile,
        )
    frozen: list[int] = []
    for stage, budget in enumerate(budgets):
        # A stage restarts the momentum from the last stage's iterate and its
        # tracked product (no product is spent), with every tile live again.
        weights = regularization * CONTINUATION_RATIO ** (len(budgets) - 1 - stage)
        momentum_point, measured_point = coefficients, measured_coefficients
        momentum = 1.0
        live, frozen = all_tiles, []
        for _ in range(budget):
            if not live:
                break
            # Per-tile steps and thresholds broadcast as columns; a lone
            # tile's are scalars, which numpy applies faster (same bytes).
            steps = step_sizes[:, None] if n_tiles > 1 else step_sizes[0]
            thresholds = steps * (weights[:, None] if n_tiles > 1 else weights[0])
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
                            step_sizes[index] * weights[index],
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
                    + float(weights[index]) * float(np.abs(coefficients[index]).sum())
                    for index, history in enumerate(histories)
                )
                residual = np.hypot.reduce([history[-1] for history in histories])
                profile.record_iteration(
                    objective, residual, frozen=n_tiles - len(live),
                    stage=first_stage + stage, regularization=float(weights.mean()),
                )
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
