"""Batched multi-tile proximal-gradient solves over structured operators.

A tiled mosaic frame is a stack of independent equal-shape inverse problems:
one ``(R_t, C_t)`` factor pair, one measurement vector and one LASSO solve
per tile.  Solving them one tile at a time — even on a thread pool — leaves
the BLAS underfed: every product is a small matrix-vector kernel.  The
functions here stack the per-tile ±1 factors into ``(T, rows, m)`` (``S_Rᵀ``,
pre-transposed) / ``(T, m, cols)`` (``S_C``) arrays and drive **all** tiles
through each FISTA/ISTA iteration with one batched GEMM per product — the
same :func:`~repro.cs.structured.phi_dot_stack` /
:func:`~repro.cs.structured.phi_rdot_stack` kernels a solo operator calls
with no stack axis — and with the dictionary transforms batched the same way
(one ``idctn`` over the whole coefficient stack).

Per-tile semantics mirror :func:`repro.cs.solvers.iterative.fista` exactly —
per-tile step sizes, per-tile l1 weights, per-tile convergence with the same
relative-change criterion, and a tile that converges is frozen while its
neighbours keep iterating — so the batched solve is the vectorised twin of
the per-tile loop (numerically equivalent, pinned by the recon-equivalence
suite), not a different algorithm.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cs.dictionaries import Dictionary
from repro.cs.operators import BaseSensingOperator
from repro.cs.solvers.result import SolverResult
from repro.cs.structured import (
    StructuredSensingOperator,
    phi_dot_stack,
    phi_rdot_stack,
)
from repro.telemetry import SolverProfile
from repro.utils.validation import check_positive


def _stack_factors(
    operators: Sequence[StructuredSensingOperator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Dictionary]:
    """Validate a homogeneous operator stack and return its batched factors.

    Returns the ``(T, rows, m)`` stack of ``S_Rᵀ``, the ``(T, m, cols)``
    stack of ``S_C``, the per-tile kernel offsets ``½ − d_t`` and the shared
    dictionary — the layout :func:`~repro.cs.structured.phi_dot_stack` and
    :func:`~repro.cs.structured.phi_rdot_stack` take.
    """
    if not operators:
        raise ValueError("need at least one operator to stack")
    first = operators[0]
    for operator in operators:
        if not isinstance(operator, StructuredSensingOperator):
            raise TypeError(
                "batched solves need StructuredSensingOperator instances, "
                f"got {type(operator).__name__}"
            )
        if operator.image_shape != first.image_shape:
            raise ValueError(
                f"tile shapes differ: {operator.image_shape} vs {first.image_shape}"
            )
        if operator.n_samples != first.n_samples:
            raise ValueError(
                f"sample counts differ: {operator.n_samples} vs {first.n_samples}"
            )
        if (
            type(operator.dictionary) is not type(first.dictionary)
            or operator.dictionary.shape != first.dictionary.shape
        ):
            raise ValueError("all stacked operators must share one dictionary")
    row_stack = np.stack([op.row_signs_t for op in operators])
    col_stack = np.stack([op.col_signs for op in operators])
    offsets = np.array([op.offset for op in operators], dtype=np.float64)
    return row_stack, col_stack, offsets, first.dictionary


def _matvec_batch(
    row_stack: np.ndarray,
    col_stack: np.ndarray,
    offsets: np.ndarray,
    dictionary: Dictionary,
    coefficients: np.ndarray,
) -> np.ndarray:
    """``A_t z_t`` for every tile ``t``: ``(T, n) -> (T, m)``."""
    n_tiles = coefficients.shape[0]
    rows, cols = dictionary.shape
    images = dictionary.synthesize_batch(coefficients).reshape(n_tiles, rows, cols)
    return phi_dot_stack(row_stack, col_stack, offsets, images)


def _rmatvec_batch(
    row_stack: np.ndarray,
    col_stack: np.ndarray,
    offsets: np.ndarray,
    dictionary: Dictionary,
    measurements: np.ndarray,
) -> np.ndarray:
    """``A_t* y_t`` for every tile ``t``: ``(T, m) -> (T, n)``."""
    n_tiles = measurements.shape[0]
    back = phi_rdot_stack(row_stack, col_stack, offsets, measurements)
    return dictionary.analyze_batch(back.reshape(n_tiles, -1))


def _soft_threshold_batch(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    return np.sign(values) * np.maximum(np.abs(values) - thresholds, 0.0)


def steps_from_norms(sigmas: np.ndarray) -> np.ndarray:
    """Per-tile gradient steps ``1/σ²`` (unit step for degenerate σ = 0)."""
    sigmas = np.asarray(sigmas, dtype=float)
    steps = np.ones_like(sigmas)
    positive = sigmas > 0.0
    steps[positive] = 1.0 / sigmas[positive] ** 2
    return steps


def batched_operator_norms(
    operators: Sequence[StructuredSensingOperator],
    *,
    n_iterations: int | None = None,
    seed: int = 0,
    tolerance: float | None = None,
    warm_starts: Sequence[np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Largest singular value of every stacked operator, in one power iteration.

    The vectorised twin of
    :meth:`~repro.cs.operators.BaseSensingOperator.operator_norm`: same start
    vector (per tile), same normalisation recurrence, same relative-change
    early exit — applied to all tiles at once, with converged tiles frozen.

    Returns ``(sigmas, vectors)``; the converged vectors can be fed back as
    ``warm_starts`` for the next frame of a GOP chain (or stored in a
    :class:`~repro.cs.operators.StepSizeCache`).  ``n_iterations`` and
    ``tolerance`` default to the solo path's shared class knobs
    (:attr:`~repro.cs.operators.BaseSensingOperator.NORM_ITERATIONS` /
    ``NORM_TOLERANCE``), so tuning those keeps batched and per-tile step
    sizes configured identically.
    """
    if n_iterations is None:
        n_iterations = BaseSensingOperator.NORM_ITERATIONS
    if tolerance is None:
        tolerance = BaseSensingOperator.NORM_TOLERANCE
    row_stack, col_stack, offsets, dictionary = _stack_factors(operators)
    n_tiles = row_stack.shape[0]
    n_coefficients = dictionary.n_pixels
    base = np.random.default_rng(seed).standard_normal(n_coefficients)
    vectors = np.tile(base, (n_tiles, 1))
    if warm_starts is not None:
        for index, warm in enumerate(warm_starts):
            if warm is not None:
                vectors[index] = np.asarray(warm, dtype=float).reshape(-1)
    norms = np.linalg.norm(vectors, axis=1)
    if (norms == 0.0).any():
        raise ValueError("warm-start vectors must be non-zero")
    vectors = vectors / norms[:, None]
    rows, cols = dictionary.shape
    if getattr(dictionary, "orthonormal", False):
        # σ(Φ Ψ) = σ(Φ) for orthonormal Ψ — iterate on the factors alone,
        # mirroring the solo operator_norm shortcut bit for bit in structure.
        def step_products(stack: np.ndarray) -> np.ndarray:
            images = stack.reshape(-1, rows, cols)
            projected = phi_dot_stack(row_stack, col_stack, offsets, images)
            back = phi_rdot_stack(row_stack, col_stack, offsets, projected)
            return back.reshape(stack.shape)
    else:
        def step_products(stack: np.ndarray) -> np.ndarray:
            return _rmatvec_batch(
                row_stack, col_stack, offsets, dictionary,
                _matvec_batch(row_stack, col_stack, offsets, dictionary, stack),
            )
    sigmas = np.zeros(n_tiles)
    active = np.ones(n_tiles, dtype=bool)
    for _ in range(max(1, int(n_iterations))):
        if not active.any():
            break
        products = step_products(vectors)
        norms = np.linalg.norm(products, axis=1)
        dead = active & (norms == 0.0)
        sigmas[dead] = 0.0
        active &= ~dead
        safe = np.where(norms > 0.0, norms, 1.0)
        previous = sigmas.copy()
        updated = products / safe[:, None]
        vectors[active] = updated[active]
        new_sigmas = np.sqrt(norms)
        sigmas[active] = new_sigmas[active]
        if tolerance > 0.0:
            settled = active & (
                np.abs(sigmas - previous) <= tolerance * np.maximum(sigmas, 1e-300)
            )
            active &= ~settled
    return sigmas, vectors


def batched_proximal_gradient(
    operators: Sequence[StructuredSensingOperator],
    measurements: np.ndarray,
    *,
    regularization: float | np.ndarray,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    step_sizes: np.ndarray | None = None,
    accelerated: bool = True,
    profile: SolverProfile | None = None,
) -> list[SolverResult]:
    """Run FISTA (or ISTA) on every tile of a homogeneous operator stack.

    Parameters
    ----------
    operators:
        Equal-shape :class:`StructuredSensingOperator` instances, one per tile.
    measurements:
        Measurement stack, shape ``(T, m)`` (already centred by the caller).
    regularization:
        The l1 weight λ — a scalar shared by every tile or one value per tile.
    max_iterations, tolerance:
        Per-tile iteration budget and relative-change stopping criterion,
        exactly as in the per-tile solvers.
    step_sizes:
        Per-tile gradient steps; estimated via :func:`batched_operator_norms`
        when omitted.
    accelerated:
        ``True`` for FISTA (Nesterov momentum), ``False`` for plain ISTA.
    profile:
        Opt-in :class:`~repro.telemetry.SolverProfile`: per iteration it
        records the LASSO objective and residual norm summed over all
        tiles, plus how many tiles entered the iteration already frozen
        (converged).  The recorded step size is the mean per-tile step;
        provenance is ``"provided"``/``"estimated"`` for the whole stack.
        Read-only — the solve itself is unchanged.

    Returns
    -------
    list of SolverResult
        One result per tile, with per-tile iteration counts, convergence
        flags and residual histories.
    """
    row_stack, col_stack, offsets, dictionary = _stack_factors(operators)
    n_tiles = row_stack.shape[0]
    measurements = np.asarray(measurements, dtype=float)
    if measurements.shape != (n_tiles, col_stack.shape[1]):
        raise ValueError(
            f"measurements must have shape ({n_tiles}, {col_stack.shape[1]}), "
            f"got {measurements.shape}"
        )
    check_positive("max_iterations", max_iterations)
    check_positive("tolerance", tolerance)
    regularization = np.broadcast_to(
        np.asarray(regularization, dtype=float), (n_tiles,)
    ).copy()
    if (regularization < 0).any():
        raise ValueError("regularization must be non-negative")
    step_provenance = "provided"
    if step_sizes is None:
        sigmas, _ = batched_operator_norms(operators)
        step_sizes = steps_from_norms(sigmas)
        step_provenance = "estimated"
    else:
        step_sizes = np.broadcast_to(
            np.asarray(step_sizes, dtype=float), (n_tiles,)
        ).copy()
        if (step_sizes <= 0).any():
            raise ValueError("step_sizes must be positive")
    if profile is not None:
        profile.record_step_size(float(step_sizes.mean()), provenance=step_provenance)
        profile.n_tiles = n_tiles

    n_coefficients = dictionary.n_pixels
    coefficients = np.zeros((n_tiles, n_coefficients))
    momentum_point = coefficients.copy()
    momentum = 1.0
    # A is linear, so A @ momentum_point is a linear combination of the
    # already-computed A @ candidate and A @ coefficients — tracking the two
    # measurement-domain images costs one matvec per iteration, as in the
    # per-tile loop, while the residual norms stay exact.
    measured_point = np.zeros_like(measurements)
    measured_coefficients = np.zeros_like(measurements)
    active = np.ones(n_tiles, dtype=bool)
    converged = np.zeros(n_tiles, dtype=bool)
    iterations = np.zeros(n_tiles, dtype=int)
    histories: list[list[float]] = [[] for _ in range(n_tiles)]
    for iteration in range(1, int(max_iterations) + 1):
        if not active.any():
            break
        gradient = _rmatvec_batch(
            row_stack, col_stack, offsets, dictionary,
            measured_point - measurements,
        )
        candidate = _soft_threshold_batch(
            momentum_point - step_sizes[:, None] * gradient,
            (step_sizes * regularization)[:, None],
        )
        measured_candidate = _matvec_batch(
            row_stack, col_stack, offsets, dictionary, candidate
        )
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
        change = np.linalg.norm(candidate - coefficients, axis=1)
        scale = np.maximum(np.linalg.norm(coefficients, axis=1), 1e-12)
        coefficients[active] = candidate[active]
        momentum_point[active] = next_point[active]
        measured_point[active] = next_measured[active]
        measured_coefficients[active] = measured_candidate[active]
        iterations[active] = iteration
        residual_norms = np.linalg.norm(
            measurements - measured_coefficients, axis=1
        )
        for index in np.flatnonzero(active):
            histories[index].append(float(residual_norms[index]))
        if profile is not None:
            # Aggregate objective over the whole stack; `active` still holds
            # the set that entered this iteration, so the frozen count is the
            # tiles that were already settled when the iteration started.
            objective = 0.5 * float((residual_norms ** 2).sum()) + float(
                (regularization * np.abs(coefficients).sum(axis=1)).sum()
            )
            profile.record_iteration(
                objective,
                float(np.linalg.norm(residual_norms)),
                frozen=n_tiles - int(active.sum()),
            )
        settled = active & (change / scale <= tolerance)
        converged |= settled
        active &= ~settled
    if profile is not None:
        profile.finish(converged=bool(converged.all()))
    return [
        SolverResult(
            coefficients=coefficients[index],
            n_iterations=int(iterations[index]),
            converged=bool(converged[index]),
            residual_norm=histories[index][-1] if histories[index] else 0.0,
            history=histories[index],
        )
        for index in range(n_tiles)
    ]
