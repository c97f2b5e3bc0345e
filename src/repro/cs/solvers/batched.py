"""Batched multi-tile proximal-gradient solves over structured operators.

A tiled mosaic frame is a stack of independent equal-shape inverse problems:
one ``(R_t, C_t)`` factor pair, one measurement vector and one LASSO solve
per tile.  Solving them one tile at a time leaves the BLAS underfed: every
product is a small matrix-vector kernel.  The functions here stack the
per-tile ±1 factors into ``(T, rows, m)`` (``S_Rᵀ``, pre-transposed) /
``(T, m, cols)`` (``S_C``) arrays, so each product is one batched GEMM over
all tiles — the same :func:`~repro.cs.structured.phi_dot_stack` /
:func:`~repro.cs.structured.phi_rdot_stack` kernels a solo operator calls
with no stack axis — with the dictionary transforms batched the same way.

There is no batched copy of the algorithms: the stacked products drive the
one power iteration (:func:`~repro.cs.operators.power_iteration`) and the
one FISTA/ISTA loop (:func:`~repro.cs.solvers.iterative.proximal_gradient`)
that solo solves run as a stack of one.  Every tile of a batched solve is
therefore byte-identical to its per-tile solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial

import numpy as np

from repro.cs.dictionaries import Dictionary, IdentityDictionary
from repro.cs.operators import BaseSensingOperator, power_iteration
from repro.cs.solvers.iterative import proximal_gradient, step_from_norm
from repro.cs.solvers.result import SolverResult
from repro.cs.structured import (
    StructuredSensingOperator,
    phi_dot_stack,
    phi_rdot_stack,
)
from repro.telemetry import SolverProfile


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


def steps_from_norms(sigmas: np.ndarray) -> np.ndarray:
    """Per-tile gradient steps, each the solo :func:`step_from_norm` of its σ."""
    return np.array(
        [step_from_norm(float(sigma)) for sigma in np.asarray(sigmas, dtype=float)],
        dtype=float,
    )


def batched_operator_norms(
    operators: Sequence[StructuredSensingOperator],
    *,
    n_iterations: int | None = None,
    seed: int = 0,
    tolerance: float | None = None,
    warm_starts: Sequence[np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Largest singular value of every stacked operator, in one power iteration.

    The :func:`~repro.cs.operators.power_iteration` that
    :meth:`~repro.cs.operators.BaseSensingOperator.operator_norm` runs as a
    stack of one, on the stacked ±1 kernels: each tile's σ and vector are
    byte-identical to its solo ``operator_norm``.  Returns ``(sigmas,
    vectors)``; the vectors can seed the next frame of a GOP chain as
    ``warm_starts`` (one entry per operator, ``None`` for a cold start).
    ``n_iterations``/``tolerance`` default to the solo class knobs
    (``NORM_ITERATIONS``/``NORM_TOLERANCE``).
    """
    if n_iterations is None:
        n_iterations = BaseSensingOperator.NORM_ITERATIONS
    if tolerance is None:
        tolerance = BaseSensingOperator.NORM_TOLERANCE
    row_stack, col_stack, offsets, dictionary = _stack_factors(operators)
    if warm_starts is None:
        warm_starts = [None] * len(operators)
    elif len(warm_starts) != len(operators):
        raise ValueError(
            f"warm_starts must have {len(operators)} entries, got {len(warm_starts)}"
        )
    if getattr(dictionary, "orthonormal", False):
        # σ(Φ Ψ) = σ(Φ) for orthonormal Ψ: iterate on the factors alone,
        # exactly as the solo operator_norm shortcut does.
        dictionary = IdentityDictionary(dictionary.shape)

    def step_products(stack: np.ndarray) -> np.ndarray:
        forward = _matvec_batch(row_stack, col_stack, offsets, dictionary, stack)
        return _rmatvec_batch(row_stack, col_stack, offsets, dictionary, forward)

    return power_iteration(
        step_products,
        dictionary.n_pixels,
        list(warm_starts),
        n_iterations=n_iterations,
        seed=seed,
        tolerance=tolerance,
    )


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
        Opt-in :class:`~repro.telemetry.SolverProfile`: the LASSO objective
        and residual norm summed over all tiles and the count of tiles
        already frozen, per iteration, plus the mean step and its
        provenance.  Read-only — the solve itself is unchanged.

    Returns
    -------
    list of SolverResult
        One result per tile, with per-tile iteration counts, convergence
        flags and residual histories — each byte-identical to the solo
        :func:`~repro.cs.solvers.iterative.fista` / ``ista`` solve of that
        tile with the same step.
    """
    row_stack, col_stack, offsets, dictionary = _stack_factors(operators)
    n_tiles = row_stack.shape[0]
    measurements = np.asarray(measurements, dtype=float)
    if measurements.shape != (n_tiles, col_stack.shape[1]):
        raise ValueError(
            f"measurements must have shape ({n_tiles}, {col_stack.shape[1]}), "
            f"got {measurements.shape}"
        )
    regularization = np.broadcast_to(np.asarray(regularization, dtype=float), (n_tiles,))
    if (regularization < 0).any():
        raise ValueError("regularization must be non-negative")
    step_provenance = "estimated" if step_sizes is None else "provided"
    if step_sizes is None:
        step_sizes = steps_from_norms(batched_operator_norms(operators)[0])
    step_sizes = np.broadcast_to(np.asarray(step_sizes, dtype=float), (n_tiles,))
    if (step_sizes <= 0).any():
        raise ValueError("step_sizes must be positive")
    return proximal_gradient(
        partial(_matvec_batch, row_stack, col_stack, offsets, dictionary),
        partial(_rmatvec_batch, row_stack, col_stack, offsets, dictionary),
        measurements,
        np.zeros((n_tiles, dictionary.n_pixels)),
        step_sizes=step_sizes,
        regularization=regularization,
        max_iterations=max_iterations,
        tolerance=tolerance,
        accelerated=accelerated,
        step_provenance=step_provenance,
        profile=profile,
    )
