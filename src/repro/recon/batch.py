"""Batched multi-tile frame solves: one einsum pass over a whole mosaic.

:func:`solve_tiles_batched` is the mosaic-scale twin of
:func:`~repro.recon.pipeline.reconstruct_frame`: it shares its per-tile
centring and default l1 weight
(:func:`~repro.recon.pipeline.center_frame_samples`) and result packaging,
and runs the same FISTA/ISTA loop — but over *all* equal-shape tiles of a
frame at once, through the stacked rank-structured operators of
:mod:`repro.cs.solvers.batched`.  Per-tile step sizes come from one batched
power iteration, memoised and warm-started through a
:class:`~repro.cs.operators.StepSizeCache` when one is given.  The result
is byte-identical to solving the tiles one by one.

:class:`~repro.recon.incremental.IncrementalTiledReconstructor` routes its
staged tiles through this function, which is how both
:func:`~repro.recon.pipeline.reconstruct_tiled` and the streaming
:class:`~repro.stream.receiver.StreamReceiver` reach it — one code path, so
streamed and in-process mosaics stay byte-identical.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cs.operators import StepSizeCache, cached_operator_norms
from repro.cs.solvers.batched import (
    batched_operator_norms,
    batched_proximal_gradient,
    steps_from_norms,
)
from repro.recon.operator import frame_operator
from repro.recon.pipeline import (
    _DEFAULT_MAX_ITERATIONS,
    BATCHABLE_SOLVERS,
    ReconstructionResult,
    center_frame_samples,
    frame_result,
)
from repro.sensor.imager import CompressedFrame
from repro.utils.validation import check_choice


def batch_group_key(frame: CompressedFrame) -> tuple:
    """Tiles that may share one batched solve must agree on this key."""
    return (
        frame.config.rows,
        frame.config.cols,
        frame.n_samples,
        frame.rule_number,
        frame.steps_per_sample,
        frame.warmup_steps,
    )


def solve_tiles_batched(
    frames: Sequence[CompressedFrame],
    *,
    dictionary: str = "dct",
    solver: str = "fista",
    regularization: float | None = None,
    max_iterations: int | None = None,
    step_cache: StepSizeCache | None = None,
) -> list[ReconstructionResult]:
    """Solve a homogeneous group of tile frames in one batched pass.

    Parameters
    ----------
    frames:
        Equal-geometry frames (same :func:`batch_group_key`); callers group
        heterogeneous mosaics before calling.
    dictionary, solver, regularization, max_iterations:
        As in :func:`~repro.recon.pipeline.reconstruct_frame`; ``solver``
        must be one of the proximal family (``fista``/``ista``).
    step_cache:
        Optional step-size cache: exact hits skip the power iteration for a
        tile entirely, warm vectors from previous same-geometry solves seed
        the batched iteration for the rest.

    Returns
    -------
    list of ReconstructionResult
        One result per input frame, in order — the same shape of result the
        per-tile path produces, including per-tile metrics against the
        frame's digital image when it was kept.
    """
    check_choice("solver", solver, BATCHABLE_SOLVERS)
    if not frames:
        return []
    keys = {batch_group_key(frame) for frame in frames}
    if len(keys) > 1:
        raise ValueError(
            f"solve_tiles_batched needs equal-geometry frames, got keys {sorted(keys)}"
        )
    if max_iterations is None:
        max_iterations = _DEFAULT_MAX_ITERATIONS[solver]

    built = [
        frame_operator(
            frame,
            dictionary=dictionary,
            center=True,
            operator="structured",
            step_cache=step_cache,
        )
        for frame in frames
    ]
    operators = [operator for operator, _ in built]
    centered, pixel_means, regularizations = zip(*(
        center_frame_samples(operator, density, frame.samples.astype(float), regularization)
        for (operator, density), frame in zip(built, frames)
    ))

    # Exact cache hits ride the memoised σ verbatim; one batched power
    # iteration covers *only* the misses.
    sigmas = cached_operator_norms(
        operators,
        step_cache,
        lambda misses, warm_starts: batched_operator_norms(misses, warm_starts=warm_starts),
    )
    solver_results = batched_proximal_gradient(
        operators,
        np.stack(centered),
        regularization=np.array(regularizations),
        max_iterations=max_iterations,
        step_sizes=steps_from_norms(sigmas),
        accelerated=(solver == "fista"),
    )
    return [
        frame_result(
            frame, operator, solver_result, pixel_mean,
            dictionary=dictionary, solver=solver,
        )
        for frame, operator, solver_result, pixel_mean in zip(
            frames, operators, solver_results, pixel_means
        )
    ]
