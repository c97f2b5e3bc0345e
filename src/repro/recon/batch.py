"""Batched multi-tile frame solves: a mosaic solved in cache-sized groups.

:func:`solve_tiles_batched` is the mosaic-scale twin of
:func:`~repro.recon.pipeline.reconstruct_frame`: it shares its per-tile
centring and default l1 weight
(:func:`~repro.recon.pipeline.center_frame_samples`) and result packaging,
and runs the same FISTA/ISTA loop — but over a stack of equal-shape tiles
at once, through the stacked operators of :mod:`repro.cs.solvers.batched`,
where each tile's GEMMs run on its own ±1 factors.  Per-tile step sizes
come from each CA operator's closed-form norm estimate, exactly as in the
solo path.

The tiles are independent inverse problems, so a frame is solved in groups
of :func:`tiles_per_group` tiles whose factors fit
:data:`GROUP_FACTOR_BUDGET`: each group's operators are built just before
its solve and dropped after it, so solve memory does not grow with the
mosaic's tile count.  A tile's bytes do not depend on the stack it rides
in, so the result is byte-identical to solving the tiles one by one.

:class:`~repro.recon.incremental.IncrementalTiledReconstructor` routes its
staged tiles through this function, which is how both
:func:`~repro.recon.pipeline.reconstruct_tiled` and the streaming
:class:`~repro.stream.receiver.StreamReceiver` reach it — one code path, so
streamed and in-process mosaics stay byte-identical.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cs.solvers.batched import (
    batched_operator_norms,
    batched_proximal_gradient,
    steps_from_norms,
)
from repro.cs.structured import FACTOR_DTYPES
from repro.recon.operator import frame_operator
from repro.recon.pipeline import (
    DEFAULT_MAX_ITERATIONS,
    PROXIMAL_SOLVERS,
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


#: Bytes of ±1 factors one solve group may hold: half of a 2 MiB per-core
#: L2, and the bound on a mosaic solve's operator memory.  A 64x64,
#: 1638-sample tile (0.8 MB of float32 factors) solves alone, while 16x16,
#: 102-sample tiles stack 80 to a group.
GROUP_FACTOR_BUDGET = 1 << 20


def tiles_per_group(frame: CompressedFrame) -> int:
    """How many tiles shaped like ``frame`` one solve group stacks.

    As many as fit their ±1 factors — ``n_samples·(rows + cols)`` entries of
    the default product precision per tile — in :data:`GROUP_FACTOR_BUDGET`,
    and at least one.
    """
    itemsize = np.dtype(FACTOR_DTYPES["mixed"]).itemsize
    tile_bytes = frame.n_samples * (frame.config.rows + frame.config.cols) * itemsize
    return max(1, GROUP_FACTOR_BUDGET // tile_bytes)


def solve_tiles_batched(
    frames: Sequence[CompressedFrame],
    *,
    dictionary: str = "dct",
    solver: str = "fista",
    regularization: float | None = None,
    max_iterations: int | None = None,
) -> list[ReconstructionResult]:
    """Solve equal-geometry tile frames in stacked groups.

    The frames are walked in groups of :func:`tiles_per_group`; each group
    builds its operators, runs one batched proximal-gradient solve and
    releases them before the next group starts.

    Parameters
    ----------
    frames:
        Equal-geometry frames (same :func:`batch_group_key`); callers group
        heterogeneous mosaics before calling.
    dictionary, solver, regularization, max_iterations:
        As in :func:`~repro.recon.pipeline.reconstruct_frame`; ``solver``
        must be one of the proximal family (``fista``/``ista``).

    Returns
    -------
    list of ReconstructionResult
        One result per input frame, in order — the same shape of result the
        per-tile path produces, including per-tile metrics against the
        frame's digital image when it was kept.
    """
    check_choice("solver", solver, PROXIMAL_SOLVERS)
    if not frames:
        return []
    keys = {batch_group_key(frame) for frame in frames}
    if len(keys) > 1:
        raise ValueError(
            f"solve_tiles_batched needs equal-geometry frames, got keys {sorted(keys)}"
        )
    if max_iterations is None:
        max_iterations = DEFAULT_MAX_ITERATIONS
    size = tiles_per_group(frames[0])
    results: list[ReconstructionResult] = []
    for start in range(0, len(frames), size):
        results.extend(
            _solve_group(
                frames[start : start + size],
                dictionary=dictionary,
                solver=solver,
                regularization=regularization,
                max_iterations=max_iterations,
            )
        )
    return results


def _solve_group(
    frames: Sequence[CompressedFrame],
    *,
    dictionary: str,
    solver: str,
    regularization: float | None,
    max_iterations: int,
) -> list[ReconstructionResult]:
    """One stacked solve; its operators are freed when it returns."""
    built = [
        frame_operator(
            frame,
            dictionary=dictionary,
            center=True,
            operator="structured",
        )
        for frame in frames
    ]
    operators = [operator for operator, _ in built]
    centered, pixel_means, regularizations = zip(*(
        center_frame_samples(operator, density, frame.samples.astype(float), regularization)
        for (operator, density), frame in zip(built, frames)
    ))

    sigmas = batched_operator_norms(operators)
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
