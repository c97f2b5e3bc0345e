"""Incremental tiled reconstruction: tiles land, the scene fills in.

A streamed mosaic does not arrive as one :class:`~repro.sensor.shard.TiledCaptureResult`
— it arrives tile by tile, and the receiver should start inverting tile
``(0, 0)`` while tile ``(3, 3)`` is still on the wire.
:class:`IncrementalTiledReconstructor` is that receiver-side accumulator:
seeded with nothing but the scene and tile shapes (the two numbers the stream
header carries), it derives the same tile grid the sensor used
(:func:`repro.sensor.shard.tile_grid`), reconstructs each tile through the
ordinary :func:`~repro.recon.pipeline.reconstruct_frame` path as it is added,
stitches it at its scene offset, and finalises into a
:class:`~repro.recon.pipeline.TiledReconstructionResult`.  Tiles staged for
the frame barrier are solved together by
:func:`~repro.recon.batch.solve_tiles_batched` instead, which gives the
same bytes as the per-tile path.

:func:`repro.recon.pipeline.reconstruct_tiled` is built on this class, so the
in-process and the streamed reconstruction are the *same code path* — a scene
reconstructed from decoded wire chunks is byte-identical to one reconstructed
from the in-memory capture, which is the invariant the streaming end-to-end
tests pin.
"""

from __future__ import annotations

import numpy as np

from repro.recon.batch import batch_group_key, solve_tiles_batched
from repro.recon.pipeline import (
    BATCHABLE_SOLVERS,
    ReconstructionResult,
    TiledReconstructionResult,
    quality_metrics,
    reconstruct_frame,
)
from repro.sensor.imager import CompressedFrame
from repro.sensor.shard import TileSlot, merge_tile_statistics, tile_grid


class IncrementalTiledReconstructor:
    """Reassemble a tiled scene from per-tile frames, one tile at a time.

    Two solve modes share the stitching accumulator:

    * **eager** — :meth:`add_tile` inverts each tile the moment it lands
      through :func:`~repro.recon.pipeline.reconstruct_frame` (a streamed
      tile that lost samples, solved over its surviving rows of Φ);
    * **staged/batched** — :meth:`stage_tile` only records frames and
      :meth:`solve_staged` later inverts every equal-shape group through
      :func:`~repro.recon.batch.solve_tiles_batched`, in stacked solves of
      cache-sized tile groups (the default for whole-frame reconstruction,
      in-process and at the streaming frame barrier alike).

    Parameters
    ----------
    scene_shape, tile_shape : tuple of int
        Full-scene and nominal tile dimensions; the tile grid (edge tiles
        shrunk to fit) is derived exactly as the capture side derives it.
    dictionary, solver, regularization, sparsity, max_iterations, operator:
        Per-tile reconstruction options, as in
        :func:`~repro.recon.pipeline.reconstruct_frame`.
    """

    def __init__(
        self,
        scene_shape: tuple[int, int],
        tile_shape: tuple[int, int],
        *,
        dictionary: str = "dct",
        solver: str = "fista",
        regularization: float | None = None,
        sparsity: int | None = None,
        max_iterations: int | None = None,
        operator: str = "structured",
    ) -> None:
        self.scene_shape = (int(scene_shape[0]), int(scene_shape[1]))
        self.tile_shape = (
            min(int(tile_shape[0]), self.scene_shape[0]),
            min(int(tile_shape[1]), self.scene_shape[1]),
        )
        self.dictionary = dictionary
        self.solver = solver
        self.regularization = regularization
        self.sparsity = sparsity
        self.max_iterations = None if max_iterations is None else int(max_iterations)
        self.operator = operator
        self.slots: list[list[TileSlot]] = tile_grid(self.scene_shape, self.tile_shape)
        grid_rows, grid_cols = self.grid_shape
        self._frames: list[list[CompressedFrame | None]] = [
            [None] * grid_cols for _ in range(grid_rows)
        ]
        self._tile_results: list[list[ReconstructionResult | None]] = [
            [None] * grid_cols for _ in range(grid_rows)
        ]
        self._image = np.zeros(self.scene_shape, dtype=float)
        self._n_completed = 0
        self._staged: list[tuple[int, int, CompressedFrame]] = []

    # ------------------------------------------------------------- geometry
    @property
    def grid_shape(self) -> tuple[int, int]:
        """Tiles per scene edge, ``(grid_rows, grid_cols)``."""
        return (len(self.slots), len(self.slots[0]))

    @property
    def n_tiles(self) -> int:
        """Total number of tiles in the mosaic."""
        grid_rows, grid_cols = self.grid_shape
        return grid_rows * grid_cols

    @property
    def n_completed(self) -> int:
        """Tiles reconstructed and stitched so far."""
        return self._n_completed

    @property
    def is_complete(self) -> bool:
        """True once every tile of the mosaic has landed."""
        return self._n_completed == self.n_tiles

    def slot(self, grid_row: int, grid_col: int) -> TileSlot:
        """The :class:`TileSlot` at a grid position (bounds-checked)."""
        grid_rows, grid_cols = self.grid_shape
        if not (0 <= grid_row < grid_rows and 0 <= grid_col < grid_cols):
            raise ValueError(
                f"tile position ({grid_row}, {grid_col}) outside the "
                f"{grid_rows}x{grid_cols} grid"
            )
        return self.slots[grid_row][grid_col]

    def _check_new_tile(
        self, grid_row: int, grid_col: int, frame: CompressedFrame
    ) -> TileSlot:
        """The tile's slot, once the frame fits it and the slot is still free."""
        slot = self.slot(grid_row, grid_col)
        if (frame.config.rows, frame.config.cols) != (slot.rows, slot.cols):
            raise ValueError(
                f"tile ({grid_row}, {grid_col}) frame is "
                f"{frame.config.rows}x{frame.config.cols}, slot expects "
                f"{slot.rows}x{slot.cols}"
            )
        if self._frames[grid_row][grid_col] is not None or any(
            (grid_row, grid_col) == (row, col) for row, col, _ in self._staged
        ):
            raise ValueError(f"tile ({grid_row}, {grid_col}) was already added")
        return slot

    # -------------------------------------------------------------- solving
    def solve_tile(
        self,
        frame: CompressedFrame,
        sample_mask: np.ndarray | None = None,
    ) -> ReconstructionResult:
        """Reconstruct one tile frame with this reconstructor's options.

        Stateless (no stitching): :meth:`add_tile` and the per-tile
        fallback of :meth:`solve_staged` both route through this, so there
        is exactly one per-tile solve path.  ``sample_mask``
        is the lossy-streaming row-survival mask forwarded to
        :func:`~repro.recon.pipeline.reconstruct_frame` (partial-Φ solve).
        """
        return reconstruct_frame(
            frame,
            dictionary=self.dictionary,
            solver=self.solver,
            regularization=self.regularization,
            sparsity=self.sparsity,
            max_iterations=self.max_iterations,
            operator=self.operator,
            sample_mask=sample_mask,
        )

    def stage_tile(
        self, grid_row: int, grid_col: int, frame: CompressedFrame
    ) -> None:
        """Record a tile for a later :meth:`solve_staged` batch, solving nothing.

        Geometry and duplicate checks happen now (so malformed tiles fail at
        arrival, exactly as on the eager path); the inverse problem itself
        is deferred until the whole batch is stacked.
        """
        self._check_new_tile(grid_row, grid_col, frame)
        self._staged.append((grid_row, grid_col, frame))

    def solve_staged(self) -> list[ReconstructionResult]:
        """Solve every staged tile and stitch the results into the scene.

        With the structured operator and a FISTA/ISTA solver, every
        equal-geometry group runs through
        :func:`~repro.recon.batch.solve_tiles_batched`, which stacks as many
        of its tiles per solve as fit the factor budget, each tile's GEMMs
        on its own factors; odd-shaped edge tiles simply form single-tile
        groups and take the same batched path with ``T = 1``.
        Greedy solvers and the dense operator flavour fall back to the
        ordinary per-tile solve.  Returns the per-tile results in staging
        order.
        """
        staged, self._staged = self._staged, []
        results: list[ReconstructionResult | None] = [None] * len(staged)
        if self.operator == "structured" and self.solver in BATCHABLE_SOLVERS:
            groups: dict[tuple, list[int]] = {}
            for index, (_, _, frame) in enumerate(staged):
                groups.setdefault(batch_group_key(frame), []).append(index)
            for indices in groups.values():
                solved = solve_tiles_batched(
                    [staged[index][2] for index in indices],
                    dictionary=self.dictionary,
                    solver=self.solver,
                    regularization=self.regularization,
                    max_iterations=self.max_iterations,
                )
                for index, result in zip(indices, solved):
                    results[index] = result
        else:
            for index, (_, _, frame) in enumerate(staged):
                results[index] = self.solve_tile(frame)
        for (grid_row, grid_col, frame), result in zip(staged, results):
            self._insert_result(grid_row, grid_col, frame, result)
        return list(results)

    def add_tile(
        self,
        grid_row: int,
        grid_col: int,
        frame: CompressedFrame,
        sample_mask: np.ndarray | None = None,
    ) -> ReconstructionResult:
        """Reconstruct a newly-landed tile and stitch it into the scene.

        Returns the per-tile :class:`ReconstructionResult` so a streaming
        receiver can surface progressive quality while the mosaic fills in.
        ``sample_mask`` forwards a lossy-streaming survival mask to the solve.
        """
        return self._insert_result(
            grid_row, grid_col, frame, self.solve_tile(frame, sample_mask)
        )

    def _insert_result(
        self,
        grid_row: int,
        grid_col: int,
        frame: CompressedFrame,
        result: ReconstructionResult,
    ) -> ReconstructionResult:
        """Stitch an already-solved tile into the scene."""
        slot = self._check_new_tile(grid_row, grid_col, frame)
        self._frames[grid_row][grid_col] = frame
        self._tile_results[grid_row][grid_col] = result
        self._image[slot.row_slice, slot.col_slice] = result.image
        self._n_completed += 1
        return result

    # --------------------------------------------------------------- output
    def partial_image(self) -> np.ndarray:
        """The scene as reconstructed so far (zeros where tiles are pending)."""
        return self._image.copy()

    def result(
        self,
        *,
        reference: np.ndarray | None = None,
        capture_metadata: dict[str, object] | None = None,
        partial: bool = False,
    ) -> TiledReconstructionResult:
        """Finalise the mosaic into a :class:`TiledReconstructionResult`.

        Parameters
        ----------
        reference : numpy.ndarray, optional
            Ground-truth code image for scene-level PSNR/SNR.  When omitted,
            the stitched per-tile digital images are used if every added
            frame kept one (never true for frames decoded off the wire — the
            receiver never sees the ground truth).
        capture_metadata : dict, optional
            Mosaic-level capture statistics to attach; defaults to
            :func:`~repro.sensor.shard.merge_tile_statistics` over the added
            frames, which is what the capture side computes.
        partial : bool
            Allow finalising an incomplete mosaic (the lossy-streaming
            graceful-degradation path): missing tiles stay zero in the
            stitched image and ``None`` in ``tile_results`` instead of
            raising.  Defaults to the strict all-tiles contract.
        """
        if not self.is_complete and not partial:
            raise ValueError(
                f"mosaic incomplete: {self.n_completed}/{self.n_tiles} tiles added"
            )
        flat_frames = [
            frame for row in self._frames for frame in row if frame is not None
        ]
        if (
            reference is None
            and self.is_complete
            and all(frame.digital_image is not None for frame in flat_frames)
        ):
            stitched = np.zeros(self.scene_shape, dtype=float)
            for slot_row, frame_row in zip(self.slots, self._frames):
                for slot, frame in zip(slot_row, frame_row):
                    stitched[slot.row_slice, slot.col_slice] = frame.digital_image
            reference = stitched
        if capture_metadata is None:
            capture_metadata = (
                merge_tile_statistics(flat_frames) if flat_frames else {}
            )
        return TiledReconstructionResult(
            image=self._image.copy(),
            tile_results=[list(row) for row in self._tile_results],
            dictionary=self.dictionary,
            solver=self.solver,
            metrics=quality_metrics(reference, self._image),
            capture_metadata=dict(capture_metadata),
        )
