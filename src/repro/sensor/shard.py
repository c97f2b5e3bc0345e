"""Sharded tiled-sensor capture: a mosaic of focal-plane arrays as one sensor.

The paper's prototype is a single 64x64 chip; scaling the architecture to
large scenes means scaling *out*, not up — an array of small compressive
sensors observing adjacent fields of view, each generating its compressed
samples concurrently at the focal plane, exactly the parallel one-shot
acquisition architecture of Björklund & Magli (PAPERS.md).  This module
models that system level:

* :class:`TiledSensorArray` splits a large scene into a grid of independent
  :class:`~repro.sensor.imager.CompressiveImager` tiles.  Each tile is its
  own chip: its own free-running selection CA with its own seed (derived from
  the array seed and the tile's grid position), its own exposure adaptation,
  its own compressed-sample stream.  Edge tiles shrink to fit scenes that are
  not multiples of the tile size, the way a mosaic camera crops its border
  chips.
* Tiles capture **concurrently** through a :mod:`concurrent.futures`
  executor (``executor="thread" | "process" | "serial"``, ``max_workers``
  configurable).  Every tile capture runs on a *copy* of the tile imager
  (so nothing mutates the array's state, whichever process captured it) and
  :meth:`CompressiveImager.capture` re-derives its noise streams from the
  imager seed — the captured samples are therefore byte-identical whichever
  executor runs them, and independent of capture history.  The executor is
  purely a wall-clock knob, and the tiled-capture benchmarks gate that
  ``max_workers > 1`` actually pays.
* The per-tile frames merge into one :class:`TiledCaptureResult`: the
  concatenated sample vector, the per-tile :class:`CompressedFrame` grid and
  the **summed** event statistics (``n_lost_events``, ``n_queued_events``,
  ``n_lsb_errors``, ``max_queue_delay`` as a maximum), which the
  reconstruction pipeline (:func:`repro.recon.pipeline.reconstruct_tiled`)
  reassembles tile-by-tile into the full frame — mirroring the block-CS
  reassembly of :mod:`repro.cs.block`, but with every block backed by real
  sensor hardware state instead of a shared synthetic matrix.

Per-tile invariants are exactly the single-sensor invariants: each tile's Φ
comes from the one shared builder (shared-Φ invariant) and each tile's
default-dtype behavioural capture stays byte-identical to the legacy loop
(bit-fidelity invariant).  The ``dtype="float32"`` fast mode of
:meth:`CompressiveImager.capture` composes with sharding for very large
scenes; see :data:`repro.sensor.imager.FLOAT32_SAMPLE_ATOL` for its accuracy
contract.
"""

from __future__ import annotations

import concurrent.futures
import copy
import os
from dataclasses import dataclass, field, replace
from collections.abc import Iterator

import numpy as np

from repro.ca.selection import CASelectionGenerator
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressedFrame, CompressiveImager
from repro.utils.rng import derive_seed
from repro.utils.validation import check_choice, check_in_range, check_positive

EXECUTOR_KINDS = ("serial", "thread", "process")


def tile_grid(scene_shape, tile_shape) -> list[list[TileSlot]]:
    """Split a scene into the row-major grid of :class:`TileSlot` footprints.

    This is the one tiling rule shared by the capture side
    (:class:`TiledSensorArray`) and the receiving side
    (:class:`repro.stream.session.StreamSession`): edge
    tiles shrink to fit scenes that are not multiples of the tile size, so
    both ends of a channel derive identical geometry from the two shapes the
    stream header carries.
    """
    scene_rows, scene_cols = (int(scene_shape[0]), int(scene_shape[1]))
    tile_rows, tile_cols = (int(tile_shape[0]), int(tile_shape[1]))
    check_positive("scene rows", scene_rows)
    check_positive("scene cols", scene_cols)
    check_positive("tile rows", tile_rows)
    check_positive("tile cols", tile_cols)
    tile_rows = min(tile_rows, scene_rows)
    tile_cols = min(tile_cols, scene_cols)
    slots: list[list[TileSlot]] = []
    for grid_row, row0 in enumerate(range(0, scene_rows, tile_rows)):
        slot_row: list[TileSlot] = []
        for grid_col, col0 in enumerate(range(0, scene_cols, tile_cols)):
            slot_row.append(
                TileSlot(
                    grid_row=grid_row,
                    grid_col=grid_col,
                    row0=row0,
                    col0=col0,
                    rows=min(tile_rows, scene_rows - row0),
                    cols=min(tile_cols, scene_cols - col0),
                )
            )
        slots.append(slot_row)
    return slots


@dataclass(frozen=True)
class TileSlot:
    """Geometry of one tile: grid position and scene-pixel footprint.

    Attributes
    ----------
    grid_row, grid_col:
        Position of the tile in the sensor mosaic.
    row0, col0:
        Scene coordinates of the tile's top-left pixel.
    rows, cols:
        Tile dimensions; edge tiles may be smaller than the nominal tile
        shape when the scene is not divisible by it.
    """

    grid_row: int
    grid_col: int
    row0: int
    col0: int
    rows: int
    cols: int

    @property
    def row_slice(self) -> slice:
        """Scene-row slice covered by this tile."""
        return slice(self.row0, self.row0 + self.rows)

    @property
    def col_slice(self) -> slice:
        """Scene-column slice covered by this tile."""
        return slice(self.col0, self.col0 + self.cols)

    @property
    def n_pixels(self) -> int:
        """Pixels in this tile."""
        return self.rows * self.cols


@dataclass
class TiledCaptureResult:
    """The merged output of one tiled capture.

    Attributes
    ----------
    tiles:
        Row-major grid of per-tile :class:`CompressedFrame` objects; ``None``
        where a streamed mosaic lost a tile (a resilient session settles the
        frame from the tiles that were delivered).
    slots:
        The matching grid of :class:`TileSlot` geometry.
    scene_shape, tile_shape:
        Full scene dimensions and the nominal (non-edge) tile dimensions.
    metadata:
        Aggregated capture statistics: the per-tile event statistics summed
        (``max_queue_delay`` taken as the maximum), plus the capture options
        (``fidelity``, ``dtype``, ``executor``, ``max_workers``).
    """

    tiles: list[list[CompressedFrame | None]]
    slots: list[list[TileSlot]]
    scene_shape: tuple[int, int]
    tile_shape: tuple[int, int]
    metadata: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------- geometry
    @property
    def grid_shape(self) -> tuple[int, int]:
        """Tiles per scene edge, ``(grid_rows, grid_cols)``."""
        return (len(self.tiles), len(self.tiles[0]) if self.tiles else 0)

    @property
    def n_tiles(self) -> int:
        """Total number of tiles in the mosaic."""
        grid_rows, grid_cols = self.grid_shape
        return grid_rows * grid_cols

    @property
    def n_pixels(self) -> int:
        """Pixels in the full scene."""
        return self.scene_shape[0] * self.scene_shape[1]

    def frames(self) -> Iterator[tuple[TileSlot, CompressedFrame | None]]:
        """Yield ``(slot, frame)`` pairs in row-major grid order, ``None``
        for a tile that was not delivered."""
        for slot_row, tile_row in zip(self.slots, self.tiles):
            yield from zip(slot_row, tile_row)

    def delivered(self) -> Iterator[tuple[TileSlot, CompressedFrame]]:
        """Yield the ``(slot, frame)`` pairs of the delivered tiles only."""
        for slot, frame in self.frames():
            if frame is not None:
                yield slot, frame

    # -------------------------------------------------------------- payload
    @property
    def n_samples(self) -> int:
        """Total compressed samples over the delivered tiles."""
        return sum(frame.n_samples for _, frame in self.delivered())

    @property
    def samples(self) -> np.ndarray:
        """The delivered samples, concatenated in row-major tile order."""
        return np.concatenate([frame.samples for _, frame in self.delivered()])

    @property
    def compression_ratio(self) -> float:
        """Delivered samples divided by scene pixels."""
        return self.n_samples / self.n_pixels

    @property
    def compressed_bits(self) -> int:
        """Total payload bits over the delivered tile streams."""
        return sum(frame.compressed_bits for _, frame in self.delivered())

    def digital_image(self) -> np.ndarray:
        """Stitch the per-tile ideal code images into the full scene.

        Requires every tile, with its digital image kept
        (``keep_digital_image=True``); a tile that was not delivered raises
        a ``ValueError`` naming it.
        """
        for slot, frame in self.frames():
            if frame is None:
                raise ValueError(
                    f"tile ({slot.grid_row}, {slot.grid_col}) was not delivered; "
                    "the ideal code image needs every tile"
                )
        image = np.zeros(self.scene_shape, dtype=np.int64)
        for slot, frame in self.delivered():
            if frame.digital_image is None:
                raise ValueError(
                    "tile digital images were not kept; capture with "
                    "keep_digital_image=True to stitch the ideal code image"
                )
            image[slot.row_slice, slot.col_slice] = frame.digital_image
        return image


def merge_tile_statistics(frames: list[CompressedFrame]) -> dict[str, object]:
    """Aggregate per-tile capture statistics into mosaic-level counts.

    Counters (``n_lost_events``, ``n_queued_events``, ``n_lsb_errors``,
    ``n_saturated_pixels``) sum across tiles — behavioural tiles contribute
    modelled float expectations, event tiles exact integers, so the sums
    keep the per-tile numeric type discipline.  ``max_queue_delay`` is the
    maximum over tiles, and ``event_statistics`` stays ``"exact"`` only when
    every tile reported exact counts.
    """
    merged: dict[str, object] = {}
    for key in ("n_lost_events", "n_queued_events", "n_lsb_errors", "n_saturated_pixels"):
        values = [frame.metadata[key] for frame in frames if key in frame.metadata]
        if values:
            total = sum(values)
            merged[key] = float(total) if isinstance(total, float) else int(total)
    delays = [
        frame.metadata["max_queue_delay"]
        for frame in frames
        if "max_queue_delay" in frame.metadata
    ]
    if delays:
        merged["max_queue_delay"] = float(max(delays))
    statistics = {frame.metadata.get("event_statistics") for frame in frames}
    merged["event_statistics"] = "exact" if statistics == {"exact"} else "modelled"
    return merged


def _capture_tile_batch(job):
    """Capture one tile's whole frame sequence; module-level for pickling.

    Like :func:`_capture_tile`, the chip is a *copy*: the tile's CA advances
    frame to frame inside the copy (``capture_batch``'s one-pattern overlap),
    and the copy's final CA state is returned alongside the frames so the
    parent can — optionally and deterministically — advance its own imagers.
    One job covers one tile's full sequence, so the result is byte-identical
    whichever executor runs it.
    """
    imager, photocurrents, kwargs = job
    chip = copy.deepcopy(imager)
    frames = chip.capture_batch(photocurrents, **kwargs)
    return frames, chip.selection.seed_state


def available_cpus() -> int:
    """The number of CPUs this process may run on.

    The affinity mask where the platform exposes it (so a pinned process
    counts its pinned cores, not the machine's), else ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_width(max_workers: int | None, n_jobs: int) -> int:
    """Workers for a pool running ``n_jobs`` tile jobs.

    ``max_workers``, or one worker per usable CPU (:func:`available_cpus`)
    when it is ``None``, and never more than the job count.  Tile captures
    and per-tile solves size their pools here.
    """
    if max_workers is None:
        max_workers = available_cpus()
    return min(int(max_workers), n_jobs)


def _capture_tile(job) -> CompressedFrame:
    """Capture one tile; module-level so process executors can pickle it.

    The chip is captured on a *copy*, so the parent's imagers are never
    mutated (auto-expose adapts the copy's ``V_ref`` only).  This is what
    makes tile captures stateless and the executors interchangeable: a
    process worker discards its copy just like the parent discards its own,
    so the samples cannot depend on which executor — or which previous
    capture — ran.
    """
    imager, photocurrent, kwargs = job
    return copy.deepcopy(imager).capture(photocurrent, **kwargs)


class TiledSensorArray:
    """A grid of independent compressive imagers covering one large scene.

    Parameters
    ----------
    scene_shape : tuple of int
        Full scene dimensions ``(rows, cols)``.
    tile_shape : tuple of int
        Nominal per-chip array size (default the paper's 64x64).  Edge tiles
        shrink when the scene is not divisible by the tile shape.
    config : SensorConfig, optional
        Template for the non-geometry chip parameters (clock, bit depths,
        frame rate, ...); each tile's configuration is this template with
        ``rows``/``cols`` replaced by the tile footprint.
    compression_ratio : float, optional
        Samples-per-pixel budget applied to every tile (each tile delivers
        ``round(ratio * tile_pixels)`` samples, so edge tiles automatically
        deliver proportionally fewer).  Defaults to the template's ratio.
    rule, steps_per_sample, warmup_steps:
        Selection-CA parameters shared by all tiles; each tile still draws
        its *own* CA seed, as independent chips would.
    executor : {"thread", "process", "serial"}
        How tile captures run: a thread pool (default — the capture hot path
        is numpy/BLAS work that releases the GIL), a process pool, or inline.
        The samples are byte-identical across all three.
    max_workers : int, optional
        Concurrency cap for the pool executors; ``None`` means one worker per
        CPU the process may run on (:func:`available_cpus`), and the pool is
        never wider than the tile count.  Each concurrent tile capture holds
        its own transient, so a wider pool only adds memory.
    dtype : {"float64", "float32"}
        Default behavioural arithmetic width for :meth:`capture`; see
        :meth:`CompressiveImager.capture`.
    seed : int
        Array-level seed; tile ``(i, j)`` derives its chip seed as
        ``derive_seed(seed, "tile", i, j)``, giving every tile an
        independent, reproducible CA seed and noise stream.
    """

    def __init__(
        self,
        scene_shape: tuple[int, int] = (256, 256),
        *,
        tile_shape: tuple[int, int] = (64, 64),
        config: SensorConfig | None = None,
        compression_ratio: float | None = None,
        rule: int = 30,
        steps_per_sample: int = 1,
        warmup_steps: int = 8,
        executor: str = "thread",
        max_workers: int | None = None,
        dtype: str = "float64",
        seed: int = 2018,
    ) -> None:
        scene_rows, scene_cols = (int(scene_shape[0]), int(scene_shape[1]))
        tile_rows, tile_cols = (int(tile_shape[0]), int(tile_shape[1]))
        check_positive("scene rows", scene_rows)
        check_positive("scene cols", scene_cols)
        check_positive("tile rows", tile_rows)
        check_positive("tile cols", tile_cols)
        check_choice("executor", executor, EXECUTOR_KINDS)
        check_choice("dtype", dtype, ("float64", "float32"))
        if max_workers is not None:
            check_positive("max_workers", max_workers)
        template = config or SensorConfig()
        if compression_ratio is None:
            compression_ratio = template.compression_ratio
        check_in_range(
            "compression_ratio", compression_ratio, 0.0, 1.0, inclusive=False
        )
        self.scene_shape = (scene_rows, scene_cols)
        self.tile_shape = (min(tile_rows, scene_rows), min(tile_cols, scene_cols))
        self.compression_ratio = float(compression_ratio)
        self.executor = executor
        self.max_workers = max_workers
        self.dtype = dtype
        self.seed = int(seed)

        self.slots: list[list[TileSlot]] = tile_grid(self.scene_shape, self.tile_shape)
        self.imagers: list[list[CompressiveImager]] = []
        for slot_row in self.slots:
            imager_row: list[CompressiveImager] = []
            for slot in slot_row:
                tile_config = replace(
                    template,
                    rows=slot.rows,
                    cols=slot.cols,
                    compression_ratio=self.compression_ratio,
                )
                imager_row.append(
                    CompressiveImager(
                        tile_config,
                        rule=rule,
                        steps_per_sample=steps_per_sample,
                        warmup_steps=warmup_steps,
                        seed=derive_seed(self.seed, "tile", slot.grid_row, slot.grid_col),
                    )
                )
            self.imagers.append(imager_row)

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

    def samples_per_tile(
        self, slot: TileSlot, compression_ratio: float | None = None
    ) -> int:
        """Compressed-sample budget of one tile (``round(R x tile pixels)``).

        ``compression_ratio`` overrides the array's configured ratio for one
        call — how the streaming bit-rate governor degrades a frame to fit a
        channel budget without rebuilding the array.
        """
        ratio = self.compression_ratio if compression_ratio is None else compression_ratio
        check_in_range("compression_ratio", ratio, 0.0, 1.0, inclusive=False)
        return max(1, int(round(ratio * slot.n_pixels)))

    # -------------------------------------------------------------- capture
    def _tile_jobs(
        self,
        photocurrent: np.ndarray,
        *,
        fidelity: str,
        auto_expose: bool,
        lsb_error: bool,
        keep_digital_image: bool,
        dtype: str,
        compression_ratio: float | None,
    ) -> list[tuple]:
        """Build the per-tile capture jobs of one frame, in row-major order."""
        photocurrent = np.asarray(photocurrent, dtype=float)
        if photocurrent.shape != self.scene_shape:
            raise ValueError(
                f"photocurrent must have shape {self.scene_shape}, "
                f"got {photocurrent.shape}"
            )
        jobs = []
        for slot_row, imager_row in zip(self.slots, self.imagers):
            for slot, imager in zip(slot_row, imager_row):
                tile_current = photocurrent[slot.row_slice, slot.col_slice]
                kwargs = dict(
                    n_samples=self.samples_per_tile(slot, compression_ratio),
                    fidelity=fidelity,
                    # A fully dark tile cannot adapt its reference ramp; the
                    # chip falls back to its configured exposure.
                    auto_expose=auto_expose and bool((tile_current > 0.0).any()),
                    lsb_error=lsb_error,
                    keep_digital_image=keep_digital_image,
                    dtype=dtype,
                )
                jobs.append((imager, tile_current, kwargs))
        return jobs

    def iter_capture(
        self,
        photocurrent: np.ndarray,
        *,
        fidelity: str = "behavioural",
        auto_expose: bool = True,
        lsb_error: bool = True,
        keep_digital_image: bool = True,
        dtype: str | None = None,
        executor: str | None = None,
        max_workers: int | None = None,
        compression_ratio: float | None = None,
    ) -> Iterator[tuple[TileSlot, CompressedFrame]]:
        """Capture the scene and yield ``(slot, frame)`` pairs as tiles finish.

        The chunk-iterator form of :meth:`capture`: tiles are yielded in
        row-major grid order while later tiles are still being captured on
        the pool, so a camera node can put tile ``(0, 0)`` on the wire before
        tile ``(3, 3)`` exists.  The frames are byte-identical to
        :meth:`capture` under every executor — same per-tile jobs, same
        stateless :func:`_capture_tile` on an imager copy.

        Parameters are those of :meth:`capture`; ``compression_ratio``
        overrides the per-tile sample budget for this capture only (the
        streaming bit-rate governor's degradation knob).
        """
        executor = executor or self.executor
        check_choice("executor", executor, EXECUTOR_KINDS)
        jobs = self._tile_jobs(
            photocurrent,
            fidelity=fidelity,
            auto_expose=auto_expose,
            lsb_error=lsb_error,
            keep_digital_image=keep_digital_image,
            dtype=dtype or self.dtype,
            compression_ratio=compression_ratio,
        )
        flat_slots = [slot for slot_row in self.slots for slot in slot_row]
        pool = self._make_pool(executor, max_workers or self.max_workers, len(jobs))
        if pool is None:
            for slot, job in zip(flat_slots, jobs):
                yield slot, _capture_tile(job)
            return
        try:
            yield from zip(flat_slots, pool.map(_capture_tile, jobs))
        finally:
            pool.shutdown(wait=True)

    def capture(
        self,
        photocurrent: np.ndarray,
        *,
        fidelity: str = "behavioural",
        auto_expose: bool = True,
        lsb_error: bool = True,
        keep_digital_image: bool = True,
        dtype: str | None = None,
        executor: str | None = None,
        max_workers: int | None = None,
        compression_ratio: float | None = None,
    ) -> TiledCaptureResult:
        """Capture the whole scene, one concurrent frame per tile.

        Parameters
        ----------
        photocurrent : numpy.ndarray
            Full-scene photocurrent map (A), shape ``scene_shape``.
        fidelity : {"behavioural", "event"}
            Per-tile capture engine, as in :meth:`CompressiveImager.capture`.
        auto_expose : bool
            Per-tile ``V_ref`` adaptation (each chip exposes its own field of
            view, as independent hardware would).  Tiles whose field of view
            carries no light are captured without adaptation instead of
            failing the mosaic.
        lsb_error, keep_digital_image : bool
            As in :meth:`CompressiveImager.capture`, applied per tile.
        dtype : {"float64", "float32"}, optional
            Behavioural arithmetic width; defaults to the array's ``dtype``.
        executor, max_workers:
            Per-call override of the array's executor configuration.
        compression_ratio : float, optional
            Per-call override of the per-tile sample budget (the streaming
            bit-rate governor's degradation knob).

        Returns
        -------
        TiledCaptureResult
            The per-tile frame grid plus merged samples and summed event
            statistics.
        """
        executor = executor or self.executor
        check_choice("executor", executor, EXECUTOR_KINDS)
        dtype = dtype or self.dtype
        jobs = self._tile_jobs(
            photocurrent,
            fidelity=fidelity,
            auto_expose=auto_expose,
            lsb_error=lsb_error,
            keep_digital_image=keep_digital_image,
            dtype=dtype,
            compression_ratio=compression_ratio,
        )
        frames = self._run_jobs(jobs, executor, max_workers or self.max_workers)

        grid_rows, grid_cols = self.grid_shape
        tile_grid = [
            frames[row * grid_cols : (row + 1) * grid_cols] for row in range(grid_rows)
        ]
        metadata = merge_tile_statistics(frames)
        metadata.update(
            fidelity=fidelity,
            dtype=dtype,
            executor=executor,
            max_workers=max_workers or self.max_workers,
            n_tiles=self.n_tiles,
        )
        return TiledCaptureResult(
            tiles=tile_grid,
            slots=self.slots,
            scene_shape=self.scene_shape,
            tile_shape=self.tile_shape,
            metadata=metadata,
        )

    def capture_scene(
        self,
        scene: np.ndarray,
        *,
        conversion=None,
        **kwargs,
    ) -> TiledCaptureResult:
        """Convert a normalised scene to photocurrents and capture it.

        One :class:`~repro.optics.photo.PhotoConversion` spans the whole
        scene, so fixed-pattern noise varies across the mosaic the way it
        would across a wafer of chips.
        """
        from repro.optics.photo import PhotoConversion

        conversion = conversion or PhotoConversion(
            seed=derive_seed(self.seed, "tiled-photo")
        )
        return self.capture(
            conversion.convert(np.asarray(scene, dtype=float)), **kwargs
        )

    def capture_scene_sequence(
        self,
        scenes,
        *,
        conversion=None,
        **kwargs,
    ) -> list[TiledCaptureResult]:
        """Convert normalised scenes to photocurrents and capture the sequence.

        The same single :class:`~repro.optics.photo.PhotoConversion` spans
        every frame (fixed-pattern noise stays fixed across the sequence, as
        on a real wafer); all other keyword arguments go to
        :meth:`capture_sequence`.
        """
        from repro.optics.photo import PhotoConversion

        conversion = conversion or PhotoConversion(
            seed=derive_seed(self.seed, "tiled-photo")
        )
        return self.capture_sequence(
            [conversion.convert(np.asarray(scene, dtype=float)) for scene in scenes],
            **kwargs,
        )

    def capture_sequence(
        self,
        photocurrents,
        *,
        fidelity: str = "behavioural",
        auto_expose: bool = True,
        lsb_error: bool = True,
        keep_digital_image: bool = True,
        dtype: str | None = None,
        executor: str | None = None,
        max_workers: int | None = None,
        compression_ratio: float | None = None,
        advance: bool = False,
    ) -> list[TiledCaptureResult]:
        """Capture a video sequence over the whole mosaic, tiles concurrent.

        Every tile runs its *own* :meth:`CompressiveImager.capture_batch`
        over the sequence — one shared CA evolution per tile, consecutive
        frames overlapping by one selection pattern exactly as each
        free-running chip would — and the per-tile frame stacks are regrouped
        into one :class:`TiledCaptureResult` per input frame.  One executor
        job covers one tile's full sequence, so the captured samples are
        byte-identical under ``serial``/``thread``/``process``, like
        :meth:`capture`.

        Parameters
        ----------
        photocurrents : sequence of numpy.ndarray
            Per-frame photocurrent maps, each of shape ``scene_shape``.
        fidelity, auto_expose, lsb_error, keep_digital_image, dtype:
            As in :meth:`capture`.  A tile whose field of view is dark in
            *any* frame is captured without exposure adaptation (the batched
            chip adapts once per frame and cannot skip individual frames).
        executor, max_workers:
            Per-call override of the array's executor configuration.
        compression_ratio : float, optional
            Per-call override of the per-tile sample budget.
        advance : bool
            When true, leave every tile imager's selection CA positioned
            after the last frame (warm-up already absorbed), so the next
            :meth:`capture_sequence` call continues the same CA evolution —
            how a streaming node chains GOPs.  The end states come from the
            job results, so advancing is executor-independent too.  The
            default keeps :meth:`capture`'s stateless contract.

        Returns
        -------
        list of TiledCaptureResult
            One merged mosaic result per input frame, each tile frame
            independently decodable from its own seed.
        """
        executor = executor or self.executor
        check_choice("executor", executor, EXECUTOR_KINDS)
        dtype = dtype or self.dtype
        photocurrents = [np.asarray(current, dtype=float) for current in photocurrents]
        for index, current in enumerate(photocurrents):
            if current.shape != self.scene_shape:
                raise ValueError(
                    f"photocurrent {index} must have shape {self.scene_shape}, "
                    f"got {current.shape}"
                )
        if not photocurrents:
            return []
        jobs = []
        flat_slots = [slot for slot_row in self.slots for slot in slot_row]
        flat_imagers = [imager for imager_row in self.imagers for imager in imager_row]
        for slot, imager in zip(flat_slots, flat_imagers):
            tile_currents = [
                current[slot.row_slice, slot.col_slice] for current in photocurrents
            ]
            kwargs = dict(
                n_samples=self.samples_per_tile(slot, compression_ratio),
                fidelity=fidelity,
                auto_expose=auto_expose
                and all(bool((current > 0.0).any()) for current in tile_currents),
                lsb_error=lsb_error,
                keep_digital_image=keep_digital_image,
                dtype=dtype,
            )
            jobs.append((imager, tile_currents, kwargs))
        outcomes = self._run_jobs(
            jobs, executor, max_workers or self.max_workers, job_fn=_capture_tile_batch
        )

        grid_rows, grid_cols = self.grid_shape
        results: list[TiledCaptureResult] = []
        for frame_index in range(len(photocurrents)):
            flat_frames = [frames[frame_index] for frames, _ in outcomes]
            tile_grid_frames = [
                flat_frames[row * grid_cols : (row + 1) * grid_cols]
                for row in range(grid_rows)
            ]
            metadata = merge_tile_statistics(flat_frames)
            metadata.update(
                fidelity=fidelity,
                dtype=dtype,
                executor=executor,
                max_workers=max_workers or self.max_workers,
                n_tiles=self.n_tiles,
                frame_index=frame_index,
                n_frames=len(photocurrents),
            )
            results.append(
                TiledCaptureResult(
                    tiles=tile_grid_frames,
                    slots=self.slots,
                    scene_shape=self.scene_shape,
                    tile_shape=self.tile_shape,
                    metadata=metadata,
                )
            )
        if advance:
            for imager, (_, end_state) in zip(flat_imagers, outcomes):
                imager.selection = CASelectionGenerator(
                    imager.config.rows,
                    imager.config.cols,
                    seed_state=end_state,
                    rule=imager.rule_number,
                    steps_per_sample=imager.steps_per_sample,
                    warmup_steps=0,
                )
                imager.warmup_steps = 0
        return results

    @staticmethod
    def _make_pool(executor: str, max_workers: int | None, n_jobs: int):
        """The executor pool for a job batch, or ``None`` for inline runs.

        The one place the serial short-circuit, worker clamp and pool-class
        choice live; :meth:`capture`, :meth:`iter_capture` and
        :meth:`capture_sequence` all route through it.
        """
        if executor == "serial" or n_jobs <= 1:
            return None
        pool_class = (
            concurrent.futures.ThreadPoolExecutor
            if executor == "thread"
            else concurrent.futures.ProcessPoolExecutor
        )
        return pool_class(max_workers=pool_width(max_workers, n_jobs))

    @staticmethod
    def _run_jobs(jobs, executor: str, max_workers: int | None, job_fn=_capture_tile):
        """Run the per-tile capture jobs through the chosen executor."""
        pool = TiledSensorArray._make_pool(executor, max_workers, len(jobs))
        if pool is None:
            return [job_fn(job) for job in jobs]
        with pool:
            return list(pool.map(job_fn, jobs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grid_rows, grid_cols = self.grid_shape
        return (
            f"TiledSensorArray(scene={self.scene_shape}, tiles={grid_rows}x{grid_cols}, "
            f"tile_shape={self.tile_shape}, executor={self.executor!r})"
        )
