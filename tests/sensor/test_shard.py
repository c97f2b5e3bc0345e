"""Tiled-sensor sharding: geometry, merging, statistics and the tile pool.

Pins the contracts of :mod:`repro.sensor.shard`:

* the tile grid partitions the scene exactly, shrinking edge tiles when the
  scene is not divisible by the tile shape (including the degenerate
  single-tile grid);
* per-tile event statistics sum correctly into the merged
  :class:`TiledCaptureResult` metadata;
* the samples and end CA states are byte-identical for any ``max_workers``
  — the tile pool is a wall-clock knob, never a semantics knob;
* ``capture``, ``iter_capture`` and ``capture_sequence`` run the same
  per-tile job, so a one-frame sequence gives ``capture``'s tiles.
"""

import concurrent.futures
import copy
import os

import numpy as np
import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor import shard
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray, available_cpus, merge_tile_statistics
from repro.sensor.video import VideoSequencer

#: Tile-pool widths every neutrality test runs: inline, and two pools.
WORKERS = (1, 2, 4)


def make_current(shape, seed=5, kind="natural"):
    scene = make_scene(kind, shape, seed=seed)
    return PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)


def tile_frames(results):
    """Every tile frame of a list of mosaic results, in capture order."""
    return [frame for result in results for _, frame in result.frames()]


#: Every public capture path, as ``(imager 16x16, array 32x32) -> frames``.
CAPTURE_PATHS = {
    "imager.capture": lambda imager, array: [imager.capture(make_current((16, 16)))],
    "imager.capture_batch": lambda imager, array: imager.capture_batch(
        [make_current((16, 16), seed=s) for s in range(2)]
    ),
    "array.capture": lambda imager, array: tile_frames(
        [array.capture(make_current((32, 32)))]
    ),
    "array.iter_capture": lambda imager, array: [
        frame for _, frame in array.iter_capture(make_current((32, 32)))
    ],
    "array.capture_sequence": lambda imager, array: tile_frames(
        array.capture_sequence([make_current((32, 32), seed=s) for s in range(2)])
    ),
    "video.stream_frames": lambda imager, array: list(
        VideoSequencer(imager, samples_per_frame=32).stream_frames(
            make_scene("blobs", (16, 16), seed=s) for s in range(2)
        )
    ),
}


class TestTileGeometry:
    def test_divisible_scene_uniform_grid(self):
        array = TiledSensorArray((64, 96), tile_shape=(32, 32), seed=1)
        assert array.grid_shape == (2, 3)
        assert all(
            (slot.rows, slot.cols) == (32, 32)
            for row in array.slots
            for slot in row
        )

    def test_non_divisible_scene_shrinks_edge_tiles(self):
        array = TiledSensorArray((48, 40), tile_shape=(32, 32), seed=1)
        assert array.grid_shape == (2, 2)
        shapes = [
            (slot.rows, slot.cols) for row in array.slots for slot in row
        ]
        assert shapes == [(32, 32), (32, 8), (16, 32), (16, 8)]

    def test_slots_partition_the_scene_exactly(self):
        array = TiledSensorArray((48, 40), tile_shape=(32, 32), seed=1)
        coverage = np.zeros((48, 40), dtype=int)
        for row in array.slots:
            for slot in row:
                coverage[slot.row_slice, slot.col_slice] += 1
        assert (coverage == 1).all()

    def test_single_tile_degenerate_grid(self):
        array = TiledSensorArray((32, 32), tile_shape=(32, 32), seed=1)
        assert array.grid_shape == (1, 1)
        assert array.n_tiles == 1

    def test_scene_smaller_than_tile_shrinks_tile(self):
        array = TiledSensorArray((16, 24), tile_shape=(64, 64), seed=1)
        assert array.grid_shape == (1, 1)
        assert array.tile_shape == (16, 24)
        assert array.slots[0][0].n_pixels == 16 * 24

    def test_tiles_have_independent_ca_seeds(self):
        array = TiledSensorArray((64, 64), tile_shape=(32, 32), seed=1)
        seeds = [
            imager.selection.seed_state.tobytes()
            for row in array.imagers
            for imager in row
        ]
        assert len(set(seeds)) == len(seeds)

    def test_edge_tile_sample_budget_is_proportional(self):
        array = TiledSensorArray(
            (48, 32), tile_shape=(32, 32), compression_ratio=0.25, seed=1
        )
        full, edge = array.slots[0][0], array.slots[1][0]
        assert array.samples_per_tile(full) == round(0.25 * 32 * 32)
        assert array.samples_per_tile(edge) == round(0.25 * 16 * 32)

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            TiledSensorArray((32, 32), max_workers=0)

    def test_shape_mismatch_rejected(self):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=1)
        with pytest.raises(ValueError, match="shape"):
            array.capture(np.zeros((16, 16)))


class TestTiledCapture:
    def test_merged_samples_concatenate_in_grid_order(self):
        array = TiledSensorArray((32, 48), tile_shape=(16, 16), seed=3)
        result = array.capture(make_current((32, 48)))
        assert result.grid_shape == (2, 3)
        expected = np.concatenate(
            [frame.samples for _, frame in result.frames()]
        )
        assert np.array_equal(result.samples, expected)
        assert result.n_samples == expected.size
        assert result.compression_ratio == pytest.approx(
            expected.size / (32 * 48)
        )

    def test_single_tile_matches_direct_imager_capture(self):
        array = TiledSensorArray((16, 16), tile_shape=(16, 16), seed=3)
        current = make_current((16, 16))
        result = array.capture(current)
        direct = array.imagers[0][0].capture(
            current, n_samples=array.samples_per_tile(array.slots[0][0])
        )
        assert result.n_tiles == 1
        assert np.array_equal(result.samples, direct.samples)

    @pytest.mark.parametrize("max_workers", WORKERS)
    def test_max_workers_does_not_change_samples(self, max_workers):
        current = make_current((32, 32))
        inline = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=3, max_workers=1)
        pooled = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), seed=3, max_workers=max_workers
        )
        assert pooled.capture(current).samples.tobytes() == (
            inline.capture(current).samples.tobytes()
        )

    @pytest.mark.parametrize("max_workers", WORKERS)
    def test_capture_history_does_not_leak(self, max_workers):
        # Tile captures run on imager copies, so an earlier auto-exposing
        # capture must not shift a later auto_expose=False capture, whatever
        # thread captured it.
        current = make_current((32, 32))
        fresh = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=3)
        array = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), seed=3, max_workers=max_workers
        )
        array.capture(current)  # adapts V_ref only on per-capture copies
        assert np.array_equal(
            array.capture(current, auto_expose=False).samples,
            fresh.capture(current, auto_expose=False).samples,
        )

    @pytest.mark.parametrize(("n_jobs", "width"), [(2, 2), (64, 3)])
    def test_default_pool_width_is_available_cpus(self, monkeypatch, n_jobs, width):
        """``max_workers=None`` gives one thread per usable CPU, clamped to
        the tile count, not :mod:`concurrent.futures`' nproc + 4."""
        requested = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def recording_pool(max_workers):
            requested.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(shard, "available_cpus", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        array = TiledSensorArray((8, 8 * n_jobs), tile_shape=(8, 8), seed=3)
        array.capture(make_current((8, 8 * n_jobs)), keep_digital_image=False)
        assert requested == [width]

    def test_one_worker_runs_inline(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("max_workers=1 must not start a pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=3, max_workers=1)
        assert array.capture(make_current((32, 32))).n_tiles == 4

    def test_available_cpus_counts_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpus() == 1

    def test_dark_tile_does_not_fail_the_mosaic(self):
        current = make_current((32, 32))
        current[:16, :16] = 0.0  # one fully dark chip
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=3)
        result = array.capture(current)
        assert result.n_tiles == 4
        dark = result.tiles[0][0]
        assert dark.metadata["n_saturated_pixels"] == 16 * 16

    def test_digital_image_stitches_scene(self):
        array = TiledSensorArray((32, 48), tile_shape=(16, 16), seed=3)
        result = array.capture(make_current((32, 48)))
        image = result.digital_image()
        assert image.shape == (32, 48)
        corner = result.tiles[0][0].digital_image
        assert np.array_equal(image[:16, :16], corner)

    def test_digital_image_requires_kept_tiles(self):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=3)
        result = array.capture(make_current((32, 32)), keep_digital_image=False)
        with pytest.raises(ValueError, match="keep_digital_image"):
            result.digital_image()

    def test_capture_scene_convenience(self):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=3)
        result = array.capture_scene(make_scene("blobs", (32, 32), seed=2))
        assert result.n_tiles == 4
        assert result.compressed_bits == sum(
            frame.compressed_bits for _, frame in result.frames()
        )

    @pytest.mark.parametrize("path", sorted(CAPTURE_PATHS))
    def test_every_capture_path_stamps_float64(self, path):
        """Captures are float64 only, and every behavioural frame still says
        so: the v2 frame statistics block carries the ``dtype`` key."""
        imager = CompressiveImager(SensorConfig(rows=16, cols=16), seed=3)
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=3)
        frames = CAPTURE_PATHS[path](imager, array)
        assert frames
        assert all(frame.metadata["dtype"] == "float64" for frame in frames)


class TestStatisticsAggregation:
    def test_behavioural_statistics_sum_over_tiles(self):
        array = TiledSensorArray((32, 48), tile_shape=(16, 16), seed=3)
        result = array.capture(make_current((32, 48)))
        frames = [frame for _, frame in result.frames()]
        for key in ("n_lost_events", "n_lsb_errors", "n_saturated_pixels"):
            assert result.metadata[key] == sum(f.metadata[key] for f in frames)
        assert result.metadata["n_queued_events"] == pytest.approx(
            sum(f.metadata["n_queued_events"] for f in frames)
        )
        assert result.metadata["event_statistics"] == "modelled"
        assert isinstance(result.metadata["n_queued_events"], float)

    def test_event_statistics_sum_and_max_over_tiles(self):
        # A constant scene drives every selected pixel of a column to fire at
        # once, guaranteeing queueing on every tile.
        current = np.full((16, 32), 5e-9)
        array = TiledSensorArray(
            (16, 32), tile_shape=(16, 16), compression_ratio=0.2, seed=3
        )
        result = array.capture(current, fidelity="event")
        frames = [frame for _, frame in result.frames()]
        assert result.metadata["event_statistics"] == "exact"
        for key in ("n_lost_events", "n_queued_events", "n_lsb_errors"):
            assert result.metadata[key] == sum(f.metadata[key] for f in frames)
            assert isinstance(result.metadata[key], int)
        assert result.metadata["n_queued_events"] > 0
        assert result.metadata["max_queue_delay"] == max(
            f.metadata["max_queue_delay"] for f in frames
        )

    def test_merge_marks_mixed_fidelities_modelled(self):
        array = TiledSensorArray((16, 32), tile_shape=(16, 16), seed=3)
        current = make_current((16, 32))
        behavioural = array.capture(current).tiles[0][0]
        event = array.capture(current, fidelity="event").tiles[0][1]
        merged = merge_tile_statistics([behavioural, event])
        assert merged["event_statistics"] == "modelled"

    def test_template_config_propagates_to_tiles(self):
        template = SensorConfig(pixel_bits=10, clock_frequency=12.0e6)
        array = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), config=template, seed=3
        )
        for row in array.imagers:
            for imager in row:
                assert imager.config.pixel_bits == 10
                assert imager.config.clock_frequency == 12.0e6
                assert (imager.config.rows, imager.config.cols) == (16, 16)


class TestIterCapture:
    """The chunk iterator yields the same tiles capture() merges."""

    @pytest.mark.parametrize("fidelity", ["behavioural", "event"])
    def test_matches_capture_in_row_major_order(self, fidelity):
        """``capture``, ``iter_capture`` and a one-frame ``capture_sequence``
        run the same per-tile job: equal tiles, a dark chip included."""
        array = TiledSensorArray(
            (48, 48), tile_shape=(16, 16), compression_ratio=0.1, seed=4
        )
        current = make_current((48, 48))
        current[16:32, 16:32] = 0.0  # one fully dark chip
        merged = array.capture(current, fidelity=fidelity)
        streamed = list(array.iter_capture(current, fidelity=fidelity))
        (sequence,) = array.capture_sequence([current], fidelity=fidelity)
        assert [slot for slot, _ in streamed] == [slot for slot, _ in merged.frames()]
        for (_, iter_frame), (_, cap_frame), (_, seq_frame) in zip(
            streamed, merged.frames(), sequence.frames()
        ):
            for frame in (iter_frame, seq_frame):
                assert frame.samples.tobytes() == cap_frame.samples.tobytes()
                assert np.array_equal(frame.seed_state, cap_frame.seed_state)
                assert frame.warmup_steps == cap_frame.warmup_steps
                assert frame.metadata == cap_frame.metadata
        assert sequence.metadata == dict(merged.metadata, frame_index=0, n_frames=1)

    @pytest.mark.parametrize("max_workers", WORKERS)
    def test_max_workers_neutral(self, max_workers):
        current = make_current((32, 32))
        inline = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=4, max_workers=1)
        pooled = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), seed=4, max_workers=max_workers
        )
        expected = [f.samples.tobytes() for _, f in inline.iter_capture(current)]
        assert [f.samples.tobytes() for _, f in pooled.iter_capture(current)] == expected

    def test_compression_ratio_override(self):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=4,
                                 compression_ratio=0.2)
        current = make_current((32, 32))
        degraded = list(array.iter_capture(current, compression_ratio=0.1))
        for _, frame in degraded:
            assert frame.n_samples == round(0.1 * 256)
        merged = array.capture(current, compression_ratio=0.1)
        assert merged.n_samples == 4 * round(0.1 * 256)
        # The array's configured ratio is untouched.
        assert array.compression_ratio == 0.2


class TestCaptureSequence:
    """Tiled video: per-tile CA continuity, max_workers neutrality, state."""

    def test_one_result_per_frame_with_continuous_ca(self):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=9,
                                 compression_ratio=0.15)
        currents = [make_current((32, 32), seed=i) for i in range(3)]
        results = array.capture_sequence(currents)
        assert len(results) == 3
        for frame_index, result in enumerate(results):
            assert result.metadata["frame_index"] == frame_index
            assert result.metadata["n_frames"] == 3
        # Within each tile the sequence must equal that tile's capture_batch.
        for grid_row, slot_row in enumerate(array.slots):
            for grid_col, slot in enumerate(slot_row):
                chip = copy.deepcopy(array.imagers[grid_row][grid_col])
                expected = chip.capture_batch(
                    [c[slot.row_slice, slot.col_slice] for c in currents],
                    n_samples=array.samples_per_tile(slot),
                )
                for frame_index, result in enumerate(results):
                    got = result.tiles[grid_row][grid_col]
                    assert np.array_equal(got.samples, expected[frame_index].samples)
                    assert np.array_equal(
                        got.seed_state, expected[frame_index].seed_state
                    )

    @pytest.mark.parametrize("max_workers", WORKERS)
    def test_max_workers_neutral(self, max_workers):
        """Samples and the advanced end CA states do not depend on the pool."""
        currents = [make_current((32, 32), seed=i) for i in range(2)]
        arrays = [
            TiledSensorArray((32, 32), tile_shape=(16, 16), seed=9, max_workers=workers)
            for workers in (1, max_workers)
        ]
        inline, pooled = (
            array.capture_sequence(currents, advance=True) for array in arrays
        )
        for expected, got in zip(inline, pooled):
            assert got.samples.tobytes() == expected.samples.tobytes()
        for expected, got in zip(*(
            [imager for row in array.imagers for imager in row] for array in arrays
        )):
            assert np.array_equal(got.selection.seed_state, expected.selection.seed_state)
            assert got.warmup_steps == expected.warmup_steps == 0

    def test_stateless_by_default_advance_opt_in(self):
        currents = [make_current((32, 32), seed=i) for i in range(2)]
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=9)
        seed_before = array.imagers[0][0].selection.seed_state
        first = array.capture_sequence(currents)
        # Stateless: a second identical call reproduces the first bit for bit.
        second = array.capture_sequence(currents)
        assert np.array_equal(first[0].samples, second[0].samples)
        assert np.array_equal(
            array.imagers[0][0].selection.seed_state, seed_before
        )
        # advance=True chains GOPs: split capture equals one long sequence.
        long_currents = [make_current((32, 32), seed=i) for i in range(4)]
        chained = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=9)
        gop_a = chained.capture_sequence(long_currents[:2], advance=True)
        gop_b = chained.capture_sequence(long_currents[2:], advance=True)
        whole = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=9)
        reference = whole.capture_sequence(long_currents)
        for got, expected in zip(gop_a + gop_b, reference):
            assert np.array_equal(got.samples, expected.samples)
            for (_, got_tile), (_, exp_tile) in zip(got.frames(), expected.frames()):
                assert np.array_equal(got_tile.seed_state, exp_tile.seed_state)

    def test_empty_sequence(self):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=9)
        assert array.capture_sequence([]) == []

    def test_shape_mismatch_rejected(self):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=9)
        with pytest.raises(ValueError, match="shape"):
            array.capture_sequence([make_current((16, 16))])
