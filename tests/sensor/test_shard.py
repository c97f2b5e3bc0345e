"""Tiled-sensor sharding: geometry, merging, statistics and executors.

Pins the contracts of :mod:`repro.sensor.shard`:

* the tile grid partitions the scene exactly, shrinking edge tiles when the
  scene is not divisible by the tile shape (including the degenerate
  single-tile grid);
* per-tile event statistics sum correctly into the merged
  :class:`TiledCaptureResult` metadata;
* the samples are byte-identical whichever executor captures the tiles —
  the executor is a wall-clock knob, never a semantics knob.
"""

import concurrent.futures
import os

import numpy as np
import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.sensor import shard
from repro.sensor.config import SensorConfig
from repro.sensor.shard import TiledSensorArray, available_cpus, merge_tile_statistics


def make_current(shape, seed=5, kind="natural"):
    scene = make_scene(kind, shape, seed=seed)
    return PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)


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

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            TiledSensorArray((32, 32), executor="fleet")

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

    def test_executor_choice_does_not_change_samples(self):
        current = make_current((32, 32))
        captures = {}
        for executor in ("serial", "thread", "process"):
            array = TiledSensorArray(
                (32, 32), tile_shape=(16, 16), seed=3,
                executor=executor, max_workers=2,
            )
            captures[executor] = array.capture(current).samples
        assert np.array_equal(captures["serial"], captures["thread"])
        assert np.array_equal(captures["serial"], captures["process"])

    def test_capture_history_does_not_leak_across_executors(self):
        # Tile captures run on imager copies, so an earlier auto-exposing
        # capture must not shift a later auto_expose=False capture — in any
        # executor (a process worker's state dies with the worker; the
        # parent's must behave identically).
        current = make_current((32, 32))
        outcomes = {}
        for executor in ("serial", "process"):
            array = TiledSensorArray(
                (32, 32), tile_shape=(16, 16), seed=3,
                executor=executor, max_workers=2,
            )
            array.capture(current)  # adapts V_ref only on per-capture copies
            outcomes[executor] = array.capture(current, auto_expose=False).samples
        assert np.array_equal(outcomes["serial"], outcomes["process"])

    def test_per_call_executor_override(self):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=3)
        current = make_current((32, 32))
        serial = array.capture(current, executor="serial")
        threaded = array.capture(current, executor="thread", max_workers=2)
        assert np.array_equal(serial.samples, threaded.samples)
        assert serial.metadata["executor"] == "serial"
        assert threaded.metadata["executor"] == "thread"
        assert threaded.metadata["max_workers"] == 2

    @pytest.mark.parametrize(("n_jobs", "width"), [(2, 2), (64, 3)])
    def test_default_pool_width_is_available_cpus(self, monkeypatch, n_jobs, width):
        """``max_workers=None`` gives one worker per usable CPU, clamped to
        the tile count, not :mod:`concurrent.futures`' nproc + 4."""
        requested = []

        def recording_pool(max_workers):
            requested.append(max_workers)
            return "pool"

        monkeypatch.setattr(shard, "available_cpus", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        assert TiledSensorArray._make_pool("thread", None, n_jobs) == "pool"
        assert requested == [width]

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

    def test_float32_dtype_flagged_per_tile_and_mosaic(self):
        array = TiledSensorArray(
            (32, 32), tile_shape=(16, 16), dtype="float32", seed=3
        )
        result = array.capture(make_current((32, 32)))
        assert result.metadata["dtype"] == "float32"
        assert all(
            frame.metadata["dtype"] == "float32"
            for _, frame in result.frames()
        )


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

    def test_matches_capture_in_row_major_order(self):
        array = TiledSensorArray((32, 48), tile_shape=(16, 16), seed=4)
        current = make_current((32, 48))
        merged = array.capture(current)
        streamed = list(array.iter_capture(current))
        assert [slot for slot, _ in streamed] == [slot for slot, _ in merged.frames()]
        for (_, iter_frame), (_, cap_frame) in zip(streamed, merged.frames()):
            assert np.array_equal(iter_frame.samples, cap_frame.samples)
            assert np.array_equal(iter_frame.seed_state, cap_frame.seed_state)

    def test_executor_neutral(self):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=4)
        current = make_current((32, 32))
        serial = [f.samples for _, f in array.iter_capture(current, executor="serial")]
        threaded = [f.samples for _, f in array.iter_capture(current, executor="thread")]
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

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
    """Tiled video: per-tile CA continuity, executor neutrality, state."""

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
                import copy as _copy
                chip = _copy.deepcopy(array.imagers[grid_row][grid_col])
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

    def test_executor_neutral(self):
        currents = [make_current((32, 32), seed=i) for i in range(2)]
        by_executor = {}
        for executor in ("serial", "thread"):
            array = TiledSensorArray((32, 32), tile_shape=(16, 16), seed=9)
            by_executor[executor] = array.capture_sequence(
                currents, executor=executor
            )
        for serial, threaded in zip(by_executor["serial"], by_executor["thread"]):
            assert np.array_equal(serial.samples, threaded.samples)

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
