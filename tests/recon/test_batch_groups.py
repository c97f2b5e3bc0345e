"""Mosaic solves run in cache-sized tile groups.

:func:`~repro.recon.batch.solve_tiles_batched` walks its frames in groups of
:func:`~repro.recon.batch.tiles_per_group` tiles, building each group's
operators just before its solve.  Pinned here:

* **the group rule** — as many tiles as fit their ±1 factors in
  ``GROUP_FACTOR_BUDGET``, never fewer than one;
* **byte identity** — stacks spanning several groups (16x16 fan-in tiles
  past one group, and 64x64 tiles that solve one per group) give every
  tile the bytes of its solo solve;
* **bounded memory** — a 16-tile 64x64 solve holds one tile's operator at a
  time, not the whole mosaic's (it used to trace 21.6 MB).
"""

import tracemalloc

import numpy as np
import pytest

import repro.recon.batch as batch
from repro.optics.scenes import make_scene
from repro.recon.batch import GROUP_FACTOR_BUDGET, solve_tiles_batched, tiles_per_group
from repro.recon.pipeline import reconstruct_frame
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray

ITERATIONS = 8


def tile_frames(scene_shape, tile_shape, seed=5):
    array = TiledSensorArray(scene_shape, tile_shape=tile_shape, seed=seed, max_workers=1)
    capture = array.capture_scene(make_scene("natural", scene_shape, seed=3))
    return [frame for _, frame in capture.frames()]


def one_frame(size, n_samples):
    imager = CompressiveImager(SensorConfig(rows=size, cols=size), seed=1)
    return imager.capture_scene(make_scene("blobs", (size, size), seed=2), n_samples=n_samples)


class TestGroupRule:
    def test_fanin_tiles_fill_the_budget(self):
        # 102 samples x (16 + 16) float32 entries = 13,056 bytes per tile.
        frame = one_frame(16, 102)
        assert tiles_per_group(frame) == 80
        tile_bytes = 102 * 32 * 4
        assert 80 * tile_bytes <= GROUP_FACTOR_BUDGET < 81 * tile_bytes

    def test_smallest_tile_stacks_by_the_thousand(self):
        frame = one_frame(4, 1)
        assert tiles_per_group(frame) == GROUP_FACTOR_BUDGET // (1 * 8 * 4)

    def test_default_64x64_tile_solves_alone(self):
        # 1638 x 128 x 4 = 0.84 MB: two would overflow the budget.
        assert tiles_per_group(one_frame(64, 1638)) == 1

    def test_tile_over_the_budget_still_solves(self):
        frame = one_frame(64, 4096)  # 2.1 MB of factors
        assert 4096 * 128 * 4 > GROUP_FACTOR_BUDGET
        assert tiles_per_group(frame) == 1


def assert_matches_solo(frames, results):
    assert len(results) == len(frames)
    for frame, result in zip(frames, results):
        solo = reconstruct_frame(frame, max_iterations=ITERATIONS)
        assert result.image.tobytes() == solo.image.tobytes()
        got, want = result.solver_result, solo.solver_result
        assert got.history == want.history
        assert got.n_iterations == want.n_iterations
        assert got.converged == want.converged
        assert got.step_reductions == want.step_reductions


class TestGroupedSolves:
    @pytest.fixture
    def stack_sizes(self, monkeypatch):
        """The tile count of every batched solve call."""
        sizes = []
        solve = batch.batched_proximal_gradient

        def recording_solve(operators, *args, **kwargs):
            sizes.append(len(operators))
            return solve(operators, *args, **kwargs)

        monkeypatch.setattr(batch, "batched_proximal_gradient", recording_solve)
        return sizes

    def test_fanin_stack_past_one_group(self, stack_sizes):
        frames = tile_frames((16 * 12, 16 * 7), (16, 16))
        assert (len(frames), frames[0].n_samples) == (84, 102)
        results = solve_tiles_batched(frames, max_iterations=ITERATIONS)
        assert stack_sizes == [80, 4]
        assert_matches_solo(frames, results)

    def test_64x64_tiles_one_per_group(self, stack_sizes):
        frames = tile_frames((128, 192), (64, 64))
        assert (len(frames), frames[0].n_samples) == (6, 1638)
        results = solve_tiles_batched(frames, max_iterations=ITERATIONS)
        assert stack_sizes == [1] * 6
        assert_matches_solo(frames, results)


def test_mosaic_solve_memory_is_one_group():
    frames = tile_frames((256, 256), (64, 64))
    assert len(frames) == 16

    def run():
        return solve_tiles_batched(frames, max_iterations=3)

    run()  # warm caches and lazy imports outside the trace
    tracemalloc.start()
    try:
        results = run()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert len(results) == 16 and np.isfinite(results[0].image).all()
    assert peak_mb <= 8.0
