"""Tile-by-tile reconstruction of sharded captures."""

import concurrent.futures

import numpy as np
import pytest

import repro.sensor.shard as shard
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_tiled
from repro.sensor.shard import TiledSensorArray


@pytest.fixture(scope="module")
def tiled_capture():
    scene = make_scene("blobs", (32, 48), seed=4)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)
    array = TiledSensorArray((32, 48), tile_shape=(16, 16), seed=9)
    return array.capture(current)


class TestReconstructTiled:
    def test_stitches_full_scene(self, tiled_capture):
        result = reconstruct_tiled(tiled_capture, max_iterations=60)
        assert result.image.shape == (32, 48)
        grid_rows = len(result.tile_results)
        grid_cols = len(result.tile_results[0])
        assert (grid_rows, grid_cols) == tiled_capture.grid_shape

    def test_metrics_against_stitched_digital_image(self, tiled_capture):
        result = reconstruct_tiled(tiled_capture, max_iterations=60)
        assert set(result.metrics) == {"psnr_db", "snr_db"}
        # R = 0.4 on a smooth scene recovers a clearly recognisable image.
        assert result.metrics["psnr_db"] > 15.0

    def test_capture_metadata_carried(self, tiled_capture):
        result = reconstruct_tiled(tiled_capture, max_iterations=30)
        assert result.capture_metadata["n_tiles"] == tiled_capture.n_tiles
        assert result.capture_metadata["event_statistics"] == "modelled"

    def test_thread_executor_matches_serial(self, tiled_capture):
        serial = reconstruct_tiled(tiled_capture, max_iterations=40, executor="serial")
        threaded = reconstruct_tiled(
            tiled_capture, max_iterations=40, executor="thread", max_workers=2
        )
        assert np.array_equal(serial.image, threaded.image)

    @pytest.mark.parametrize(("cpus", "width"), [(3, 3), (64, 6)])
    def test_default_thread_pool_sized_like_the_capture_pool(
        self, monkeypatch, tiled_capture, cpus, width
    ):
        """``max_workers=None`` gives one thread per usable CPU, clamped to
        the tile count, as :class:`TiledSensorArray` sizes its pool."""
        requested = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def recording_pool(max_workers):
            requested.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(shard, "available_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        assert tiled_capture.n_tiles == 6
        reconstruct_tiled(tiled_capture, max_iterations=5, executor="thread")
        assert requested == [width]

    def test_batched_executor_matches_per_tile(self, tiled_capture):
        """The default batched solve is the per-tile solve, vectorised."""
        batched = reconstruct_tiled(tiled_capture, max_iterations=40)
        serial = reconstruct_tiled(tiled_capture, max_iterations=40, executor="serial")
        assert batched.image.tobytes() == serial.image.tobytes()
        for batched_row, serial_row in zip(batched.tile_results, serial.tile_results):
            for batched_tile, serial_tile in zip(batched_row, serial_row):
                assert batched_tile.solver_result.converged == (
                    serial_tile.solver_result.converged
                )

    def test_batched_falls_back_for_greedy_solvers(self, tiled_capture):
        """Non-proximal solvers ride the per-tile loop inside the batched executor."""
        batched = reconstruct_tiled(tiled_capture, solver="omp", sparsity=12)
        serial = reconstruct_tiled(
            tiled_capture, solver="omp", sparsity=12, executor="serial"
        )
        assert batched.image.tobytes() == serial.image.tobytes()

    def test_dense_operator_reachable(self, tiled_capture, float64_products):
        dense = reconstruct_tiled(tiled_capture, max_iterations=40, operator="dense")
        structured = reconstruct_tiled(
            tiled_capture, max_iterations=40, executor="serial"
        )
        np.testing.assert_allclose(dense.image, structured.image, atol=1e-8)

    def test_explicit_reference_overrides_digital_image(self, tiled_capture):
        reference = tiled_capture.digital_image().astype(float)
        result = reconstruct_tiled(
            tiled_capture, max_iterations=30, reference=reference
        )
        assert result.metrics["psnr_db"] > 0.0

    def test_no_reference_no_metrics(self):
        scene = make_scene("blobs", (16, 16), seed=4)
        current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)
        array = TiledSensorArray((16, 16), tile_shape=(16, 16), seed=9)
        capture = array.capture(current, keep_digital_image=False)
        result = reconstruct_tiled(capture, max_iterations=20)
        assert result.metrics == {}

    def test_invalid_executor_rejected(self, tiled_capture):
        with pytest.raises(ValueError, match="executor"):
            reconstruct_tiled(tiled_capture, executor="process")
