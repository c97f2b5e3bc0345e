"""Tile-by-tile reconstruction of sharded captures."""

import numpy as np
import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_frame, reconstruct_tiled
from repro.sensor.shard import TiledSensorArray


@pytest.fixture(scope="module")
def tiled_capture():
    scene = make_scene("blobs", (32, 48), seed=4)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)
    array = TiledSensorArray((32, 48), tile_shape=(16, 16), seed=9)
    return array.capture(current)


def per_tile_solves(capture, **kwargs):
    """Each tile solved alone by ``reconstruct_frame``, stitched at its slot."""
    image = np.zeros(capture.scene_shape)
    results = []
    for slot, frame in capture.frames():
        result = reconstruct_frame(frame, **kwargs)
        image[slot.row_slice, slot.col_slice] = result.image
        results.append(result)
    return image, results


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

    def test_batched_executor_matches_per_tile(self, tiled_capture):
        """The batched solve is each tile's own ``reconstruct_frame``, vectorised."""
        batched = reconstruct_tiled(tiled_capture, max_iterations=40)
        image, per_tile = per_tile_solves(tiled_capture, max_iterations=40)
        assert batched.image.tobytes() == image.tobytes()
        batched_tiles = [tile for row in batched.tile_results for tile in row]
        assert len(batched_tiles) == len(per_tile)
        for batched_tile, alone in zip(batched_tiles, per_tile):
            ours, theirs = batched_tile.solver_result, alone.solver_result
            assert batched_tile.image.tobytes() == alone.image.tobytes()
            assert ours.coefficients.tobytes() == theirs.coefficients.tobytes()
            assert ours.history == theirs.history
            assert ours.n_iterations == theirs.n_iterations
            assert ours.converged == theirs.converged
            assert ours.step_reductions == theirs.step_reductions

    def test_batched_falls_back_for_greedy_solvers(self, tiled_capture):
        """Non-proximal solvers ride the per-tile loop inside the batched solve."""
        batched = reconstruct_tiled(tiled_capture, solver="omp", sparsity=12)
        image, _ = per_tile_solves(tiled_capture, solver="omp", sparsity=12)
        assert batched.image.tobytes() == image.tobytes()

    def test_dense_operator_reachable(self, tiled_capture, float64_products):
        dense = reconstruct_tiled(tiled_capture, max_iterations=40, operator="dense")
        structured = reconstruct_tiled(tiled_capture, max_iterations=40)
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
