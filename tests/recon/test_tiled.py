"""Tile-by-tile reconstruction of sharded captures."""

from dataclasses import replace

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
        """``reconstruct_tiled`` is each tile's own ``reconstruct_frame``, byte for byte."""
        tiled = reconstruct_tiled(tiled_capture, max_iterations=40)
        image, per_tile = per_tile_solves(tiled_capture, max_iterations=40)
        assert tiled.image.tobytes() == image.tobytes()
        tiles = [tile for row in tiled.tile_results for tile in row]
        assert len(tiles) == len(per_tile)
        for tile, alone in zip(tiles, per_tile):
            ours, theirs = tile.solver_result, alone.solver_result
            assert tile.image.tobytes() == alone.image.tobytes()
            assert ours.history == theirs.history
            assert ours.n_iterations == theirs.n_iterations
            assert ours.converged == theirs.converged
            assert ours.step_reductions == theirs.step_reductions

    @pytest.mark.parametrize("operator", ["structured"])
    def test_tile_images_are_views_of_the_mosaic(self, tiled_capture, operator):
        """The mosaic keeps its pixels once; each tile's image is its slot."""
        tiled = reconstruct_tiled(tiled_capture, max_iterations=20)
        image, _ = per_tile_solves(tiled_capture, max_iterations=20, operator=operator)
        for slot, _frame in tiled_capture.frames():
            tile = tiled.tile_results[slot.grid_row][slot.grid_col]
            assert np.shares_memory(tile.image, tiled.image)
            assert tile.image.shape == (slot.rows, slot.cols)
            assert tile.image.tobytes() == image[slot.row_slice, slot.col_slice].tobytes()

    def test_sparsity_is_not_an_option(self, tiled_capture):
        with pytest.raises(TypeError, match="sparsity"):
            reconstruct_tiled(tiled_capture, sparsity=12)

    def test_operator_is_not_an_option(self, tiled_capture):
        """The mosaic solve is structured only; the dense reference is per frame."""
        with pytest.raises(TypeError, match="operator"):
            reconstruct_tiled(tiled_capture, operator="dense")

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


class TestPartialMosaic:
    """Missing and lossy tiles: the mosaic a lossy stream settles."""

    def test_missing_and_masked_tiles_match_per_tile_solves(self, tiled_capture):
        tiles = [list(row) for row in tiled_capture.tiles]
        tiles[0][1] = None
        capture = replace(tiled_capture, tiles=tiles)
        mask = np.ones(capture.tiles[1][2].n_samples, dtype=bool)
        mask[::3] = False
        masks = {(1, 2): mask}
        result = reconstruct_tiled(capture, max_iterations=40, sample_masks=masks)

        image = np.zeros(capture.scene_shape)
        for slot, frame in capture.frames():
            tile = result.tile_results[slot.grid_row][slot.grid_col]
            if frame is None:
                assert tile is None
                assert not result.image[slot.row_slice, slot.col_slice].any()
                continue
            alone = reconstruct_frame(
                frame,
                max_iterations=40,
                sample_mask=masks.get((slot.grid_row, slot.grid_col)),
            )
            assert tile.image.tobytes() == alone.image.tobytes()
            image[slot.row_slice, slot.col_slice] = alone.image
        assert result.image.tobytes() == image.tobytes()
        # The masked tile really solved over fewer rows of Φ.
        unmasked = reconstruct_frame(capture.tiles[1][2], max_iterations=40)
        assert result.tile_results[1][2].image.tobytes() != unmasked.image.tobytes()
        # No scene reference without every tile's digital image.
        assert result.metrics == {}

    def test_geometry_mismatch_rejected(self):
        array = TiledSensorArray((16, 24), tile_shape=(16, 16), seed=9)
        capture = array.capture_scene(make_scene("blobs", (16, 24), seed=4))
        full_tile = capture.tiles[0][0]
        mismatched = replace(capture, tiles=[[full_tile, full_tile]])
        with pytest.raises(ValueError, match="slot expects 16x8"):
            reconstruct_tiled(mismatched, max_iterations=5)
