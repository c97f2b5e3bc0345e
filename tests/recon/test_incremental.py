"""Tests for the incremental tiled reconstructor."""

import numpy as np
import pytest

from repro.optics.scenes import make_scene
from repro.recon.incremental import IncrementalTiledReconstructor
from repro.recon.pipeline import reconstruct_tiled
from repro.sensor.shard import TiledSensorArray


@pytest.fixture(scope="module")
def capture():
    array = TiledSensorArray(
        (32, 48), tile_shape=(16, 16), compression_ratio=0.2, executor="serial", seed=6
    )
    return array.capture_scene(make_scene("blobs", (32, 48), seed=3))


RECON_KWARGS = dict(solver="fista", max_iterations=25)


class TestIncrementalTiledReconstructor:
    def test_matches_reconstruct_tiled_byte_for_byte(self, capture):
        """Eager add_tile ≡ the default (batched) reconstruct_tiled."""
        reconstructor = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        for slot, frame in capture.frames():
            reconstructor.add_tile(slot.grid_row, slot.grid_col, frame)
        incremental = reconstructor.result()
        direct = reconstruct_tiled(capture, **RECON_KWARGS)
        assert incremental.image.tobytes() == direct.image.tobytes()
        assert incremental.capture_metadata["event_statistics"] == (
            direct.capture_metadata["event_statistics"]
        )

    def test_staged_matches_reconstruct_tiled_byte_for_byte(self, capture):
        """stage_tile + solve_staged ≡ the default batched reconstruct_tiled."""
        reconstructor = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        for slot, frame in capture.frames():
            reconstructor.stage_tile(slot.grid_row, slot.grid_col, frame)
        results = reconstructor.solve_staged()
        assert len(results) == reconstructor.n_tiles
        assert reconstructor.is_complete
        staged = reconstructor.result()
        direct = reconstruct_tiled(capture, **RECON_KWARGS)
        assert staged.image.tobytes() == direct.image.tobytes()

    def test_staged_duplicate_rejected(self, capture):
        reconstructor = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        slot, frame = next(iter(capture.frames()))
        reconstructor.stage_tile(slot.grid_row, slot.grid_col, frame)
        with pytest.raises(ValueError, match="already"):
            reconstructor.stage_tile(slot.grid_row, slot.grid_col, frame)
        with pytest.raises(ValueError, match="already"):
            reconstructor.add_tile(slot.grid_row, slot.grid_col, frame)

    def test_tile_order_does_not_matter(self, capture):
        pairs = list(capture.frames())
        forward = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        backward = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        for slot, frame in pairs:
            forward.add_tile(slot.grid_row, slot.grid_col, frame)
        for slot, frame in reversed(pairs):
            backward.add_tile(slot.grid_row, slot.grid_col, frame)
        assert forward.result().image.tobytes() == backward.result().image.tobytes()

    def test_progress_tracking_and_partial_image(self, capture):
        reconstructor = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        pairs = list(capture.frames())
        assert reconstructor.n_tiles == len(pairs)
        assert not reconstructor.is_complete
        slot, frame = pairs[0]
        reconstructor.add_tile(slot.grid_row, slot.grid_col, frame)
        assert reconstructor.n_completed == 1
        partial = reconstructor.partial_image()
        assert partial[slot.row_slice, slot.col_slice].any()
        untouched = np.ones(capture.scene_shape, dtype=bool)
        untouched[slot.row_slice, slot.col_slice] = False
        assert not partial[untouched].any()

    def test_incomplete_result_raises(self, capture):
        reconstructor = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        with pytest.raises(ValueError, match="incomplete"):
            reconstructor.result()

    def test_duplicate_tile_rejected(self, capture):
        reconstructor = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        slot, frame = next(iter(capture.frames()))
        reconstructor.add_tile(slot.grid_row, slot.grid_col, frame)
        with pytest.raises(ValueError, match="already"):
            reconstructor.add_tile(slot.grid_row, slot.grid_col, frame)

    def test_geometry_mismatch_rejected(self, capture):
        reconstructor = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        pairs = list(capture.frames())
        _, frame = pairs[0]
        # Scene 48 cols / tile 16 => all tiles 16x16; shrink the grid instead:
        # a 16x16 frame into a reconstructor expecting a 8-col edge tile.
        other = IncrementalTiledReconstructor((16, 24), (16, 16), **RECON_KWARGS)
        with pytest.raises(ValueError, match="slot expects"):
            other.add_tile(0, 1, frame)

    def test_out_of_grid_position_rejected(self, capture):
        reconstructor = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        _, frame = next(iter(capture.frames()))
        with pytest.raises(ValueError, match="outside"):
            reconstructor.add_tile(9, 9, frame)

    @pytest.mark.parametrize("solver", ["omp", "iht", "bogus"])
    def test_non_proximal_solver_rejected_at_construction(self, capture, solver):
        with pytest.raises(ValueError, match="solver"):
            IncrementalTiledReconstructor(
                capture.scene_shape, capture.tile_shape, solver=solver
            )

    def test_sparsity_is_not_an_option(self, capture):
        with pytest.raises(TypeError, match="sparsity"):
            IncrementalTiledReconstructor(
                capture.scene_shape, capture.tile_shape, sparsity=12
            )

    def test_metrics_against_explicit_reference(self, capture):
        reconstructor = IncrementalTiledReconstructor(
            capture.scene_shape, capture.tile_shape, **RECON_KWARGS
        )
        for slot, frame in capture.frames():
            reconstructor.add_tile(slot.grid_row, slot.grid_col, frame)
        result = reconstructor.result(reference=capture.digital_image())
        assert "psnr_db" in result.metrics
        direct = reconstruct_tiled(capture, **RECON_KWARGS)
        assert result.metrics["psnr_db"] == pytest.approx(direct.metrics["psnr_db"])
