"""The recon-equivalence invariant, end to end.

``reconstruct_frame(operator="structured")`` — the matrix-free default — must
produce the same image as ``operator="dense"`` — the executable reference —
to within tight floating-point tolerance, across dictionaries, non-square
geometries, CA sequencing variants (warm-up / steps-per-sample) and all three
solvers; and the batched multi-tile solve must agree with the per-tile path
the same way.  Whenever the solver stack or the operator algebra changes,
this suite is the tripwire: the dense path stays in the tree precisely so
the fast path can be pinned against it.

The suite runs on the float64 products (the ``float64_products`` fixture):
the default float32 ±1-factor GEMMs round at ~1e-3 codes, and their bound
against float64 is pinned by ``tests/properties/test_property_mixed_precision.py``.
"""

import numpy as np
import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.operator import frame_operator
from repro.recon.pipeline import reconstruct_frame, reconstruct_tiled
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray

pytestmark = pytest.mark.usefixtures("float64_products")

#: The invariant's tolerance: solver outputs of the two operator flavours
#: agree to this absolute tolerance (code units; images span ~1000 codes).
EQUIV_ATOL = 1e-8


def capture(shape=(16, 16), *, seed=3, n_samples=90, scene_seed=1, **imager_kwargs):
    rows, cols = shape
    imager = CompressiveImager(
        SensorConfig(rows=rows, cols=cols), seed=seed, **imager_kwargs
    )
    scene = make_scene("blobs", shape, seed=scene_seed)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)
    return imager.capture(current, n_samples=n_samples)


class TestFrameOperatorFlavours:
    @pytest.mark.parametrize("shape", [(16, 16), (16, 32), (32, 16)])
    def test_density_is_bit_identical(self, shape):
        frame = capture(shape)
        _, dense_density = frame_operator(frame, operator="dense")
        _, structured_density = frame_operator(frame, operator="structured")
        assert dense_density == structured_density

    def test_materialised_phi_is_bit_identical(self, shape=(16, 16)):
        frame = capture(shape)
        dense_op, _ = frame_operator(frame, operator="dense")
        structured_op, _ = frame_operator(frame, operator="structured")
        assert structured_op.phi.tobytes() == dense_op.phi.tobytes()

    def test_unknown_flavour_rejected(self):
        frame = capture()
        with pytest.raises(ValueError, match="operator"):
            frame_operator(frame, operator="sparse")
        with pytest.raises(ValueError, match="operator"):
            reconstruct_frame(frame, operator="sparse")
        with pytest.raises(ValueError, match="precision"):
            frame_operator(frame, operator="dense", precision="float16")


class TestReconstructFrameEquivalence:
    @pytest.mark.parametrize("dictionary", ["identity", "dct", "haar"])
    @pytest.mark.parametrize("solver", ["fista", "ista", "omp"])
    def test_structured_matches_dense(self, dictionary, solver):
        frame = capture((16, 16))
        kwargs = dict(
            dictionary=dictionary, solver=solver, max_iterations=40, sparsity=12
        )
        dense = reconstruct_frame(frame, operator="dense", **kwargs)
        structured = reconstruct_frame(frame, operator="structured", **kwargs)
        np.testing.assert_allclose(
            structured.image, dense.image, atol=EQUIV_ATOL
        )
        assert structured.solver_result.n_iterations == (
            dense.solver_result.n_iterations
        )

    @pytest.mark.parametrize("shape", [(16, 32), (32, 16)])
    @pytest.mark.parametrize("solver", ["fista", "omp"])
    def test_non_square_shapes(self, shape, solver):
        frame = capture(shape, n_samples=150)
        kwargs = dict(solver=solver, max_iterations=40, sparsity=15)
        dense = reconstruct_frame(frame, operator="dense", **kwargs)
        structured = reconstruct_frame(frame, operator="structured", **kwargs)
        np.testing.assert_allclose(structured.image, dense.image, atol=EQUIV_ATOL)

    @pytest.mark.parametrize(
        "steps_per_sample,warmup_steps", [(1, 0), (2, 8), (3, 3)]
    )
    def test_ca_sequencing_variants(self, steps_per_sample, warmup_steps):
        frame = capture(
            (16, 16),
            steps_per_sample=steps_per_sample,
            warmup_steps=warmup_steps,
        )
        dense = reconstruct_frame(frame, operator="dense", max_iterations=40)
        structured = reconstruct_frame(frame, operator="structured", max_iterations=40)
        np.testing.assert_allclose(structured.image, dense.image, atol=EQUIV_ATOL)

    @pytest.mark.parametrize("seed", [3, 17, 90])
    def test_seeds(self, seed):
        frame = capture((16, 16), seed=seed, scene_seed=seed + 1)
        dense = reconstruct_frame(frame, operator="dense", max_iterations=40)
        structured = reconstruct_frame(frame, operator="structured", max_iterations=40)
        np.testing.assert_allclose(structured.image, dense.image, atol=EQUIV_ATOL)

    def test_default_flavour_is_structured(self):
        frame = capture()
        default = reconstruct_frame(frame, max_iterations=30)
        structured = reconstruct_frame(
            frame, max_iterations=30, operator="structured"
        )
        assert default.image.tobytes() == structured.image.tobytes()


class TestTiledEquivalence:
    @pytest.fixture(scope="class")
    def tiled_capture(self):
        array = TiledSensorArray(
            (32, 48), tile_shape=(16, 16), compression_ratio=0.3, seed=6
        )
        scene = make_scene("blobs", (32, 48), seed=2)
        current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)
        return array.capture(current)

    def test_batched_structured_matches_dense_per_tile(self, tiled_capture):
        """The headline chain: batched structured vs the dense per-tile loop."""
        batched = reconstruct_tiled(tiled_capture, max_iterations=40)
        dense = np.zeros(tiled_capture.scene_shape)
        for slot, frame in tiled_capture.delivered():
            alone = reconstruct_frame(frame, operator="dense", max_iterations=40)
            dense[slot.row_slice, slot.col_slice] = alone.image
        np.testing.assert_allclose(batched.image, dense, atol=EQUIV_ATOL)

    def test_explicit_iteration_budget_is_honoured(self, tiled_capture):
        """An explicit budget reaches the solver verbatim, solo and batched."""
        _, frame = next(iter(tiled_capture.frames()))
        single = reconstruct_frame(frame, max_iterations=1)
        assert single.solver_result.n_iterations == 1
        tiled = reconstruct_tiled(tiled_capture, max_iterations=1)
        for row in tiled.tile_results:
            assert [tile.solver_result.n_iterations for tile in row] == [1] * len(row)


class TestSolveTilesBatched:
    def test_empty_input(self):
        from repro.recon.batch import solve_tiles_batched

        assert solve_tiles_batched([]) == []

    def test_heterogeneous_geometry_rejected(self):
        from repro.recon.batch import solve_tiles_batched

        small = capture((16, 16))
        large = capture((16, 32), n_samples=120)
        with pytest.raises(ValueError, match="equal-geometry"):
            solve_tiles_batched([small, large])


class TestClosedFormSteps:
    """No CA solve runs a power iteration: every frame operator carries σ̂."""

    @pytest.fixture
    def no_power_iteration(self, monkeypatch):
        import repro.cs.operators as operators

        def refuse(*args, **kwargs):
            raise AssertionError("a CA solve ran a power iteration")

        monkeypatch.setattr(operators, "power_iteration", refuse)

    @pytest.mark.parametrize("operator", ["structured", "dense"])
    @pytest.mark.parametrize("solver", ["fista", "ista"])
    def test_frame_solves(self, no_power_iteration, operator, solver):
        frame = capture()
        mask = np.arange(frame.n_samples) % 3 != 0
        for sample_mask in (None, mask):
            result = reconstruct_frame(
                frame, operator=operator, solver=solver, max_iterations=10,
                sample_mask=sample_mask,
            )
            assert np.isfinite(result.image).all()

    def test_batched_mosaic_solve(self, no_power_iteration):
        array = TiledSensorArray((32, 32), tile_shape=(16, 16), compression_ratio=0.3, seed=8)
        capture_result = array.capture_scene(make_scene("blobs", (32, 32), seed=40))
        result = reconstruct_tiled(capture_result, max_iterations=10)
        assert np.isfinite(result.image).all()

    def test_explicit_arguments_run_the_power_iteration(self):
        operator, _ = frame_operator(capture())
        estimated = operator.operator_norm(tolerance=0.0)
        # A 16x16 frame: the power iteration reads σ below the margined σ̂.
        assert 0.0 < estimated < operator.norm_estimate
        assert operator.operator_norm() == operator.norm_estimate

    @pytest.mark.parametrize("center", [True, False])
    def test_flavours_share_the_step(self, center):
        frame = capture()
        dense, _ = frame_operator(frame, operator="dense", center=center)
        structured, _ = frame_operator(frame, center=center)
        assert dense.operator_norm() == structured.operator_norm() == dense.norm_estimate
