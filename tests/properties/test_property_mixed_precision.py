"""Property suite: the default mixed-precision products against float64.

Every CA solve runs its ±1-factor GEMMs and its DCT Ψ in float32 by default
(:class:`~repro.cs.structured.StructuredSensingOperator`, ``precision=
"mixed"``); the iterate, sums, λ, step and backtrack test stay float64.  The
recon-equivalence suite pins the float64 products against the dense
reference.  This suite closes the chain: on rule-30 frames of several
shapes, scenes and sample masks, with every solver, the default
reconstruction stays within

* ``PSNR_BOUND_DB`` of the float64 reconstruction's PSNR, and
* ``RELATIVE_BOUND`` of its image, in relative l2 error.

With float32 Ψ the 100 derandomized examples below read at most 2.7e-4 dB
and 1.4e-5 relative, the three 64x64, 1638-sample frames 6.5e-4 dB and
7.0e-5, and the mosaic 5.6e-7 dB and 2.7e-7.  (With float64 Ψ, over 150
random frames, the largest were 4e-4 dB and 1.3e-4; the 64x64 frames read
below 1e-3 dB and 2e-5.)  The per-transform float32 Ψ bound is
``tests/properties/test_property_float32_dct.py``.  The hypothesis draws are
derandomized, so a run cannot turn red by chance.
"""

from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.operator import frame_operator
from repro.recon.pipeline import reconstruct_frame, reconstruct_tiled
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray

PSNR_BOUND_DB = 0.01
RELATIVE_BOUND = 1e-3
SHAPES = [(8, 8), (16, 16), (32, 32), (16, 32), (32, 16)]
SOLVERS = ["fista", "ista", "iht", "omp", "cosamp"]


@lru_cache(maxsize=32)
def capture(shape, seed, scene):
    """A rule-30 frame at the default 40% sampling of a noise-free scene."""
    rows, cols = shape
    imager = CompressiveImager(SensorConfig(rows=rows, cols=cols), seed=seed)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(
        make_scene(scene, shape, seed=seed)
    )
    return imager.capture(current, n_samples=int(round(0.4 * rows * cols)))


def assert_within_bounds(mixed, exact):
    assert abs(mixed.metrics["psnr_db"] - exact.metrics["psnr_db"]) <= PSNR_BOUND_DB
    error = np.linalg.norm(mixed.image - exact.image)
    assert error <= RELATIVE_BOUND * np.linalg.norm(exact.image)


def float64_default():
    return patch.dict(frame_operator.__kwdefaults__, precision="float64")


def test_the_default_is_mixed():
    operator, _ = frame_operator(capture((16, 16), 1, "blobs"))
    assert operator.precision == "mixed"
    assert operator.row_signs_t.dtype == operator.col_signs.dtype == np.float32
    with float64_default():
        operator, _ = frame_operator(capture((16, 16), 1, "blobs"))
    assert operator.row_signs_t.dtype == operator.col_signs.dtype == np.float64


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from(SHAPES),
    st.integers(0, 2**16),
    st.sampled_from(["natural", "blobs"]),
    st.sampled_from(SOLVERS),
    st.floats(0.25, 1.0),
    st.integers(0, 2**16),
)
def test_mixed_solve_tracks_float64(shape, seed, scene, solver, fraction, mask_seed):
    frame = capture(shape, seed, scene)
    mask = np.random.default_rng(mask_seed).random(frame.n_samples) < fraction
    mask[0] = True
    kwargs = dict(solver=solver, reference=frame.digital_image, sample_mask=mask)
    mixed = reconstruct_frame(frame, **kwargs)
    with float64_default():
        exact = reconstruct_frame(frame, **kwargs)
    assert_within_bounds(mixed, exact)


@pytest.mark.parametrize("scene, seed", [("natural", 3), ("natural", 11), ("blobs", 42)])
def test_mixed_solve_tracks_float64_on_64x64_frames(scene, seed):
    frame = capture((64, 64), seed, scene)
    mixed = reconstruct_frame(frame, reference=frame.digital_image)
    with float64_default():
        exact = reconstruct_frame(frame, reference=frame.digital_image)
    assert_within_bounds(mixed, exact)
    assert mixed.solver_result.step_reductions == exact.solver_result.step_reductions == 0


def test_batched_mosaic_tracks_float64():
    array = TiledSensorArray((64, 64), tile_shape=(16, 16), seed=5)
    tiled = array.capture_scene(make_scene("natural", (64, 64), seed=5))
    mixed = reconstruct_tiled(tiled)
    with float64_default():
        exact = reconstruct_tiled(tiled)
    assert_within_bounds(mixed, exact)
