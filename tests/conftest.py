"""Shared fixtures for the test-suite.

Most tests use a scaled-down sensor (16x16 or 32x32) so the whole suite runs
in seconds; the full 64x64 Table II configuration is exercised by the
integration tests and the benchmarks.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import settings

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.operator import frame_operator
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager

# Fixed-budget fuzzing for CI (``--hypothesis-profile=fuzz``): many examples,
# no per-example deadline, still randomised so each run explores new inputs.
# Tier-1 keeps hypothesis' default profile.
settings.register_profile("fuzz", max_examples=2000, deadline=None)


@pytest.fixture
def float64_products():
    """Make float64 the default product precision of every frame operator.

    The recon-equivalence pins (structured against dense at 1e-8) hold on
    the all-float64 products.  :func:`~repro.recon.operator.frame_operator`
    builds every receiver-side operator, so switching its default reaches
    ``reconstruct_frame``, ``reconstruct_tiled`` and the batched solve alike.
    """
    with patch.dict(frame_operator.__kwdefaults__, precision="float64"):
        yield


@pytest.fixture
def small_config() -> SensorConfig:
    """A 16x16 sensor with the prototype's timing parameters."""
    return SensorConfig(rows=16, cols=16)


@pytest.fixture
def medium_config() -> SensorConfig:
    """A 32x32 sensor, large enough for meaningful reconstructions."""
    return SensorConfig(rows=32, cols=32)


@pytest.fixture
def default_config() -> SensorConfig:
    """The Table II prototype configuration (64x64)."""
    return SensorConfig()


@pytest.fixture
def small_imager(small_config) -> CompressiveImager:
    """Imager built on the 16x16 configuration with a fixed seed."""
    return CompressiveImager(small_config, seed=1234)


@pytest.fixture
def medium_imager(medium_config) -> CompressiveImager:
    """Imager built on the 32x32 configuration with a fixed seed."""
    return CompressiveImager(medium_config, seed=1234)


@pytest.fixture
def photo_conversion() -> PhotoConversion:
    """Noise-free photo conversion for deterministic pixel-level tests."""
    return PhotoConversion(prnu_sigma=0.0, shot_noise=False, seed=7)


@pytest.fixture
def blob_scene_16() -> np.ndarray:
    """A smooth 16x16 test scene."""
    return make_scene("blobs", (16, 16), seed=42)


@pytest.fixture
def blob_scene_32() -> np.ndarray:
    """A smooth 32x32 test scene."""
    return make_scene("blobs", (32, 32), seed=42)


@pytest.fixture
def natural_scene_64() -> np.ndarray:
    """A 1/f 'natural' 64x64 scene for the integration tests."""
    return make_scene("natural", (64, 64), seed=42)
