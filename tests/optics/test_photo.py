"""Tests for the irradiance-to-photocurrent conversion."""

import numpy as np
import pytest

from repro.optics.photo import PhotoConversion
from repro.optics.scenes import list_scenes, make_scene


class TestPhotoConversion:
    def test_dark_scene_gives_dark_current(self):
        conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        current = conversion.convert(np.zeros((8, 8)))
        assert np.allclose(current, conversion.dark_current)

    def test_full_scale_scene_gives_full_scale_current(self):
        conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        current = conversion.convert(np.ones((8, 8)))
        expected = conversion.dark_current + conversion.full_scale_current
        assert np.allclose(current, expected)

    def test_linear_in_irradiance(self):
        conversion = PhotoConversion(
            full_scale_current=1e-9, dark_current=0.0, prnu_sigma=0.0, shot_noise=False
        )
        scene = np.array([[0.0, 0.5], [0.75, 1.0]])
        assert np.allclose(conversion.convert(scene), scene * 1e-9)

    @pytest.mark.parametrize("kind", list_scenes())
    def test_named_scenes_convert_to_positive_currents(self, kind):
        current = PhotoConversion().convert(make_scene(kind, (16, 16), seed=1), rng=1)
        assert current.shape == (16, 16)
        assert np.all(np.isfinite(current))
        assert np.all(current > 0)

    def test_monotonic_in_irradiance(self):
        conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        scene = np.linspace(0, 1, 64).reshape(8, 8)
        current = conversion.convert(scene)
        assert np.all(np.diff(current.reshape(-1)) >= 0)

    def test_scene_out_of_range_rejected(self):
        conversion = PhotoConversion()
        with pytest.raises(ValueError):
            conversion.convert(np.full((4, 4), 1.5))

    def test_non_2d_scene_rejected(self):
        with pytest.raises(ValueError):
            PhotoConversion().convert(np.zeros(16))

    def test_prnu_map_is_cached_and_deterministic(self):
        conversion = PhotoConversion(seed=3)
        assert conversion.prnu_map((8, 8)) is conversion.prnu_map((8, 8))
        other = PhotoConversion(seed=3)
        assert np.array_equal(conversion.prnu_map((8, 8)), other.prnu_map((8, 8)))

    def test_shot_noise_perturbs_but_preserves_scale(self):
        noiseless = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        noisy = PhotoConversion(prnu_sigma=0.0, shot_noise=True, seed=1)
        scene = np.full((16, 16), 0.5)
        clean = noiseless.convert(scene)
        observed = noisy.convert(scene)
        assert np.max(np.abs(observed - clean) / clean) > 1e-6
        assert np.isclose(clean.mean(), observed.mean(), rtol=0.05)

    def test_shot_noise_reproducible_for_fixed_rng(self):
        conversion = PhotoConversion(seed=9)
        scene = np.full((8, 8), 0.3)
        assert np.array_equal(conversion.convert(scene, rng=5), conversion.convert(scene, rng=5))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PhotoConversion(full_scale_current=-1.0)
        with pytest.raises(ValueError):
            PhotoConversion(integration_time=0.0)
