"""Tests for the synthetic scene generator."""

import numpy as np
import pytest

from repro.optics.scenes import list_scenes, make_scene


class TestMakeScene:
    @pytest.mark.parametrize("kind", list_scenes())
    def test_all_kinds_produce_valid_scenes(self, kind):
        scene = make_scene(kind, (32, 32), seed=1)
        assert scene.shape == (32, 32)
        assert scene.min() >= 0.0
        assert scene.max() <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scene kind"):
            make_scene("nonexistent")

    def test_reproducible_for_fixed_seed(self):
        assert np.array_equal(
            make_scene("natural", (32, 32), seed=7), make_scene("natural", (32, 32), seed=7)
        )

    def test_different_seeds_differ(self):
        a = make_scene("natural", (32, 32), seed=7)
        b = make_scene("natural", (32, 32), seed=8)
        assert not np.array_equal(a, b)

    def test_non_square_shapes_supported(self):
        assert make_scene("gradient", (16, 48), seed=1).shape == (16, 48)

    def test_points_scene_is_sparse(self):
        scene = make_scene("points", (64, 64), seed=3)
        bright = np.count_nonzero(scene > 0.5)
        assert bright < 30

    def test_natural_scene_has_energy_at_low_frequencies(self):
        """1/f scenes concentrate spectral energy near DC."""
        scene = make_scene("natural", (64, 64), seed=5)
        spectrum = np.abs(np.fft.fft2(scene - scene.mean()))
        low = spectrum[:8, :8].sum()
        high = spectrum[24:40, 24:40].sum()
        assert low > high

    def test_checkerboard_is_binary(self):
        scene = make_scene("checkerboard", (32, 32), seed=2)
        assert set(np.unique(scene)).issubset({0.0, 1.0})
