"""Tests for deterministic RNG helpers."""

import numpy as np
import pytest

from repro.utils.rng import derive_seed, new_rng, nonzero_seed_bits


class TestNewRng:
    def test_same_seed_same_stream(self):
        assert new_rng(7).random() == new_rng(7).random()

    def test_different_seeds_differ(self):
        assert new_rng(7).random() != new_rng(8).random()

    def test_passthrough_generator(self):
        generator = np.random.default_rng(3)
        assert new_rng(generator) is generator


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "scene", 5) == derive_seed(1, "scene", 5)

    def test_labels_matter(self):
        assert derive_seed(1, "scene") != derive_seed(1, "noise")

    def test_base_seed_matters(self):
        assert derive_seed(1, "scene") != derive_seed(2, "scene")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


class TestNonzeroSeedBits:
    def test_always_has_a_set_bit(self):
        for seed in range(30):
            assert nonzero_seed_bits(8, seed).any()

    def test_reproducible(self):
        assert np.array_equal(nonzero_seed_bits(32, 5), nonzero_seed_bits(32, 5))

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            nonzero_seed_bits(0)
