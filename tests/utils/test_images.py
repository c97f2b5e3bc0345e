"""Tests for image manipulation helpers."""

import numpy as np
import pytest

from repro.utils.images import (
    block_view,
    image_to_vector,
    normalize_image,
    unblock_view,
)


class TestNormalizeImage:
    def test_maps_to_unit_interval(self):
        image = np.array([[2.0, 4.0], [6.0, 8.0]])
        normalized = normalize_image(image)
        assert normalized.min() == 0.0
        assert normalized.max() == 1.0

    def test_custom_range(self):
        normalized = normalize_image(np.array([[0.0, 1.0]]), low=10.0, high=20.0)
        assert normalized.min() == 10.0
        assert normalized.max() == 20.0

    def test_constant_image_maps_to_low(self):
        assert np.all(normalize_image(np.full((4, 4), 3.0)) == 0.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            normalize_image(np.zeros((2, 2)), low=1.0, high=0.0)


class TestImageToVector:
    def test_raster_order(self):
        image = np.array([[1, 2], [3, 4]])
        assert image_to_vector(image).tolist() == [1, 2, 3, 4]

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            image_to_vector(np.zeros((2, 2, 2)))


class TestBlockView:
    def test_round_trip(self):
        image = np.arange(64, dtype=float).reshape(8, 8)
        blocks = block_view(image, 4)
        assert blocks.shape == (4, 4, 4)
        assert np.array_equal(unblock_view(blocks, (8, 8)), image)

    def test_blocks_are_contiguous_regions(self):
        image = np.arange(16).reshape(4, 4)
        blocks = block_view(image, 2)
        assert np.array_equal(blocks[0], np.array([[0, 1], [4, 5]]))

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError):
            block_view(np.zeros((6, 6)), 4)

    def test_unblock_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            unblock_view(np.zeros((3, 2, 2)), (4, 4))
