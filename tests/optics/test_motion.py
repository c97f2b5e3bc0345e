"""Tests for the moving-scene generator."""

import numpy as np
import pytest

from repro.optics.motion import orbiting_blob_sequence


class TestSequences:
    def test_orbiting_blob_moves(self):
        frames = orbiting_blob_sequence(8, (32, 32))
        centroids = []
        for frame in frames:
            rows, cols = np.indices(frame.shape)
            weight = frame - frame.min()
            centroids.append(
                (np.sum(rows * weight) / weight.sum(), np.sum(cols * weight) / weight.sum())
            )
        distinct = {(round(r, 1), round(c, 1)) for r, c in centroids}
        assert len(distinct) > 4

    def test_orbiting_blob_values_in_range(self):
        for frame in orbiting_blob_sequence(4, (16, 16)):
            assert frame.min() >= 0.0
            assert frame.max() <= 1.0

    def test_blob_follows_the_orbit(self):
        """Frame k's blob sits at angle 2πk/n on a circle of radius_fraction·min(shape)."""
        n_frames, shape = 8, (64, 64)
        frames = orbiting_blob_sequence(n_frames, shape, background=0.1)
        rows, cols = np.indices(shape)
        radius = 0.3 * 64
        for index, frame in enumerate(frames):
            weight = frame - 0.1
            centroid = np.array(
                [np.sum(rows * weight) / weight.sum(), np.sum(cols * weight) / weight.sum()]
            )
            angle = 2.0 * np.pi * index / n_frames
            expected = np.array([32 + radius * np.sin(angle), 32 + radius * np.cos(angle)])
            assert np.linalg.norm(centroid - expected) < 0.25

    def test_sequence_spans_one_full_orbit(self):
        """n frames cover one orbit, so a 2n-frame sequence revisits every frame at 2k."""
        short = orbiting_blob_sequence(8, (32, 32))
        long = orbiting_blob_sequence(16, (32, 32))
        for index, frame in enumerate(short):
            assert np.array_equal(frame, long[2 * index])

    def test_sequences_reject_zero_frames(self):
        with pytest.raises(ValueError):
            orbiting_blob_sequence(0)
