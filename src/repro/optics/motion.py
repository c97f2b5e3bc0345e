"""Moving synthetic scenes for multi-frame (video) experiments.

The video sequencer needs temporally-coherent input: scene content that moves
smoothly from frame to frame.  The generator here produces a short sequence
with controlled motion so the video examples and tests can reason about
frame-to-frame sample correlation.
"""

from __future__ import annotations


import numpy as np

from repro.utils.validation import check_positive


def orbiting_blob_sequence(
    n_frames: int,
    shape: tuple[int, int] = (64, 64),
    *,
    radius_fraction: float = 0.3,
    blob_sigma_fraction: float = 0.08,
    background: float = 0.1,
) -> list[np.ndarray]:
    """A bright Gaussian blob orbiting the image centre — a fully analytic sequence."""
    check_positive("n_frames", n_frames)
    rows, cols = shape
    row_axis = np.arange(rows)[:, None]
    col_axis = np.arange(cols)[None, :]
    radius = radius_fraction * min(rows, cols)
    sigma = blob_sigma_fraction * min(rows, cols)
    frames = []
    for index in range(int(n_frames)):
        angle = 2.0 * np.pi * index / max(1, n_frames)
        center_row = rows / 2.0 + radius * np.sin(angle)
        center_col = cols / 2.0 + radius * np.cos(angle)
        blob = np.exp(
            -((row_axis - center_row) ** 2 + (col_axis - center_col) ** 2) / (2.0 * sigma ** 2)
        )
        frames.append(np.clip(background + (1.0 - background) * blob, 0.0, 1.0))
    return frames
