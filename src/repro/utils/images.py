"""Image manipulation helpers shared by the optics, CS and reconstruction packages."""

from __future__ import annotations


import numpy as np


def normalize_image(image: np.ndarray, *, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Affinely rescale ``image`` so its minimum maps to ``low`` and maximum to ``high``.

    A constant image maps to ``low`` everywhere.
    """
    image = np.asarray(image, dtype=float)
    if high <= low:
        raise ValueError(f"high ({high}) must exceed low ({low})")
    span = image.max() - image.min()
    if span == 0:
        return np.full_like(image, low)
    return (image - image.min()) / span * (high - low) + low


def image_to_vector(image: np.ndarray) -> np.ndarray:
    """Flatten a 2-D image into a 1-D vector in row-major (raster) order."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got {image.ndim} dimensions")
    return image.reshape(-1)


def block_view(image: np.ndarray, block_size: int) -> np.ndarray:
    """Split ``image`` into non-overlapping ``block_size x block_size`` blocks.

    Returns an array of shape ``(n_blocks, block_size, block_size)`` where the
    blocks are ordered in raster order.  The image dimensions must be exact
    multiples of ``block_size``.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got {image.ndim} dimensions")
    rows, cols = image.shape
    if rows % block_size or cols % block_size:
        raise ValueError(
            f"image shape {image.shape} is not divisible by block_size {block_size}"
        )
    reshaped = image.reshape(rows // block_size, block_size, cols // block_size, block_size)
    return reshaped.transpose(0, 2, 1, 3).reshape(-1, block_size, block_size)


def unblock_view(blocks: np.ndarray, image_shape: tuple[int, int]) -> np.ndarray:
    """Reassemble blocks produced by :func:`block_view` into a full image."""
    blocks = np.asarray(blocks)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError("blocks must have shape (n_blocks, b, b)")
    block_size = blocks.shape[1]
    rows, cols = image_shape
    if rows % block_size or cols % block_size:
        raise ValueError(
            f"image shape {image_shape} is not divisible by block size {block_size}"
        )
    n_expected = (rows // block_size) * (cols // block_size)
    if blocks.shape[0] != n_expected:
        raise ValueError(
            f"expected {n_expected} blocks for shape {image_shape}, got {blocks.shape[0]}"
        )
    grid = blocks.reshape(rows // block_size, cols // block_size, block_size, block_size)
    return grid.transpose(0, 2, 1, 3).reshape(rows, cols)
