"""Synthetic test-scene generation.

Compressive-sampling reconstruction quality depends on how sparse the scene
is under the chosen dictionary, so the generator provides a spread of
sparsity regimes:

* ``gradient`` / ``bars`` / ``checkerboard`` — highly structured, very sparse
  in DCT; the easy end of the range.
* ``blobs`` / ``natural`` — piecewise-smooth and 1/f-spectrum scenes that
  mimic the statistics of natural images (the paper's motivating workload).
* ``points`` — a few bright point sources on a dark background; sparse in the
  pixel basis, the classic CS phantom.
* ``text`` — high-contrast glyph-like rectangles, an edge-dominated scene.

All scenes are returned normalised to ``[0, 1]`` relative irradiance.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.utils.images import normalize_image
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive


def _gradient(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    rows, cols = shape
    angle = rng.uniform(0.0, 2.0 * np.pi)
    row_axis = np.linspace(-1.0, 1.0, rows)[:, None]
    col_axis = np.linspace(-1.0, 1.0, cols)[None, :]
    return normalize_image(np.cos(angle) * row_axis + np.sin(angle) * col_axis)


def _bars(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    rows, cols = shape
    period = int(rng.integers(4, max(5, cols // 4)))
    phase = float(rng.uniform(0.0, period))
    horizontal = bool(rng.integers(2))
    axis = np.arange(cols if horizontal else rows)
    stripe = ((axis + phase) // period % 2).astype(float)
    if horizontal:
        return np.tile(stripe, (rows, 1))
    return np.tile(stripe[:, None], (1, cols))


def _checkerboard(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    rows, cols = shape
    cell = int(rng.integers(2, max(3, min(rows, cols) // 4)))
    row_idx = (np.arange(rows) // cell)[:, None]
    col_idx = (np.arange(cols) // cell)[None, :]
    return ((row_idx + col_idx) % 2).astype(float)


def _blobs(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    rows, cols = shape
    n_blobs = int(rng.integers(3, 8))
    row_axis = np.arange(rows)[:, None]
    col_axis = np.arange(cols)[None, :]
    image = np.zeros(shape, dtype=float)
    for _ in range(n_blobs):
        center_row = rng.uniform(0, rows)
        center_col = rng.uniform(0, cols)
        sigma = rng.uniform(min(rows, cols) / 16.0, min(rows, cols) / 4.0)
        amplitude = rng.uniform(0.3, 1.0)
        image += amplitude * np.exp(
            -((row_axis - center_row) ** 2 + (col_axis - center_col) ** 2)
            / (2.0 * sigma ** 2)
        )
    return normalize_image(image)


def _natural(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """1/f-spectrum random field — the standard natural-image surrogate."""
    rows, cols = shape
    freq_rows = np.fft.fftfreq(rows)[:, None]
    freq_cols = np.fft.fftfreq(cols)[None, :]
    radius = np.sqrt(freq_rows ** 2 + freq_cols ** 2)
    radius[0, 0] = 1.0
    spectrum = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / radius
    spectrum[0, 0] = 0.0
    field = np.real(np.fft.ifft2(spectrum))
    return normalize_image(field)


def _points(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    rows, cols = shape
    n_points = int(rng.integers(5, 20))
    image = np.full(shape, 0.05, dtype=float)
    for _ in range(n_points):
        row = int(rng.integers(rows))
        col = int(rng.integers(cols))
        image[row, col] = rng.uniform(0.7, 1.0)
    return image


def _text(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    rows, cols = shape
    image = np.full(shape, 0.9, dtype=float)
    n_strokes = int(rng.integers(8, 20))
    for _ in range(n_strokes):
        top = int(rng.integers(0, max(1, rows - 4)))
        left = int(rng.integers(0, max(1, cols - 4)))
        height = int(rng.integers(1, 4))
        width = int(rng.integers(2, max(3, cols // 6)))
        if rng.integers(2):
            height, width = width, height
        image[top:top + height, left:left + width] = 0.1
    return image


_SCENE_BUILDERS: dict[str, Callable[[tuple[int, int], np.random.Generator], np.ndarray]] = {
    "gradient": _gradient,
    "bars": _bars,
    "checkerboard": _checkerboard,
    "blobs": _blobs,
    "natural": _natural,
    "points": _points,
    "text": _text,
}


def list_scenes() -> list[str]:
    """Names of the available synthetic scene kinds."""
    return sorted(_SCENE_BUILDERS)


def make_scene(
    kind: str,
    shape: tuple[int, int] = (64, 64),
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Generate one scene of the given ``kind`` normalised to ``[0, 1]``."""
    if kind not in _SCENE_BUILDERS:
        raise ValueError(f"unknown scene kind {kind!r}; choose from {list_scenes()}")
    rows, cols = shape
    check_positive("rows", rows)
    check_positive("cols", cols)
    rng = new_rng(seed)
    scene = _SCENE_BUILDERS[kind]((int(rows), int(cols)), rng)
    return np.clip(scene, 0.0, 1.0)
