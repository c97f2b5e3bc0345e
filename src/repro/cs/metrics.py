"""Image-quality and recovery metrics used throughout the benchmarks."""

from __future__ import annotations


import numpy as np

from repro.utils.validation import check_positive


def _as_pair(
    reference: np.ndarray, estimate: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise ValueError(
            f"reference shape {reference.shape} and estimate shape {estimate.shape} differ"
        )
    if reference.size == 0:
        raise ValueError("arrays must be non-empty")
    return reference, estimate


def mse(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Mean squared error."""
    reference, estimate = _as_pair(reference, estimate)
    return float(np.mean((reference - estimate) ** 2))


def nmse(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Normalised MSE: ``||x - x̂||² / ||x||²``."""
    reference, estimate = _as_pair(reference, estimate)
    denominator = float(np.sum(reference ** 2))
    if denominator == 0.0:
        return float(np.sum(estimate ** 2) > 0)
    return float(np.sum((reference - estimate) ** 2) / denominator)


def psnr(
    reference: np.ndarray, estimate: np.ndarray, *, data_range: float | None = None
) -> float:
    """Peak signal-to-noise ratio in dB.

    ``data_range`` defaults to the dynamic range of the reference (max-min),
    or 1.0 for a constant reference.
    """
    reference, estimate = _as_pair(reference, estimate)
    error = mse(reference, estimate)
    if data_range is None:
        data_range = float(reference.max() - reference.min())
        if data_range == 0.0:
            data_range = 1.0
    check_positive("data_range", data_range)
    if error == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range ** 2 / error))


def reconstruction_snr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Reconstruction SNR in dB: ``10 log10(||x||² / ||x - x̂||²)``."""
    value = nmse(reference, estimate)
    if value == 0.0:
        return float("inf")
    return float(-10.0 * np.log10(value))


def ssim(
    reference: np.ndarray,
    estimate: np.ndarray,
    *,
    data_range: float | None = None,
    window: int = 8,
) -> float:
    """Mean structural similarity over non-overlapping windows.

    A compact SSIM implementation (non-overlapping square windows, uniform
    weighting) — adequate for ranking reconstructions, which is all the
    benchmarks need.
    """
    reference, estimate = _as_pair(reference, estimate)
    if reference.ndim != 2:
        raise ValueError("ssim expects 2-D images")
    check_positive("window", window)
    if data_range is None:
        data_range = float(reference.max() - reference.min())
        if data_range == 0.0:
            data_range = 1.0
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    rows, cols = reference.shape
    window = int(min(window, rows, cols))
    scores = []
    for top in range(0, rows - window + 1, window):
        for left in range(0, cols - window + 1, window):
            ref_block = reference[top:top + window, left:left + window]
            est_block = estimate[top:top + window, left:left + window]
            mu_x = ref_block.mean()
            mu_y = est_block.mean()
            var_x = ref_block.var()
            var_y = est_block.var()
            cov = ((ref_block - mu_x) * (est_block - mu_y)).mean()
            numerator = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
            denominator = (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
            scores.append(numerator / denominator)
    if not scores:
        raise ValueError("image smaller than the SSIM window")
    return float(np.mean(scores))
