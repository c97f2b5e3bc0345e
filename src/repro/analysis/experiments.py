"""Shared experiment harness for the reconstruction benchmarks.

The evaluation benchmarks (E8 timing error, E9 full-frame vs block, E10
matrix quality) all follow the same pattern: pick scenes, encode them with a
measurement strategy, reconstruct, score.  Keeping that loop here keeps every
benchmark file short and guarantees they all score reconstructions the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.cs.block import BlockCompressiveSampler
from repro.cs.matrices import bernoulli_matrix, ca_xor_matrix, gaussian_matrix, lfsr_matrix
from repro.cs.metrics import psnr, reconstruction_snr, ssim
from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_samples
from repro.utils.images import image_to_vector
from repro.utils.rng import derive_seed
from repro.utils.validation import check_in_range, check_positive


@dataclass
class ExperimentRecord:
    """One (scene, strategy, ratio) reconstruction outcome."""

    scene: str
    strategy: str
    compression_ratio: float
    n_samples: int
    psnr_db: float
    snr_db: float
    ssim: float
    extra: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """Flatten to a plain dictionary (for table printing)."""
        row = {
            "scene": self.scene,
            "strategy": self.strategy,
            "compression_ratio": self.compression_ratio,
            "n_samples": self.n_samples,
            "psnr_db": self.psnr_db,
            "snr_db": self.snr_db,
            "ssim": self.ssim,
        }
        row.update(self.extra)
        return row


def _quantize_image(scene: np.ndarray, pixel_bits: int) -> np.ndarray:
    """Map a [0, 1] scene to the integer code range the sensor works in."""
    levels = (1 << pixel_bits) - 1
    return np.round(np.clip(scene, 0.0, 1.0) * levels)


def reconstruction_experiment(
    scene_kind: str,
    strategy: str,
    compression_ratio: float,
    *,
    image_shape=(64, 64),
    pixel_bits: int = 8,
    dictionary: str = "dct",
    solver: str = "fista",
    max_iterations: int = 150,
    block_size: int = 8,
    seed: int = 2018,
) -> ExperimentRecord:
    """Encode one scene with one measurement strategy and score the reconstruction.

    Strategies: ``ca-xor`` (the paper), ``bernoulli`` (dense random 0/1),
    ``gaussian`` (dense Gaussian), ``lfsr`` (LFSR-driven XOR selection) and
    ``block-<B>`` / ``block`` (block-based CS with ``block_size`` blocks).
    """
    check_in_range("compression_ratio", compression_ratio, 0.0, 1.0, inclusive=False)
    check_positive("pixel_bits", pixel_bits)
    scene = make_scene(scene_kind, image_shape, seed=derive_seed(seed, "scene", scene_kind))
    image = _quantize_image(scene, pixel_bits)
    n_pixels = image.size
    n_samples = max(1, int(round(compression_ratio * n_pixels)))
    vector = image_to_vector(image)

    if strategy.startswith("block"):
        if "-" in strategy:
            block_size = int(strategy.split("-", 1)[1])
        sampler = BlockCompressiveSampler(
            image_shape,
            block_size=block_size,
            compression_ratio=compression_ratio,
            dictionary=dictionary,
            seed=derive_seed(seed, "phi", strategy),
        )
        samples = sampler.measure(image)
        reconstruction = sampler.reconstruct(samples, max_iterations=max_iterations)
        record_samples = sampler.total_samples
        extra = {"block_size": float(sampler.block_size)}
    else:
        phi = _make_matrix(
            strategy, n_samples, image_shape, seed=derive_seed(seed, "phi", strategy)
        )
        samples = phi @ vector
        result = reconstruct_samples(
            phi,
            samples,
            image_shape,
            dictionary=dictionary,
            solver=solver,
            max_iterations=max_iterations,
            reference=image,
        )
        reconstruction = result.image
        record_samples = n_samples
        extra = {"solver_iterations": float(result.solver_result.n_iterations)}

    return ExperimentRecord(
        scene=scene_kind,
        strategy=strategy,
        compression_ratio=float(compression_ratio),
        n_samples=int(record_samples),
        psnr_db=psnr(image, reconstruction),
        snr_db=reconstruction_snr(image, reconstruction),
        ssim=ssim(image, reconstruction),
        extra=extra,
    )


def _make_matrix(strategy: str, n_samples: int, image_shape, *, seed: int) -> np.ndarray:
    rows, cols = image_shape
    n_pixels = rows * cols
    if strategy == "ca-xor":
        return ca_xor_matrix(n_samples, image_shape, seed=seed)
    if strategy == "bernoulli":
        return bernoulli_matrix(n_samples, n_pixels, seed=seed)
    if strategy == "gaussian":
        return gaussian_matrix(n_samples, n_pixels, seed=seed)
    if strategy == "lfsr":
        return lfsr_matrix(n_samples, image_shape, seed=seed)
    raise ValueError(
        f"unknown strategy {strategy!r}; expected ca-xor, bernoulli, gaussian, lfsr or block[-B]"
    )


def sweep_compression_ratio(
    scene_kinds: Sequence[str],
    strategies: Sequence[str],
    ratios: Sequence[float],
    **kwargs,
) -> list[ExperimentRecord]:
    """Cartesian sweep over scenes, strategies and compression ratios."""
    records = []
    for scene_kind in scene_kinds:
        for strategy in strategies:
            for ratio in ratios:
                records.append(
                    reconstruction_experiment(scene_kind, strategy, ratio, **kwargs)
                )
    return records


def strategy_comparison(
    records: Sequence[ExperimentRecord],
) -> dict[str, dict[float, float]]:
    """Average PSNR per strategy per compression ratio (the E9 summary table)."""
    accumulator: dict[str, dict[float, list[float]]] = {}
    for record in records:
        accumulator.setdefault(record.strategy, {}).setdefault(
            record.compression_ratio, []
        ).append(record.psnr_db)
    return {
        strategy: {ratio: float(np.mean(values)) for ratio, values in ratios.items()}
        for strategy, ratios in accumulator.items()
    }
