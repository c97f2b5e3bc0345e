"""Block-based compressive sampling — the baseline the paper argues against.

Block-based CS (Gan 2007; the paper's refs [6][7][8][11]) divides the image
into ``B x B`` macro-blocks and applies an independent (usually shared)
measurement matrix to each block.  It slashes the size of Φ and the dynamic
range of the samples, at the cost of reconstruction quality: each block is
less sparse relative to its dimension than the full frame, and block
boundaries show.  The paper's conclusions frame the full-frame-vs-block
comparison as the experiment the prototype enables; benchmark E9 runs it in
simulation.

:class:`BlockCompressiveSampler` implements measurement and reconstruction:

* measurement: the same Bernoulli(1/2) 0/1 matrix applied to every block
  (sharing the matrix is what real block-CS imagers do to save storage);
* reconstruction: per-block sparse recovery in a per-block DCT dictionary,
  with measurement centring (the DC of each block is estimated from the
  sample mean, exactly as in the full-frame pipeline) and optional smoothing
  of block seams.
"""

from __future__ import annotations


import numpy as np

from repro.ca.selection import ca_measurement_matrix
from repro.cs.dictionaries import Dictionary, make_dictionary
from repro.cs.matrices import bernoulli_matrix
from repro.cs.operators import SensingOperator
from repro.cs.solvers import fista, omp
from repro.utils.images import block_view, unblock_view
from repro.utils.rng import SeedLike, nonzero_seed_bits
from repro.utils.validation import check_choice, check_in_range, check_positive


class BlockCompressiveSampler:
    """Block-based compressive sampling of a full image.

    Parameters
    ----------
    image_shape:
        Full image dimensions; must be divisible by ``block_size``.
    block_size:
        Macro-block side; the paper notes 8x8 as the minimum practical size.
    compression_ratio:
        Measurements per pixel (the same budget definition as the full-frame
        strategy, so comparisons are per-bit fair at the sample level).
    dictionary:
        Per-block sparsifying dictionary name (``dct`` by default).
    matrix:
        Shared per-block measurement ensemble: ``"bernoulli"`` (the classic
        block-CS choice) or ``"ca"`` — a Rule 30 selection matrix built by
        the same batched Φ builder the full-frame sensor and receiver use
        (:func:`repro.ca.selection.ca_measurement_matrix`), so block-CS can
        be compared against the paper's strategy with an identical ensemble.
    seed:
        Seed for the shared per-block measurement matrix.
    """

    def __init__(
        self,
        image_shape: tuple[int, int] = (64, 64),
        *,
        block_size: int = 8,
        compression_ratio: float = 0.4,
        dictionary: str = "dct",
        matrix: str = "bernoulli",
        seed: SeedLike = 2018,
    ) -> None:
        rows, cols = image_shape
        check_positive("rows", rows)
        check_positive("cols", cols)
        check_positive("block_size", block_size)
        check_in_range("compression_ratio", compression_ratio, 0.0, 1.0, inclusive=False)
        if rows % block_size or cols % block_size:
            raise ValueError(
                f"image shape {image_shape} is not divisible by block_size {block_size}"
            )
        self.image_shape = (int(rows), int(cols))
        self.block_size = int(block_size)
        self.compression_ratio = float(compression_ratio)
        self.n_block_pixels = self.block_size ** 2
        self.samples_per_block = max(1, int(round(self.compression_ratio * self.n_block_pixels)))
        self.dictionary: Dictionary = make_dictionary(
            dictionary, (self.block_size, self.block_size)
        )
        check_choice("matrix", matrix, ("bernoulli", "ca"))
        self.matrix = matrix
        if matrix == "ca" and self.block_size < 2:
            raise ValueError(
                "matrix='ca' needs block_size >= 2: the selection CA ring has "
                "2 * block_size cells and a cellular automaton needs at least 3"
            )
        if matrix == "ca":
            self.phi_block = ca_measurement_matrix(
                self.samples_per_block,
                self.block_size,
                self.block_size,
                nonzero_seed_bits(2 * self.block_size, seed),
                warmup_steps=8,
            ).astype(np.float64)
        else:
            self.phi_block = bernoulli_matrix(
                self.samples_per_block, self.n_block_pixels, density=0.5, seed=seed
            ).astype(np.float64)

    # ---------------------------------------------------------------- sizes
    @property
    def n_blocks(self) -> int:
        """Number of macro-blocks in the image."""
        rows, cols = self.image_shape
        return (rows // self.block_size) * (cols // self.block_size)

    @property
    def total_samples(self) -> int:
        """Total measurements over the whole image."""
        return self.n_blocks * self.samples_per_block

    # -------------------------------------------------------------- measure
    def measure(self, image: np.ndarray) -> np.ndarray:
        """Measure every block; returns an ``(n_blocks, samples_per_block)`` array."""
        image = np.asarray(image, dtype=float)
        if image.shape != self.image_shape:
            raise ValueError(
                f"image shape {image.shape} does not match {self.image_shape}"
            )
        blocks = block_view(image, self.block_size)
        flattened = blocks.reshape(self.n_blocks, self.n_block_pixels)
        return flattened @ self.phi_block.T

    # --------------------------------------------------------- reconstruct
    def reconstruct(
        self,
        samples: np.ndarray,
        *,
        solver: str = "fista",
        regularization: float | None = None,
        sparsity: int | None = None,
        max_iterations: int = 150,
    ) -> np.ndarray:
        """Reconstruct the full image from per-block samples.

        Parameters
        ----------
        solver:
            ``"fista"`` (l1) or ``"omp"`` (greedy, needs ``sparsity``).
        regularization:
            FISTA l1 weight.  When omitted it is scaled to each block's
            centred sample magnitude, which keeps one default working across
            pixel depths and compression ratios.
        sparsity:
            OMP sparsity target per block; defaults to a quarter of the
            per-block measurement count.
        """
        check_choice("solver", solver, ("fista", "omp"))
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (self.n_blocks, self.samples_per_block):
            raise ValueError(
                f"samples must have shape {(self.n_blocks, self.samples_per_block)}, "
                f"got {samples.shape}"
            )
        density = float(self.phi_block.mean())
        centered_phi = self.phi_block - density
        operator = SensingOperator(centered_phi, self.dictionary)
        if sparsity is None:
            sparsity = max(1, self.samples_per_block // 4)

        reconstructed_blocks = np.empty((self.n_blocks, self.block_size, self.block_size))
        for index in range(self.n_blocks):
            block_samples = samples[index]
            # Estimate the block DC from the sample mean: E[y] = density * sum(x).
            dc_sum = float(block_samples.mean() / density) if density > 0 else 0.0
            centered = block_samples - density * dc_sum
            if solver == "fista":
                block_regularization = regularization
                if block_regularization is None:
                    block_regularization = 0.02 * float(np.abs(centered).max() + 1.0)
                result = fista(
                    operator,
                    centered,
                    regularization=block_regularization,
                    max_iterations=max_iterations,
                )
            else:
                result = omp(operator, centered, sparsity=int(sparsity))
            block_image = operator.coefficients_to_image(result.coefficients)
            # Restore the DC level removed by the centring step.
            block_image = block_image - block_image.mean() + dc_sum / self.n_block_pixels
            reconstructed_blocks[index] = block_image
        return unblock_view(reconstructed_blocks, self.image_shape)

    # ------------------------------------------------------------ reporting
    def describe(self) -> dict[str, float]:
        """Summary of the block-CS configuration (used by the E9 benchmark)."""
        return {
            "block_size": float(self.block_size),
            "n_blocks": float(self.n_blocks),
            "samples_per_block": float(self.samples_per_block),
            "total_samples": float(self.total_samples),
            "compression_ratio": float(
                self.total_samples / (self.image_shape[0] * self.image_shape[1])
            ),
            "phi_storage_bits": float(self.phi_block.size),
        }
