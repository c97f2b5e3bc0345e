"""Sparsifying dictionaries Ψ.

Compressive sampling recovers an image from few samples because the image is
sparse (or compressible) in some basis.  The dictionaries here are the two
work-horses for natural images — the 2-D DCT and the 2-D Haar wavelet — plus
the identity (for scenes that are sparse in the pixel domain, e.g. point
sources).  All dictionaries are orthonormal and separable.  The DCT applies
cached per-axis DCT-II matrices (two small GEMMs, ``D_r Z D_cᵀ``), the Haar
transform runs a lifting scheme, and each exposes the pair of maps the
solvers need:

* ``synthesize(coefficients) -> image``  (Ψ applied to a coefficient vector)
* ``analyze(image) -> coefficients``     (Ψ* applied to an image vector)

Vectors are flattened images in raster order; the dictionary knows the image
shape so callers never juggle reshapes.  The maps compute in float64, except
that a float32 operand stays float32 through the DCT: that is how the
mixed-precision CA products (:mod:`repro.cs.structured`) run Ψ.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from repro.utils.validation import check_positive, check_power_of_two


def as_float(array: np.ndarray) -> np.ndarray:
    """``array`` as float64, or as it is when it is already float32."""
    array = np.asarray(array)
    return array if array.dtype == np.float32 else np.asarray(array, dtype=float)


class Dictionary(abc.ABC):
    """Abstract orthonormal sparsifying dictionary for images of a fixed shape."""

    #: Declares ``Ψ* Ψ = I``, which the operator-norm power iteration
    #: exploits (``σ(Φ Ψ) = σ(Φ)``).  Deliberately ``False`` on the abstract
    #: base — a wrongly-claimed identity would silently mis-size the solver
    #: steps — and opted into by each shipped (orthonormal) dictionary.
    orthonormal = False

    def __init__(self, shape: tuple[int, int]) -> None:
        rows, cols = shape
        check_positive("rows", rows)
        check_positive("cols", cols)
        self.shape = (int(rows), int(cols))

    @property
    def n_pixels(self) -> int:
        """Dimension of the signal space."""
        return self.shape[0] * self.shape[1]

    # -- the two maps -----------------------------------------------------
    @abc.abstractmethod
    def synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        """Map a coefficient vector to an image vector (apply Ψ)."""

    @abc.abstractmethod
    def analyze(self, image: np.ndarray) -> np.ndarray:
        """Map an image vector to its coefficient vector (apply Ψ*)."""

    # -- helpers ----------------------------------------------------------
    def _check_vector(self, vector: np.ndarray, name: str) -> np.ndarray:
        vector = as_float(vector).reshape(-1)
        if vector.size != self.n_pixels:
            raise ValueError(
                f"{name} must have {self.n_pixels} entries, got {vector.size}"
            )
        return vector

    def to_image(self, vector: np.ndarray) -> np.ndarray:
        """Reshape a flat vector into the dictionary's image shape."""
        return self._check_vector(vector, "vector").reshape(self.shape)

    def atom(self, index: int) -> np.ndarray:
        """The ``index``-th dictionary atom as an image vector (a column of Ψ)."""
        if not 0 <= index < self.n_pixels:
            raise ValueError(f"atom index {index} outside 0..{self.n_pixels - 1}")
        coefficients = np.zeros(self.n_pixels)
        coefficients[index] = 1.0
        return self.synthesize(coefficients)

    # -- batched maps ------------------------------------------------------
    def _check_batch(self, batch: np.ndarray, name: str) -> np.ndarray:
        batch = as_float(batch)
        if batch.ndim != 2 or batch.shape[1] != self.n_pixels:
            raise ValueError(
                f"{name} must have shape (k, {self.n_pixels}), got {batch.shape}"
            )
        return batch

    def synthesize_batch(self, coefficients: np.ndarray) -> np.ndarray:
        """Apply Ψ to a ``(k, n_pixels)`` stack of coefficient vectors at once.

        Subclasses override this with a genuinely vectorised transform (one
        matrix DCT, one lifting pass over the whole stack); the base
        implementation is the reference row loop.
        """
        coefficients = self._check_batch(coefficients, "coefficients")
        if coefficients.shape[0] == 0:
            return coefficients.copy()
        return np.stack([self.synthesize(row) for row in coefficients])

    def analyze_batch(self, images: np.ndarray) -> np.ndarray:
        """Apply Ψ* to a ``(k, n_pixels)`` stack of image vectors at once."""
        images = self._check_batch(images, "images")
        if images.shape[0] == 0:
            return images.copy()
        return np.stack([self.analyze(row) for row in images])

    def atoms(self, indices: Iterable[int]) -> np.ndarray:
        """Dense ``(n_pixels, k)`` sub-matrix of Ψ for the given atom indices.

        Synthesised as **one** batched transform over a stack of unit
        coefficient vectors — this is what lets the greedy solvers build
        their support sub-matrices without a per-column Python loop.
        """
        indices = [int(index) for index in indices]
        for index in indices:
            if not 0 <= index < self.n_pixels:
                raise ValueError(
                    f"atom index {index} outside 0..{self.n_pixels - 1}"
                )
        units = np.zeros((len(indices), self.n_pixels))
        units[np.arange(len(indices)), indices] = 1.0
        return self.synthesize_batch(units).T

    def dense(self) -> np.ndarray:
        """Explicit Ψ matrix (columns are atoms).  Only sensible for small shapes."""
        return self.atoms(range(self.n_pixels))

    def sparsity_profile(
        self,
        image: np.ndarray,
        fractions: Sequence[float] = (0.01, 0.05, 0.1, 0.2),
    ) -> dict[float, float]:
        """Energy captured by the largest coefficients — how compressible the image is."""
        coefficients = self.analyze(np.asarray(image, dtype=float).reshape(-1))
        energy = np.sort(coefficients ** 2)[::-1]
        total = energy.sum()
        profile = {}
        for fraction in fractions:
            k = max(1, int(round(fraction * energy.size)))
            profile[fraction] = float(energy[:k].sum() / total) if total > 0 else 1.0
        return profile


class IdentityDictionary(Dictionary):
    """The pixel basis — for signals sparse in the image domain itself."""

    orthonormal = True

    def synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        return self._check_vector(coefficients, "coefficients").copy()

    def analyze(self, image: np.ndarray) -> np.ndarray:
        return self._check_vector(image, "image").copy()

    def synthesize_batch(self, coefficients: np.ndarray) -> np.ndarray:
        return self._check_batch(coefficients, "coefficients").copy()

    def analyze_batch(self, images: np.ndarray) -> np.ndarray:
        return self._check_batch(images, "images").copy()


@lru_cache(maxsize=None)
def dct_matrix(size: int, dtype: np.dtype | type = np.float64) -> np.ndarray:
    """The orthonormal DCT-II matrix ``D`` of one axis: ``dct(x, norm="ortho") = D x``.

    Built in float64 on first use, rounded to ``dtype`` and cached per side
    length and dtype, shared read-only, so a transform costs two small GEMMs
    and no FFT planning or dispatch.
    """
    check_positive("size", size)
    index = np.arange(size)
    matrix = np.sqrt(2.0 / size) * np.cos(
        np.pi * np.outer(index, 2 * index + 1) / (2 * size)
    )
    matrix[0] /= np.sqrt(2.0)
    matrix = matrix.astype(dtype, copy=False)
    matrix.flags.writeable = False
    return matrix


class DCT2Dictionary(Dictionary):
    """Orthonormal 2-D discrete cosine transform (type II, 'ortho' scaling).

    Every map — solo or batched, forward or inverse — is the one matmul
    chain ``D_r Z D_cᵀ`` (or its transpose) over a ``(..., rows, cols)``
    stack, so a tile's bytes do not depend on the stack it rides in.  The
    chain runs in the stack's dtype: float32 operands meet float32 DCT
    matrices.
    """

    orthonormal = True

    def _transform(self, stack: np.ndarray, *, inverse: bool) -> np.ndarray:
        row_matrix = dct_matrix(self.shape[0], stack.dtype)
        col_matrix = dct_matrix(self.shape[1], stack.dtype)
        if inverse:
            return row_matrix.T @ stack @ col_matrix
        return row_matrix @ stack @ col_matrix.T

    def synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        coefficients = self._check_vector(coefficients, "coefficients")
        return self._transform(coefficients.reshape(self.shape), inverse=True).reshape(-1)

    def analyze(self, image: np.ndarray) -> np.ndarray:
        image = self._check_vector(image, "image")
        return self._transform(image.reshape(self.shape), inverse=False).reshape(-1)

    def synthesize_batch(self, coefficients: np.ndarray) -> np.ndarray:
        coefficients = self._check_batch(coefficients, "coefficients")
        stack = coefficients.reshape(-1, *self.shape)
        return self._transform(stack, inverse=True).reshape(coefficients.shape)

    def analyze_batch(self, images: np.ndarray) -> np.ndarray:
        images = self._check_batch(images, "images")
        stack = images.reshape(-1, *self.shape)
        return self._transform(stack, inverse=False).reshape(images.shape)


class Haar2Dictionary(Dictionary):
    """Orthonormal 2-D Haar wavelet transform (full decomposition).

    Implemented directly (separable lifting on rows then columns, repeated on
    the low-pass quadrant) so no external wavelet package is needed.  Image
    dimensions must be powers of two, which they are for the 64x64 sensor and
    the 8/16/32 block sizes used by the block-CS baseline.
    """

    orthonormal = True

    def __init__(self, shape: tuple[int, int]) -> None:
        super().__init__(shape)
        check_power_of_two("rows", self.shape[0])
        check_power_of_two("cols", self.shape[1])
        self.levels = int(np.log2(min(self.shape)))

    @staticmethod
    def _haar_forward_1d(data: np.ndarray, axis: int) -> np.ndarray:
        data = np.moveaxis(data, axis, 0)
        n = data.shape[0]
        averages = (data[0:n:2] + data[1:n:2]) / np.sqrt(2.0)
        details = (data[0:n:2] - data[1:n:2]) / np.sqrt(2.0)
        stacked = np.concatenate([averages, details], axis=0)
        return np.moveaxis(stacked, 0, axis)

    @staticmethod
    def _haar_inverse_1d(data: np.ndarray, axis: int) -> np.ndarray:
        data = np.moveaxis(data, axis, 0)
        n = data.shape[0]
        averages = data[: n // 2]
        details = data[n // 2:]
        evens = (averages + details) / np.sqrt(2.0)
        odds = (averages - details) / np.sqrt(2.0)
        interleaved = np.empty_like(data)
        interleaved[0:n:2] = evens
        interleaved[1:n:2] = odds
        return np.moveaxis(interleaved, 0, axis)

    def _analyze_stack(self, stack: np.ndarray) -> np.ndarray:
        """Forward transform on a ``(..., rows, cols)`` stack, in place."""
        coefficients = stack.astype(float).copy()
        rows, cols = self.shape
        for _ in range(self.levels):
            block = coefficients[..., :rows, :cols]
            block = self._haar_forward_1d(block, axis=-2)
            block = self._haar_forward_1d(block, axis=-1)
            coefficients[..., :rows, :cols] = block
            rows //= 2
            cols //= 2
            if rows < 2 or cols < 2:
                break
        return coefficients

    def _synthesize_stack(self, stack: np.ndarray) -> np.ndarray:
        """Inverse transform on a ``(..., rows, cols)`` stack, in place."""
        image = stack.astype(float).copy()
        # Determine the sizes visited by the forward pass, smallest first.
        sizes = []
        rows, cols = self.shape
        for _ in range(self.levels):
            sizes.append((rows, cols))
            rows //= 2
            cols //= 2
            if rows < 2 or cols < 2:
                break
        for rows, cols in reversed(sizes):
            block = image[..., :rows, :cols]
            block = self._haar_inverse_1d(block, axis=-1)
            block = self._haar_inverse_1d(block, axis=-2)
            image[..., :rows, :cols] = block
        return image

    def analyze(self, image: np.ndarray) -> np.ndarray:
        image = self._check_vector(image, "image")
        return self._analyze_stack(image.reshape(self.shape)).reshape(-1)

    def synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        coefficients = self._check_vector(coefficients, "coefficients")
        return self._synthesize_stack(coefficients.reshape(self.shape)).reshape(-1)

    def synthesize_batch(self, coefficients: np.ndarray) -> np.ndarray:
        coefficients = self._check_batch(coefficients, "coefficients")
        if coefficients.shape[0] == 0:
            return coefficients.copy()
        stack = coefficients.reshape(-1, *self.shape)
        return self._synthesize_stack(stack).reshape(coefficients.shape)

    def analyze_batch(self, images: np.ndarray) -> np.ndarray:
        images = self._check_batch(images, "images")
        if images.shape[0] == 0:
            return images.copy()
        stack = images.reshape(-1, *self.shape)
        return self._analyze_stack(stack).reshape(images.shape)


_DICTIONARIES = {
    "identity": IdentityDictionary,
    "dct": DCT2Dictionary,
    "haar": Haar2Dictionary,
}


def make_dictionary(name: str, shape: tuple[int, int]) -> Dictionary:
    """Factory: build a dictionary by name (``identity``, ``dct`` or ``haar``)."""
    key = name.lower()
    if key not in _DICTIONARIES:
        raise ValueError(
            f"unknown dictionary {name!r}; choose from {sorted(_DICTIONARIES)}"
        )
    return _DICTIONARIES[key](shape)
