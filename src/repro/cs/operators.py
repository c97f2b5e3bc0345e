"""The sensing operator A = Φ Ψ used by the reconstruction solvers.

Solvers work in the coefficient domain: they look for a sparse coefficient
vector ``z`` such that ``Φ Ψ z ≈ y``.  Two interchangeable implementations
expose the products the solvers need:

* :class:`SensingOperator` — the dense executable reference: Φ is an explicit
  ``(m, n)`` matrix (possibly centred) and every product is a matmul.
* :class:`~repro.cs.structured.StructuredSensingOperator` — the matrix-free
  fast path for CA-XOR matrices, which computes the same products from the
  rank-structured factor pair ``(R, C)`` without ever materialising Φ.

Both derive from :class:`BaseSensingOperator`, which fixes the contract:

* ``matvec(z)``  — ``Φ Ψ z``
* ``rmatvec(y)`` — ``Ψ* Φ* y``
* ``phi_dot(x)`` — ``Φ x`` on a raw pixel vector (no dictionary)
* ``columns(S)`` — a dense sub-matrix of A (what :meth:`dense` stacks)
* ``operator_norm()`` — the largest singular value that sizes the steps

``operator_norm`` returns :attr:`~BaseSensingOperator.norm_estimate` when the
builder attached one, and costs no product then.
:func:`repro.recon.operator.frame_operator` attaches it to every CA frame,
from the random-matrix spectrum edge
(:func:`~repro.recon.operator.ca_norm_estimate`).  Other operators (Gaussian,
LFSR, explicit matrices) run :func:`power_iteration` once per instance.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.cs.dictionaries import Dictionary, IdentityDictionary


def _default_dictionary(n_pixels: int) -> Dictionary:
    side = int(round(np.sqrt(n_pixels)))
    if side * side == n_pixels:
        return IdentityDictionary((side, side))
    # Generic 1-D signal: treat it as an n x 1 'image'.
    return IdentityDictionary((n_pixels, 1))


class BaseSensingOperator:
    """Abstract linear operator ``A = Φ Ψ`` acting on coefficient vectors.

    Subclasses implement :meth:`matvec`, :meth:`rmatvec`, :meth:`phi_dot`
    and :meth:`phi_dot_columns`; everything else — shapes, column
    extraction, the memoised power-iteration norm, the image
    conveniences — is shared, so the dense reference and the matrix-free
    fast path cannot drift in behaviour.
    """

    #: Power-iteration defaults for the step-size estimate of operators
    #: without a :attr:`norm_estimate`.  The tolerance is tight enough that
    #: typical operators run the full iteration budget, which keeps the
    #: dense and structured flavours' estimates in bit-level agreement.
    NORM_ITERATIONS = 50
    NORM_TOLERANCE = 1e-6

    #: Dtype the dictionary transforms of :meth:`matvec` / :meth:`rmatvec`
    #: run in; both products return float64 whatever it is.  The
    #: mixed-precision structured operator lowers it to float32.
    transform_dtype: type = np.float64

    def __init__(self, n_samples: int, dictionary: Dictionary) -> None:
        self._n_samples = int(n_samples)
        self.dictionary = dictionary
        self._norm_cache: dict[tuple[int, int, float], float] = {}
        #: A closed-form σ estimate that replaces the power iteration
        #: (attached by :func:`repro.recon.operator.frame_operator` to CA
        #: frames).  It is an estimate, not a bound the solvers trust
        #: blindly: the proximal solvers backtrack whenever a step fails
        #: the sufficient-decrease test.
        self.norm_estimate: float | None = None

    # -------------------------------------------------------------- shapes
    @property
    def n_samples(self) -> int:
        """Number of measurements (rows of Φ)."""
        return self._n_samples

    @property
    def n_coefficients(self) -> int:
        """Dimension of the coefficient space (columns of A)."""
        return self.dictionary.n_pixels

    @property
    def shape(self) -> tuple[int, int]:
        """Operator shape ``(m, n)``."""
        return (self.n_samples, self.n_coefficients)

    # ------------------------------------------------------------ products
    def matvec(self, coefficients: np.ndarray) -> np.ndarray:
        """Apply ``A``: coefficients -> measurements."""
        image = self.dictionary.synthesize(
            np.asarray(coefficients, dtype=self.transform_dtype)
        )
        return self.phi_dot(image)

    def rmatvec(self, measurements: np.ndarray) -> np.ndarray:
        """Apply ``A*``: measurements -> coefficient-domain correlations."""
        measurements = self._check_measurements(measurements)
        back = self.phi_rdot(measurements).astype(self.transform_dtype, copy=False)
        return np.asarray(self.dictionary.analyze(back), dtype=float)

    def phi_dot(self, pixels: np.ndarray) -> np.ndarray:
        """Apply Φ (as used by this operator, i.e. centred when centred) to a
        raw pixel-domain vector — no dictionary involved."""
        raise NotImplementedError

    def phi_rdot(self, measurements: np.ndarray) -> np.ndarray:
        """Apply Φ* to a measurement vector, returning a pixel-domain vector."""
        raise NotImplementedError

    def phi_dot_columns(self, atoms: np.ndarray) -> np.ndarray:
        """Apply Φ to a dense ``(n_pixels, k)`` stack of pixel columns."""
        raise NotImplementedError

    def columns(self, indices: Iterable[int]) -> np.ndarray:
        """Dense sub-matrix of A restricted to the given coefficient indices.

        The atoms are batch-synthesised in one dictionary transform and
        pushed through Φ in one product — no per-column Python loop.
        """
        indices = list(indices)
        if not indices:
            return np.empty((self.n_samples, 0))
        return self.phi_dot_columns(self.dictionary.atoms(indices))

    def dense(self) -> np.ndarray:
        """Explicit dense A.  Only sensible for small problems (tests, blocks)."""
        return self.columns(range(self.n_coefficients))

    # --------------------------------------------------------------- norms
    def operator_norm(
        self,
        *,
        n_iterations: int | None = None,
        seed: int | None = None,
        tolerance: float | None = None,
    ) -> float:
        """Largest singular value of A, which sets the solvers' step sizes.

        Called without arguments, returns :attr:`norm_estimate` when one is
        attached and costs no product then.  Otherwise — or when any
        argument is given — σ is estimated by power iteration (defaults
        ``NORM_ITERATIONS``, seed 0, ``NORM_TOLERANCE``) and memoised per
        operator instance: the iteration exits early once the estimate's
        relative change drops below ``tolerance`` (``tolerance=0`` runs the
        full budget).
        """
        if self.norm_estimate is not None and (n_iterations, seed, tolerance) == (None,) * 3:
            return self.norm_estimate
        if n_iterations is None:
            n_iterations = self.NORM_ITERATIONS
        if seed is None:
            seed = 0
        if tolerance is None:
            tolerance = self.NORM_TOLERANCE
        memo_key = (int(n_iterations), int(seed), float(tolerance))
        if memo_key in self._norm_cache:
            return self._norm_cache[memo_key]
        # For an orthonormal Ψ, σ(Φ Ψ) = σ(Φ): iterate on Φ*Φ directly and
        # skip the dictionary round-trip on every power step.  All shipped
        # dictionaries are orthonormal; a custom non-orthonormal dictionary
        # opts out via ``Dictionary.orthonormal = False``.
        if getattr(self.dictionary, "orthonormal", False):
            def step_products(vector: np.ndarray) -> np.ndarray:
                return self.phi_rdot(self.phi_dot(vector))
        else:
            def step_products(vector: np.ndarray) -> np.ndarray:
                return self.rmatvec(self.matvec(vector))

        sigma = power_iteration(
            step_products,
            self.n_coefficients,
            n_iterations=n_iterations,
            seed=seed,
            tolerance=tolerance,
        )
        self._norm_cache[memo_key] = sigma
        return sigma

    def mean_column_energy(self) -> float:
        """``‖A‖²_F / n``: the mean squared column norm of A.

        It is the scale ``s²`` of the message-passing warm start of the
        proximal solvers.  This generic form materialises A; the dense and
        structured operators compute it from Φ alone when Ψ is orthonormal
        (``‖Φ Ψ‖_F = ‖Φ‖_F``).
        """
        dense = self.dense()
        return float(np.vdot(dense, dense)) / self.n_coefficients

    # -------------------------------------------------------------- images
    def coefficients_to_image(self, coefficients: np.ndarray) -> np.ndarray:
        """Convenience: synthesise coefficients and reshape to the image grid."""
        image = self.dictionary.synthesize(np.asarray(coefficients, dtype=float))
        return image.reshape(self.dictionary.shape)

    def image_to_coefficients(self, image: np.ndarray) -> np.ndarray:
        """Convenience: analyse an image into its coefficient vector."""
        return self.dictionary.analyze(np.asarray(image, dtype=float).reshape(-1))

    # ------------------------------------------------------------- helpers
    def _check_measurements(self, measurements: np.ndarray) -> np.ndarray:
        measurements = np.asarray(measurements, dtype=float).reshape(-1)
        if measurements.size != self.n_samples:
            raise ValueError(
                f"measurements must have {self.n_samples} entries, "
                f"got {measurements.size}"
            )
        return measurements

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(m={self.n_samples}, n={self.n_coefficients}, "
            f"dictionary={type(self.dictionary).__name__})"
        )


def power_iteration(
    step_products: Callable[[np.ndarray], np.ndarray],
    n_coefficients: int,
    *,
    n_iterations: int,
    seed: int,
    tolerance: float,
) -> float:
    """σ of one operator, estimated by power iteration on ``A* A``.

    ``step_products`` applies ``A* A`` to a vector.  The iteration starts
    from the ``seed``-drawn normal vector and stops once σ moves by at most
    ``tolerance`` relative (never for 0) or vanishes.
    """
    start = np.random.default_rng(seed).standard_normal(n_coefficients)
    vector = start / np.linalg.norm(start)
    sigma = 0.0
    for _ in range(max(1, int(n_iterations))):
        product = step_products(vector)
        norm = np.linalg.norm(product)
        if norm == 0.0:
            return 0.0
        vector = product / norm
        previous, sigma = sigma, float(np.sqrt(norm))
        if tolerance > 0.0 and abs(sigma - previous) <= tolerance * sigma:
            break
    return sigma


class SensingOperator(BaseSensingOperator):
    """Dense linear operator ``A = Φ Ψ`` — the executable reference.

    Parameters
    ----------
    phi:
        Dense measurement matrix, shape ``(m, n_pixels)``.
    dictionary:
        Sparsifying dictionary Ψ; identity when omitted (signal sparse in the
        pixel domain).
    """

    def __init__(self, phi: np.ndarray, dictionary: Dictionary | None = None) -> None:
        phi = np.asarray(phi, dtype=float)
        if phi.ndim != 2:
            raise ValueError(f"phi must be a 2-D matrix, got {phi.ndim} dimensions")
        self.phi = phi
        if dictionary is None:
            dictionary = _default_dictionary(phi.shape[1])
        if dictionary.n_pixels != phi.shape[1]:
            raise ValueError(
                f"dictionary dimension {dictionary.n_pixels} does not match "
                f"phi columns {phi.shape[1]}"
            )
        super().__init__(phi.shape[0], dictionary)

    # ------------------------------------------------------------ products
    def phi_dot(self, pixels: np.ndarray) -> np.ndarray:
        return self.phi @ np.asarray(pixels, dtype=float).reshape(-1)

    def phi_rdot(self, measurements: np.ndarray) -> np.ndarray:
        return self.phi.T @ measurements

    def phi_dot_columns(self, atoms: np.ndarray) -> np.ndarray:
        return self.phi @ atoms

    def mean_column_energy(self) -> float:
        if getattr(self.dictionary, "orthonormal", False):
            return float(np.vdot(self.phi, self.phi)) / self.n_coefficients
        return super().mean_column_energy()
