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
* ``column(j)`` / ``columns(S)`` — dense sub-matrices of A for greedy solvers
* ``operator_norm()`` — memoised largest-singular-value estimate

``operator_norm`` is computed by power iteration with a relative-tolerance
early exit and cached on the operator instance, so a solver stack that probes
the Lipschitz constant repeatedly pays for it once.  :class:`StepSizeCache`
extends that across operators: it memoises norms by an exact operator
identity key and keeps the converged singular vectors as warm starts for the
*next* operator of the same geometry (the streaming GOP chain).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Iterable, Sequence
from typing import TypeVar

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
    and :meth:`phi_dot_columns`; everything else — shapes, greedy-solver
    column extraction, the memoised power-iteration norm, the image
    conveniences — is shared, so the dense reference and the matrix-free
    fast path cannot drift in behaviour.
    """

    #: Shared power-iteration defaults for the step-size estimate.  The
    #: default tolerance is tight enough that typical CA operators run the
    #: full iteration budget (matching the pre-existing fixed-count
    #: behaviour, which keeps the dense and structured flavours' step sizes
    #: in bit-level agreement); looser tolerances and warm starts are
    #: explicit opt-ins.
    NORM_ITERATIONS = 50
    NORM_TOLERANCE = 1e-6

    def __init__(self, n_samples: int, dictionary: Dictionary) -> None:
        self._n_samples = int(n_samples)
        self.dictionary = dictionary
        self._norm_cache: dict[tuple[int, int, float], float] = {}
        #: Optional cross-operator step-size cache (see :class:`StepSizeCache`).
        self.norm_cache: StepSizeCache | None = None
        self.norm_exact_key: Hashable | None = None
        self.norm_warm_key: Hashable | None = None

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
        image = self.dictionary.synthesize(np.asarray(coefficients, dtype=float))
        return self.phi_dot(image)

    def rmatvec(self, measurements: np.ndarray) -> np.ndarray:
        """Apply ``A*``: measurements -> coefficient-domain correlations."""
        measurements = self._check_measurements(measurements)
        return self.dictionary.analyze(self.phi_rdot(measurements))

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

    def column(self, index: int) -> np.ndarray:
        """The ``index``-th column of A (Φ applied to one dictionary atom)."""
        atom = self.dictionary.atom(int(index))
        return self.phi_dot(atom)

    def columns(self, indices: Iterable[int]) -> np.ndarray:
        """Dense sub-matrix of A restricted to the given coefficient indices.

        The atoms are batch-synthesised in one dictionary transform and
        pushed through Φ in one product — no per-column Python loop, which
        is what keeps OMP/CoSaMP support solves cheap.
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
        seed: int = 0,
        tolerance: float | None = None,
        warm_start: np.ndarray | None = None,
    ) -> float:
        """Largest singular value of A, estimated by power iteration.

        The ISTA/FISTA/IHT step sizes are set from this value.  The result
        is memoised on the operator instance, and the iteration exits early
        once the estimate's relative change drops below ``tolerance``
        (``tolerance=0`` restores the fixed-iteration behaviour).  A
        ``warm_start`` vector — e.g. the converged singular vector of the
        previous frame's operator in a streaming GOP chain — typically cuts
        the iteration count to a handful; when a :class:`StepSizeCache` is
        attached (``norm_cache``), exact-key hits skip the iteration
        entirely and warm vectors are looked up and stored automatically.
        """
        if n_iterations is None:
            n_iterations = self.NORM_ITERATIONS
        if tolerance is None:
            tolerance = self.NORM_TOLERANCE
        # An explicitly warm-started call is the caller's own perturbed
        # estimate: it must not seed the plain-call memo (or an attached
        # cache), or later history-free calls would silently return it.
        explicit_warm = warm_start is not None
        memo_key = (int(n_iterations), int(seed), float(tolerance))
        if not explicit_warm and memo_key in self._norm_cache:
            return self._norm_cache[memo_key]
        # The attached cross-operator cache stores default-parameter
        # estimates only: a call asking for a different budget/tolerance
        # must not be answered with (or recorded as) a default-precision one.
        default_call = (
            not explicit_warm
            and n_iterations == self.NORM_ITERATIONS
            and tolerance == self.NORM_TOLERANCE
            and seed == 0
        )
        # For an orthonormal Ψ, σ(Φ Ψ) = σ(Φ): iterate on Φ*Φ directly and
        # skip the dictionary round-trip on every power step.  All shipped
        # dictionaries are orthonormal; a custom non-orthonormal dictionary
        # opts out via ``Dictionary.orthonormal = False``.
        if getattr(self.dictionary, "orthonormal", False):
            def step_products(stack: np.ndarray) -> np.ndarray:
                return self.phi_rdot(self.phi_dot(stack[0]))[None]
        else:
            def step_products(stack: np.ndarray) -> np.ndarray:
                return self.rmatvec(self.matvec(stack[0]))[None]

        sigmas = cached_operator_norms(
            [self],
            self.norm_cache if default_call else None,
            lambda _, warm_starts: power_iteration(
                step_products,
                self.n_coefficients,
                [warm_start if explicit_warm else warm_starts[0]],
                n_iterations=n_iterations,
                seed=seed,
                tolerance=tolerance,
            ),
        )
        sigma = float(sigmas[0])
        if not explicit_warm:
            self._norm_cache[memo_key] = sigma
        return sigma

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


OperatorT = TypeVar("OperatorT", bound=BaseSensingOperator)


def power_iteration(
    step_products: Callable[[np.ndarray], np.ndarray],
    n_coefficients: int,
    warm_starts: Sequence[np.ndarray | None],
    *,
    n_iterations: int,
    seed: int,
    tolerance: float,
) -> tuple[np.ndarray, np.ndarray]:
    """σ of every operator of a stack: ``(T,)`` estimates, ``(T, n)`` vectors.

    ``step_products`` applies every ``A_t* A_t`` to the rows of a ``(T, n)``
    stack.  Tile ``t`` starts from ``warm_starts[t]`` (``None``: the
    ``seed``-drawn normal vector) and stops once σ moves by at most
    ``tolerance`` relative (never for 0) or vanishes; stopped tiles keep
    their σ and vector while the rest iterate on.  Per-tile reductions are
    1-D row norms, so a tile gives the same bytes alone as in a stack.
    """
    vectors = np.empty((len(warm_starts), n_coefficients))
    for index, warm in enumerate(warm_starts):
        if warm is None:
            start = np.random.default_rng(seed).standard_normal(n_coefficients)
        else:
            start = np.asarray(warm, dtype=float).reshape(-1)
        if start.size != n_coefficients:
            raise ValueError(
                f"warm_start must have {n_coefficients} entries, got {start.size}"
            )
        norm = np.linalg.norm(start)
        if norm == 0.0:
            raise ValueError("warm_start must be a non-zero vector")
        vectors[index] = start / norm
    sigmas = [0.0] * len(warm_starts)
    live = list(range(len(warm_starts)))
    stopped: list[int] = []
    for _ in range(max(1, int(n_iterations))):
        if not live:
            break
        products = step_products(vectors)
        # Stopped tiles keep their rows (nothing to patch while all are live).
        for index in stopped:
            products[index] = vectors[index]
        still_live = []
        for index in live:
            product = products[index]
            norm = np.linalg.norm(product)
            if norm == 0.0:
                sigmas[index] = 0.0
                product[:] = vectors[index]
                stopped.append(index)
                continue
            product /= norm
            previous = sigmas[index]
            sigma = sigmas[index] = float(np.sqrt(norm))
            if tolerance > 0.0 and abs(sigma - previous) <= tolerance * sigma:
                stopped.append(index)
            else:
                still_live.append(index)
        vectors = products
        live = still_live
    return np.array(sigmas, dtype=float), vectors


def cached_operator_norms(
    operators: Sequence[OperatorT],
    cache: StepSizeCache | None,
    estimate: Callable[
        [list[OperatorT], list[np.ndarray | None]], tuple[np.ndarray, np.ndarray]
    ],
) -> np.ndarray:
    """σ of every operator through the :class:`StepSizeCache` protocol.

    Exact-key hits are returned verbatim; the misses go to one ``estimate``
    call with their warm vectors, and each estimate with σ > 0 is stored.
    All lookups come before any store, so the tiles of one batched solve
    never warm-start each other.  ``cache=None`` makes every operator a
    cold miss.
    """
    sigmas = np.zeros(len(operators))
    misses: list[int] = []
    warm_starts: list[np.ndarray | None] = []
    for index, operator in enumerate(operators):
        sigma = None if cache is None else cache.norm(operator.norm_exact_key)
        if sigma is None:
            misses.append(index)
            warm_starts.append(
                None if cache is None else cache.warm_vector(operator.norm_warm_key)
            )
        else:
            sigmas[index] = sigma
    if misses:
        estimated, vectors = estimate([operators[index] for index in misses], warm_starts)
        for position, index in enumerate(misses):
            sigmas[index] = estimated[position]
            if cache is not None and estimated[position] > 0.0:
                cache.store(
                    operators[index].norm_exact_key,
                    operators[index].norm_warm_key,
                    float(estimated[position]),
                    vectors[position],
                )
    return sigmas


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


class StepSizeCache:
    """Cross-operator memo of power-iteration norms and warm-start vectors.

    Two levels, both thread-safe:

    * **exact** — keyed by the full operator identity (seed bytes, CA
      parameters, dictionary, centring).  A hit returns the previously
      computed norm verbatim, so re-solving the *same* frame never pays the
      power iteration twice and stays bit-deterministic.
    * **warm** — keyed by operator geometry alone.  A hit seeds the next
      power iteration with the last converged singular vector of a
      same-shaped operator (the previous frame of a streaming GOP chain),
      which typically converges in a couple of iterations instead of
      dozens.  Warm starts change the σ estimate measurably — the
      relative-tolerance early exit lands on a different iterate, shifting
      the step by up to ~its tolerance and the downstream FISTA images by
      small-but-visible amounts (low decimals on a ~1000-code scale) — so
      they are only consulted when a cache is explicitly attached:
      reproducibility of an isolated solve is the default, and cached
      solves are *not* interchangeable with uncached ones for regression
      baselines.

    Attach one to the reconstruction entry points via their ``step_cache``
    argument (``reconstruct_frame``, ``reconstruct_tiled``,
    ``IncrementalTiledReconstructor``, ``StreamReceiver``).

    Parameters
    ----------
    max_entries:
        Bound on the exact-key memo.  Every frame of a GOP chain carries a
        fresh seed (a fresh exact key), so a cache living on a long-running
        receiver would otherwise grow one entry per tile per frame forever;
        the oldest entries are evicted FIFO past this bound.  The warm dict
        is keyed by geometry alone and is inherently small.
    """

    def __init__(self, *, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = int(max_entries)
        self._exact: dict[Hashable, float] = {}
        self._warm: dict[Hashable, np.ndarray] = {}
        self._lock = threading.Lock()
        self.exact_hits = 0
        self.warm_hits = 0
        self.misses = 0

    def norm(self, exact_key: Hashable | None) -> float | None:
        """The memoised norm for an exact operator identity, if any."""
        if exact_key is None:
            return None
        with self._lock:
            sigma = self._exact.get(exact_key)
            if sigma is None:
                self.misses += 1
            else:
                self.exact_hits += 1
            return sigma

    def warm_vector(self, warm_key: Hashable | None) -> np.ndarray | None:
        """The last converged singular vector for a geometry key, if any."""
        if warm_key is None:
            return None
        with self._lock:
            vector = self._warm.get(warm_key)
            if vector is not None:
                self.warm_hits += 1
                return vector.copy()
            return None

    def store(
        self,
        exact_key: Hashable | None,
        warm_key: Hashable | None,
        sigma: float,
        vector: np.ndarray,
    ) -> None:
        """Record a converged power iteration under both key levels."""
        with self._lock:
            if exact_key is not None:
                self._exact[exact_key] = float(sigma)
                while len(self._exact) > self.max_entries:
                    self._exact.pop(next(iter(self._exact)))
            if warm_key is not None:
                self._warm[warm_key] = np.asarray(vector, dtype=float).copy()

    def __len__(self) -> int:
        with self._lock:
            return len(self._exact)
