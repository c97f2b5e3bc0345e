"""Matrix-free rank-structured sensing operator for CA-XOR measurement matrices.

The sensor's XOR selection gate makes every row of Φ an outer XOR of the CA's
row and column cells, ``Φ[i, (r, c)] = R[i, r] ⊕ C[i, c]``.  In ±1 form —
``s = 1 − 2·f`` for a 0/1 cell ``f`` — the XOR is a product:

    R[i, r] ⊕ C[i, c] = (1 − S_R[i, r]·S_C[i, c]) / 2

so the centred operator ``Φ − d`` applied to an image ``X`` (shape
``rows x cols``) never needs the dense ``(m, rows·cols)`` matrix:

    ((Φ − d) x)_i = (½ − d)·sum(X) − ½ · (S_R,i X) · S_C,i

— one GEMM ``S_R X`` plus a row-wise dot with ``S_C``.  The adjoint has the
mirrored form: the back-projected image of a measurement vector ``y`` is

    (Φ − d)* y = (½ − d)·sum(y) − ½ · S_Rᵀ diag(y) S_C

again one GEMM.  :func:`phi_dot_stack` / :func:`phi_rdot_stack` implement
the pair once, over any leading stack of tiles: a solo operator product is
the no-stack case, the batched multi-tile solver
(:mod:`repro.cs.solvers.batched`) the ``(T, ...)`` case.

The sensor side keeps the 0/1 form ``R·rowsum + C·colsum − 2·(R X)·C``
(:mod:`repro.sensor.imager`): capture sums integer pixel codes, where that
form is exact and pinned byte-identical to the legacy per-pattern loop (the
bit-fidelity invariant).  The receiver's ±1 form needs one GEMM per product
instead of a GEMM plus two matvec passes.

The ±1 factors are exact in any float format, so by default
(``precision="mixed"``) they are stored as float32 and every GEMM runs in
float32: only the image or measurement operand and the GEMM's accumulation
round.  The DCT Ψ of the products runs in float32 too
(:attr:`~repro.cs.operators.BaseSensingOperator.transform_dtype`): the
coefficients enter it rounded to float32, the synthesised image feeds the
GEMM as it is, and the back-projection is rounded to float32 before the
analysis, whose coefficients return as float64.  The solver's iterate, the
offset term's sums, λ, the step and the backtrack test stay float64, and so
do the kernels' outputs.
``precision="float64"`` keeps the all-float64 products, on which the
recon-equivalence suite pins the fast path against the dense reference.

:class:`StructuredSensingOperator` packages the kernels with a fast
dictionary Ψ so the whole solver stack runs matrix-free: a 64x64 tile's dense
Φ is a 53 MB float64 matrix streamed from memory on every product, while its
float32 ±1 factors take 0.8 MB and drive small BLAS-3 kernels.

The dense :class:`~repro.cs.operators.SensingOperator` stays in place as the
executable reference; ``tests/cs/test_structured.py`` and
``tests/recon/test_equivalence.py`` pin the float64 products against it
across dictionaries, shapes, seeds and solvers (the recon-equivalence
invariant), and ``tests/properties/test_property_mixed_precision.py`` bounds
the default products' distance from the float64 ones.
"""

from __future__ import annotations


import numpy as np

from repro.ca.selection import selection_masks_from_states
from repro.cs.dictionaries import Dictionary, IdentityDictionary, as_float
from repro.cs.operators import BaseSensingOperator
from repro.utils.validation import check_choice

#: Product precision of :class:`StructuredSensingOperator` -> dtype of its
#: ±1 factors and so of its GEMMs.
FACTOR_DTYPES = {"mixed": np.float32, "float64": np.float64}
PRECISIONS = tuple(FACTOR_DTYPES)


def phi_dot_stack(
    row_signs_t: np.ndarray,
    col_signs: np.ndarray,
    offsets: np.ndarray | float,
    images: np.ndarray,
) -> np.ndarray:
    """``(Φ − d) x`` from the ±1 factors: ``(..., rows, cols) -> (..., m)``.

    ``row_signs_t`` is ``S_Rᵀ`` with shape ``(..., rows, m)``, ``col_signs``
    is ``S_C`` with shape ``(..., m, cols)`` and ``offsets`` is ``½ − d``
    with shape ``(...)``; leading axes broadcast against ``images``.  The
    GEMM and row-dot run in the factors' dtype; the offset term sums the
    images in float64 and the result is float64.
    """
    projected = np.matmul(
        np.swapaxes(row_signs_t, -1, -2), images.astype(row_signs_t.dtype, copy=False)
    )
    cross = np.einsum("...mc,...mc->...m", projected, col_signs)
    totals = np.asarray(offsets) * images.sum(axis=(-2, -1), dtype=np.float64)
    return totals[..., None] - 0.5 * cross


def phi_rdot_stack(
    row_signs_t: np.ndarray,
    col_signs: np.ndarray,
    offsets: np.ndarray | float,
    measurements: np.ndarray,
) -> np.ndarray:
    """``(Φ − d)* y`` from the ±1 factors: ``(..., m) -> (..., rows, cols)``.

    Same factor layout and precision as :func:`phi_dot_stack`; the
    back-projected images come out in the 2-D pixel layout.
    """
    weights = measurements.astype(row_signs_t.dtype, copy=False)
    cross = np.matmul(row_signs_t * weights[..., None, :], col_signs)
    totals = np.asarray(offsets) * measurements.sum(axis=-1)
    return totals[..., None, None] - 0.5 * cross


class StructuredSensingOperator(BaseSensingOperator):
    """Matrix-free ``A = (Φ − d) Ψ`` built from the CA factor pair ``(R, C)``.

    Parameters
    ----------
    row_factors:
        The ``(m, rows)`` 0/1 CA row-cell states ``R`` (one row per sample).
    col_factors:
        The ``(m, cols)`` 0/1 CA column-cell states ``C``.
    dictionary:
        Sparsifying dictionary Ψ; its shape must be exactly ``(rows, cols)``
        because the rank-structured products need the 2-D pixel layout.
        Identity when omitted.
    center:
        The density offset ``d`` subtracted from every Φ entry (0.0 keeps
        the raw 0/1 matrix).  Use :attr:`density` for the exact matrix mean.
    precision : {"mixed", "float64"}
        Dtype of the ±1 factors and so of the products' GEMMs: float32
        (``"mixed"``, the default) or float64, the path the
        recon-equivalence suite pins against the dense reference.

    Every product runs the ±1 kernels (:func:`phi_dot_stack` /
    :func:`phi_rdot_stack`) on :attr:`row_signs_t` and :attr:`col_signs`;
    the 0/1 :attr:`row_factors` / :attr:`col_factors` serve the exact
    density and the materialised :attr:`phi`.
    """

    def __init__(
        self,
        row_factors: np.ndarray,
        col_factors: np.ndarray,
        dictionary: Dictionary | None = None,
        *,
        center: float = 0.0,
        precision: str = "mixed",
    ) -> None:
        check_choice("precision", precision, PRECISIONS)
        row_factors = np.asarray(row_factors)
        col_factors = np.asarray(col_factors)
        if row_factors.ndim != 2 or col_factors.ndim != 2:
            raise ValueError("row_factors and col_factors must be 2-D arrays")
        if row_factors.shape[0] != col_factors.shape[0]:
            raise ValueError(
                f"factor sample counts differ: {row_factors.shape[0]} rows vs "
                f"{col_factors.shape[0]} cols"
            )
        for name, factors in (("row_factors", row_factors), ("col_factors", col_factors)):
            if not np.isin(factors, (0, 1)).all():
                raise ValueError(f"{name} must contain only 0/1 values")
        self.row_factors = row_factors.astype(np.uint8)
        self.col_factors = col_factors.astype(np.uint8)
        self.precision = precision
        dtype = FACTOR_DTYPES[precision]
        self.transform_dtype = dtype
        #: ``S_Rᵀ``, shape ``(rows, m)``: the ±1 row factors ``1 − 2·R``
        #: (float32 unless ``precision="float64"``), pre-transposed and
        #: contiguous for the adjoint's GEMM.
        self.row_signs_t = 1 - 2 * np.ascontiguousarray(self.row_factors.T, dtype=dtype)
        #: ``S_C``, shape ``(m, cols)``: the ±1 column factors, same dtype.
        self.col_signs = 1 - 2 * self.col_factors.astype(dtype)
        self.image_shape: tuple[int, int] = (
            int(row_factors.shape[1]),
            int(col_factors.shape[1]),
        )
        self._phi: np.ndarray | None = None
        self.center = float(center)
        if dictionary is None:
            dictionary = IdentityDictionary(self.image_shape)
        if dictionary.shape != self.image_shape:
            raise ValueError(
                f"dictionary shape {dictionary.shape} does not match the "
                f"factor image shape {self.image_shape}"
            )
        super().__init__(row_factors.shape[0], dictionary)

    # ------------------------------------------------------------ centring
    @property
    def center(self) -> float:
        """The density offset ``d`` subtracted from every Φ entry."""
        return self._center

    @center.setter
    def center(self, value: float) -> None:
        # The materialised Φ bakes the offset in — changing the centring
        # (frame_operator does, right after construction) must drop it.
        self._center = float(value)
        self._phi = None

    @property
    def offset(self) -> float:
        """``½ − d``: the constant term of the ±1 kernels."""
        return 0.5 - self._center

    # ------------------------------------------------------------- density
    @property
    def density(self) -> float:
        """The exact mean of the 0/1 matrix Φ, computed from the factors.

        Per sample, the XOR selects ``nR·(cols − nC) + (rows − nR)·nC``
        pixels; all counts are exact integers, so this equals
        ``phi.mean()`` of the materialised matrix bit for bit.
        """
        rows, cols = self.image_shape
        selected = self.selected_per_sample()
        return float(selected.sum()) / float(self.n_samples * rows * cols)

    def selected_per_sample(self) -> np.ndarray:
        """Number of selected pixels per sample (the row sums of 0/1 Φ)."""
        rows, cols = self.image_shape
        n_row_high = self.row_factors.sum(axis=1, dtype=np.int64)
        n_col_high = self.col_factors.sum(axis=1, dtype=np.int64)
        return n_row_high * (cols - n_col_high) + (rows - n_row_high) * n_col_high

    # ------------------------------------------------------------ products
    def phi_dot(self, pixels: np.ndarray) -> np.ndarray:
        pixels = as_float(pixels).reshape(-1)
        rows, cols = self.image_shape
        if pixels.size != rows * cols:
            raise ValueError(
                f"pixel vector must have {rows * cols} entries, got {pixels.size}"
            )
        return phi_dot_stack(
            self.row_signs_t, self.col_signs, self.offset, pixels.reshape(rows, cols)
        )

    def phi_rdot(self, measurements: np.ndarray) -> np.ndarray:
        measurements = np.asarray(measurements, dtype=float).reshape(-1)
        return phi_rdot_stack(
            self.row_signs_t, self.col_signs, self.offset, measurements
        ).reshape(-1)

    #: Column batches at least this wide ride the materialised Φ instead of
    #: the factor algebra: the cross term costs the same ``k·m·n`` flops
    #: either way, but one dense GEMM beats ``k`` small batched products.
    MATERIALIZE_COLUMN_THRESHOLD = 8

    def phi_dot_columns(self, atoms: np.ndarray) -> np.ndarray:
        atoms = np.asarray(atoms, dtype=float)
        if atoms.shape[1] >= self.MATERIALIZE_COLUMN_THRESHOLD:
            return self.phi @ atoms
        rows, cols = self.image_shape
        images = atoms.T.reshape(-1, rows, cols)
        return phi_dot_stack(self.row_signs_t, self.col_signs, self.offset, images).T

    def mean_column_energy(self) -> float:
        """``‖A‖²_F / n = m·(d(1 − d) + (d − c)²)`` for an orthonormal Ψ.

        The entries of ``Φ − c`` are ``1 − c`` on a fraction ``d`` (the exact
        :attr:`density`) and ``−c`` elsewhere, so a centred frame
        (``c = d``) reads exactly ``m·d(1 − d)``.
        """
        if not getattr(self.dictionary, "orthonormal", False):
            return super().mean_column_energy()
        density, center = self.density, self.center
        return self.n_samples * (density * (1.0 - density) + (density - center) ** 2)

    # --------------------------------------------------------------- dense
    @property
    def phi(self) -> np.ndarray:
        """The materialised (centred) dense Φ — compatibility escape hatch.

        Expanded lazily via the same broadcast XOR as the shared dense
        builder and cached; the solver hot paths never touch it.
        """
        if self._phi is None:
            rows, cols = self.image_shape
            masks = selection_masks_from_states(
                np.concatenate([self.row_factors, self.col_factors], axis=1),
                rows,
                cols,
            )
            self._phi = masks.astype(float) - self.center
        return self._phi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rows, cols = self.image_shape
        return (
            f"StructuredSensingOperator(m={self.n_samples}, image={rows}x{cols}, "
            f"center={self.center:.4f}, dictionary={type(self.dictionary).__name__})"
        )
