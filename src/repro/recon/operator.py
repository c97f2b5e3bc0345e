"""Rebuilding the measurement operator at the receiver.

The whole point of generating Φ with a seeded cellular automaton is that the
receiving end can reconstruct Φ *exactly* from the seed — no matrix is ever
transmitted or stored.  These helpers do precisely that, and package the
result into the centred sensing operator the solvers expect.

Two operator flavours share one CA evolution:

* ``operator="structured"`` (the default) rebuilds only the pre-expansion
  factor pair ``(R, C)`` with
  :func:`~repro.ca.selection.ca_selection_factors` and returns a matrix-free
  :class:`~repro.cs.structured.StructuredSensingOperator` — the receiver-side
  twin of the sensor's rank-structured capture engine;
* ``operator="dense"`` materialises Φ with
  :func:`~repro.ca.selection.ca_measurement_matrix` and returns the classic
  :class:`~repro.cs.operators.SensingOperator`, kept as the executable
  reference the equivalence suite pins the fast path against.

Both flavours leave here carrying the same closed-form step estimate
(:func:`ca_norm_estimate`), so no CA solve runs a power iteration.
"""

from __future__ import annotations

import numpy as np

from repro.ca.selection import ca_measurement_matrix, ca_selection_factors
from repro.cs.dictionaries import Dictionary, make_dictionary
from repro.cs.operators import BaseSensingOperator, SensingOperator
from repro.cs.structured import PRECISIONS, StructuredSensingOperator
from repro.sensor.imager import CompressedFrame
from repro.utils.validation import check_choice

#: Operator flavours accepted by the reconstruction entry points.
OPERATOR_CHOICES = ("structured", "dense")


#: Floor of the safety factor on the random-matrix spectrum edge in
#: :func:`ca_norm_estimate`: 64x64 frames read at most 0.4% above the edge.
CA_NORM_MARGIN = 1.03
#: Headroom in units of the edge's finite-size fluctuation scale: of ~3,000
#: rule-30 frames of 16x16 to 32x32, masked or not, the worst read 6.6 units
#: above the edge (the CA's rows are less random than the scale assumes).
CA_NORM_FLUCTUATIONS = 8.0


def ca_norm_estimate(n_samples: int, n_pixels: int, density: float = 0.0) -> float:
    """Closed-form σ estimate of an ``(m, n)`` CA-XOR measurement matrix.

    The centred entries ``Φ − d`` are ±½ and nearly uncorrelated, so the top
    singular value sits near the Marchenko–Pastur edge ``½(√m + √n)``.  It
    fluctuates about the edge on the Tracy–Widom scale
    ``τ = (1/√m + 1/√n)^⅓ / (√m + √n)`` (relative), which grows as the
    frame shrinks: 16x16 frames read up to 6.4% above the edge, 64x64
    frames 0.4%.  So the edge is scaled by ``max(CA_NORM_MARGIN, 1 +
    CA_NORM_FLUCTUATIONS·τ)``: about 1.03 at 64x64, 1.07 at 32x32 and
    1.17 at 16x16.  An uncentred matrix (``density`` is the
    ``d`` left in it) adds ``‖d·11ᵀ‖ = d·√(mn)`` by the triangle
    inequality.  This is an estimate, not a proof: frames below 16x16 and
    non-chaotic rules can exceed it, which the solvers' sufficient-decrease
    safeguard absorbs.
    """
    root_m, root_n = np.sqrt(float(n_samples)), np.sqrt(float(n_pixels))
    fluctuation = (1.0 / root_m + 1.0 / root_n) ** (1.0 / 3.0) / (root_m + root_n)
    margin = max(CA_NORM_MARGIN, 1.0 + CA_NORM_FLUCTUATIONS * fluctuation)
    return float(0.5 * (root_m + root_n) * margin + density * root_m * root_n)


def normalize_sample_mask(
    sample_mask: np.ndarray | None, n_samples: int
) -> np.ndarray | None:
    """Validate a row-survival mask; ``None`` means "every row survived".

    An all-true mask is normalised to ``None`` so the masked and unmasked
    code paths cannot diverge when nothing was actually lost — the zero-loss
    byte-identity property depends on this short-circuit.
    """
    if sample_mask is None:
        return None
    mask = np.asarray(sample_mask, dtype=bool).reshape(-1)
    if mask.size != n_samples:
        raise ValueError(
            f"sample_mask has {mask.size} entries for {n_samples} samples"
        )
    if bool(mask.all()):
        return None
    if not bool(mask.any()):
        raise ValueError("sample_mask keeps no samples — nothing to solve from")
    return mask


def frame_operator(
    frame: CompressedFrame,
    *,
    dictionary: str = "dct",
    center: bool = True,
    operator: str = "structured",
    sample_mask: np.ndarray | None = None,
    precision: str = "mixed",
) -> tuple[BaseSensingOperator, float]:
    """Build the sensing operator for a captured frame.

    Returns the operator and the selection density used for centring (0.0
    when ``center`` is false).  Centring subtracts the mean entry from the
    0/1 matrix, which removes the large DC component shared by all rows of
    the XOR construction and is what makes smooth dictionaries usable.
    Every operator leaves with its
    :attr:`~repro.cs.operators.BaseSensingOperator.norm_estimate` set to
    :func:`ca_norm_estimate` over its surviving rows, dense and structured
    alike, so both flavours take the same step.

    Parameters
    ----------
    frame:
        The captured frame whose seed determines Φ.
    dictionary:
        Sparsifying dictionary name.
    center:
        Subtract the matrix density from Φ (on the structured path this is
        folded in analytically — no dense matrix is ever formed).
    operator : {"structured", "dense"}
        ``"structured"`` (default) returns the matrix-free rank-structured
        operator; ``"dense"`` materialises Φ and returns the dense
        reference.  Both flavours compute bit-identical densities and are
        pinned numerically equivalent by the recon-equivalence suite.
    sample_mask:
        Optional boolean row-survival mask over the frame's ``n_samples``
        measurements (the partial-Φ path of lossy streaming).  Φ is rebuilt
        in full from the seed, then restricted to the surviving rows —
        dropped chunks become dropped rows, which CS tolerates by design.
        The centring density is recomputed over the *surviving* subset so
        the masked operator matches a from-scratch solve on those rows.  An
        all-true mask takes the exact unmasked path.
    precision : {"mixed", "float64"}
        Product precision of the structured operator (see
        :class:`~repro.cs.structured.StructuredSensingOperator`): float32
        ±1-factor GEMMs by default, all-float64 on request.  The dense
        reference is always float64.
    """
    check_choice("operator", operator, OPERATOR_CHOICES)
    check_choice("precision", precision, PRECISIONS)
    mask = normalize_sample_mask(sample_mask, frame.n_samples)
    rows, cols = frame.config.rows, frame.config.cols
    psi: Dictionary = make_dictionary(dictionary, (rows, cols))
    if operator == "structured":
        row_factors, col_factors = ca_selection_factors(
            frame.n_samples,
            rows,
            cols,
            frame.seed_state,
            rule=frame.rule_number,
            steps_per_sample=frame.steps_per_sample,
            warmup_steps=frame.warmup_steps,
        )
        if mask is not None:
            row_factors = row_factors[mask]
            col_factors = col_factors[mask]
        structured = StructuredSensingOperator(
            row_factors, col_factors, psi, precision=precision
        )
        matrix_density = structured.density
        density = matrix_density if center else 0.0
        structured.center = density
        built: BaseSensingOperator = structured
    else:
        phi = ca_measurement_matrix(
            frame.n_samples,
            rows,
            cols,
            frame.seed_state,
            rule=frame.rule_number,
            steps_per_sample=frame.steps_per_sample,
            warmup_steps=frame.warmup_steps,
        ).astype(float)
        if mask is not None:
            phi = phi[mask]
        matrix_density = float(phi.mean())
        density = matrix_density if center else 0.0
        if center:
            phi = phi - density
        built = SensingOperator(phi, psi)
    built.norm_estimate = ca_norm_estimate(
        built.n_samples, built.n_coefficients, matrix_density - density
    )
    return built, density
