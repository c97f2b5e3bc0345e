"""End-to-end reconstruction pipeline.

``reconstruct_frame`` is the receiver: it takes a
:class:`~repro.sensor.imager.CompressedFrame` (compressed samples + CA seed),
rebuilds Φ, centres the measurements (the DC of the image is estimated from
the sample mean, since every sample selects ≈ half the pixels), runs a sparse
solver in the chosen dictionary and returns the reconstructed code image.
``reconstruct_samples`` is the matrix-level variant used by the pure-algorithm
benchmarks where Φ is given explicitly (Gaussian, Bernoulli, LFSR baselines).

Φ is rebuilt by :func:`repro.recon.operator.frame_operator`, which calls the
shared CA builders (:func:`repro.ca.selection.ca_selection_factors`, or
:func:`repro.ca.selection.ca_measurement_matrix` for the dense reference)
that also give a captured frame its Φ — the receiver is guaranteed to
invert exactly the matrix the sensor sampled with.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.cs.dictionaries import make_dictionary
from repro.cs.metrics import psnr, reconstruction_snr
from repro.cs.operators import BaseSensingOperator, SensingOperator
from repro.cs.solvers import DEFAULT_MAX_ITERATIONS, SolverResult, fista, ista, omp
from repro.recon.operator import frame_operator, normalize_sample_mask
from repro.sensor.imager import CompressedFrame
from repro.sensor.shard import TiledCaptureResult, TileSlot
from repro.utils.validation import check_choice

_SOLVERS = {
    "fista": fista,
    "ista": ista,
    "omp": omp,
}


@dataclass
class ReconstructionResult:
    """A reconstructed image plus the solver diagnostics that produced it.

    Attributes
    ----------
    image:
        The reconstructed image (code domain for sensor frames).
    solver_result:
        The underlying :class:`~repro.cs.solvers.SolverResult`.
    dictionary:
        Name of the sparsifying dictionary used.
    solver:
        Name of the solver used.
    metrics:
        Optional quality metrics against a reference image (filled when a
        reference is supplied).
    capture_metadata:
        The sensor-side capture statistics of the reconstructed frame
        (fidelity, lost/queued events, LSB errors — exact counts from the
        event-accurate engine, modelled expectations from the behavioural
        one, distinguished by the ``event_statistics`` key).  Empty for the
        matrix-level :func:`reconstruct_samples` path, where no frame exists.
    """

    image: np.ndarray
    solver_result: SolverResult
    dictionary: str
    solver: str
    metrics: dict[str, float]
    capture_metadata: dict[str, object] = field(default_factory=dict)


def _solve(
    operator: BaseSensingOperator,
    measurements: np.ndarray,
    *,
    solver: str,
    regularization: float,
    sparsity: int | None,
    max_iterations: int | None,
) -> SolverResult:
    check_choice("solver", solver, tuple(_SOLVERS))
    if solver == "omp":
        if sparsity is None:
            sparsity = max(1, operator.n_samples // 8)
        return omp(operator, measurements, sparsity=int(sparsity), max_iterations=max_iterations)
    return _SOLVERS[solver](
        operator,
        measurements,
        regularization=regularization,
        max_iterations=DEFAULT_MAX_ITERATIONS if max_iterations is None else max_iterations,
    )


def reconstruct_samples(
    phi: np.ndarray,
    samples: np.ndarray,
    image_shape: tuple[int, int],
    *,
    dictionary: str = "dct",
    solver: str = "fista",
    regularization: float | None = None,
    sparsity: int | None = None,
    max_iterations: int | None = None,
    center: bool = True,
    reference: np.ndarray | None = None,
) -> ReconstructionResult:
    """Reconstruct an image from explicit measurements ``y = Φ x``.

    When ``center`` is true and Φ is a 0/1 selection matrix, the measurements
    are centred using the matrix density and the image DC estimated from the
    sample mean — the same normalisation the sensor pipeline uses.  The
    default l1 weight is scaled to the centred measurement magnitude, which
    works across pixel depths without tuning.

    Parameters
    ----------
    phi : numpy.ndarray
        Measurement matrix, shape ``(n_samples, n_pixels)``, any real dtype.
    samples : numpy.ndarray
        Measurements ``y``, shape ``(n_samples,)``.
    image_shape : tuple of int
        ``(rows, cols)`` of the image to recover.
    dictionary : str
        Sparsifying dictionary name (see :func:`repro.cs.dictionaries.make_dictionary`).
    solver : {"fista", "ista", "omp"}
        Sparse-recovery solver; OMP uses ``sparsity``.
    regularization : float, optional
        l1 weight for FISTA/ISTA; auto-scaled when omitted.
    sparsity : int, optional
        Sparsity target for OMP; defaults to ``n_samples // 8``.
    max_iterations : int, optional
        Iteration budget; when omitted,
        :data:`~repro.cs.solvers.DEFAULT_MAX_ITERATIONS` for FISTA/ISTA
        (their total over the λ-continuation stages) and the sparsity target
        for OMP.  An explicit value is honoured verbatim by every solver.
    center : bool
        Apply the selection-matrix DC centring described above.
    reference : numpy.ndarray, optional
        Ground truth; when given, PSNR/SNR metrics are attached.

    Returns
    -------
    ReconstructionResult
        The recovered ``(rows, cols)`` float image plus solver diagnostics.
    """
    phi = np.asarray(phi, dtype=float)
    samples = np.asarray(samples, dtype=float).reshape(-1)
    density = float(phi.mean())
    if not (center and 0.0 < density < 1.0 and np.all((phi == 0.0) | (phi == 1.0))):
        density = 0.0
    # Remove both the matrix DC and the image DC from the measurements and
    # solve only for the AC part of the image; reconstructing the large DC
    # coefficient through the solver would dominate its iteration budget.
    operator = SensingOperator(phi - density, make_dictionary(dictionary, image_shape))
    samples, pixel_mean, regularization = center_frame_samples(
        operator, density, samples, regularization
    )
    result = _solve(
        operator,
        samples,
        solver=solver,
        regularization=regularization,
        sparsity=sparsity,
        max_iterations=max_iterations,
    )
    image = operator.coefficients_to_image(result.coefficients)
    if pixel_mean:
        image = image + pixel_mean
    return ReconstructionResult(
        image=image,
        solver_result=result,
        dictionary=dictionary,
        solver=solver,
        metrics=quality_metrics(reference, image),
    )


def reconstruct_frame(
    frame: CompressedFrame,
    *,
    dictionary: str = "dct",
    solver: str = "fista",
    regularization: float | None = None,
    sparsity: int | None = None,
    max_iterations: int | None = None,
    reference: np.ndarray | None = None,
    operator: str = "structured",
    sample_mask: np.ndarray | None = None,
) -> ReconstructionResult:
    """Reconstruct the code image of a captured :class:`CompressedFrame`.

    Parameters
    ----------
    frame:
        The sensor output (samples + CA seed + configuration).
    dictionary, solver:
        Sparsifying dictionary and solver names.
    regularization:
        FISTA/ISTA l1 weight.  Defaults to a value scaled to the code range
        and the measurement count, which works well across the synthetic
        scenes.
    sparsity:
        OMP's sparsity target, as in :func:`reconstruct_samples`.
    max_iterations:
        Iteration budget; when omitted,
        :data:`~repro.cs.solvers.DEFAULT_MAX_ITERATIONS` for FISTA/ISTA
        (their total over the λ-continuation stages) and the sparsity target
        for OMP, and an explicit value is honoured verbatim.
    reference:
        Optional ground-truth code image (e.g. ``frame.digital_image``); when
        given, PSNR/SNR metrics are attached to the result.
    operator : {"structured", "dense"}
        Operator flavour (see :func:`repro.recon.operator.frame_operator`):
        the matrix-free rank-structured fast path by default, the dense
        executable reference on request.
    sample_mask:
        Optional boolean survival mask over the frame's samples (the lossy
        streaming path): only the masked samples and the matching rows of Φ
        enter the solve.  Dropped chunks are dropped rows of Φ — CS recovers
        from the surviving subset; an all-true mask is byte-identical to no
        mask at all.

    Returns
    -------
    ReconstructionResult
        The recovered code-domain image (shape ``(rows, cols)``, float),
        solver diagnostics, quality metrics when a reference is available,
        and the sensor-side ``capture_metadata`` carried over from the
        frame.
    """
    mask = normalize_sample_mask(sample_mask, frame.n_samples)
    sensing, density = frame_operator(
        frame,
        dictionary=dictionary,
        center=True,
        operator=operator,
        sample_mask=mask,
    )
    samples = frame.samples.astype(float)
    if mask is not None:
        samples = samples[mask]
    centered, pixel_mean, regularization = center_frame_samples(
        sensing, density, samples, regularization
    )
    result = _solve(
        sensing,
        centered,
        solver=solver,
        regularization=regularization,
        sparsity=sparsity,
        max_iterations=max_iterations,
    )
    return frame_result(
        frame, sensing, result, pixel_mean,
        dictionary=dictionary, solver=solver, reference=reference,
    )


def center_frame_samples(
    sensing: BaseSensingOperator,
    density: float,
    samples: np.ndarray,
    regularization: float | None,
) -> tuple[np.ndarray, float, float]:
    """Centre one frame's samples: ``(centred samples, pixel mean, λ)``.

    The sample mean estimates the image DC (E[y] = density * sum(x)), which
    is removed so the solver only recovers the AC image.  ``λ`` defaults to
    a weight scaled with the centred samples, which fits 8..12 bit codes.
    """
    n_pixels = sensing.dictionary.n_pixels
    dc_estimate = float(samples.mean() / density) if density > 0 else 0.0
    pixel_mean = dc_estimate / n_pixels
    centered = samples - density * dc_estimate
    centered = centered - sensing.phi_dot(np.full(n_pixels, pixel_mean))
    if regularization is None:
        regularization = 0.02 * float(np.abs(centered).max() + 1.0)
    return centered, pixel_mean, regularization


def frame_result(
    frame: CompressedFrame,
    sensing: BaseSensingOperator,
    result: SolverResult,
    pixel_mean: float,
    *,
    dictionary: str,
    solver: str,
    reference: np.ndarray | None = None,
) -> ReconstructionResult:
    """Package one frame's solve with its metrics and capture statistics.

    ``reference`` defaults to the frame's digital image when it was kept.
    The capture statistics (lost/queued events, LSB errors, fidelity) let
    receivers weigh the result, e.g. down-rank frames with deadline losses.
    """
    image = sensing.coefficients_to_image(result.coefficients) + pixel_mean
    if reference is None:
        reference = frame.digital_image
    return ReconstructionResult(
        image=image,
        solver_result=result,
        dictionary=dictionary,
        solver=solver,
        metrics=quality_metrics(reference, image),
        capture_metadata=dict(frame.metadata),
    )


def quality_metrics(reference: np.ndarray | None, image: np.ndarray) -> dict[str, float]:
    """PSNR/SNR of ``image`` against ``reference``; empty without one."""
    if reference is None:
        return {}
    reference = np.asarray(reference, dtype=float)
    return {
        "psnr_db": psnr(reference, image),
        "snr_db": reconstruction_snr(reference, image),
    }


@dataclass
class TiledReconstructionResult:
    """A full scene reassembled from per-tile reconstructions.

    Attributes
    ----------
    image:
        The stitched code-domain image, shape ``scene_shape``.
    tile_results:
        Row-major grid of the per-tile :class:`ReconstructionResult` objects
        (each with its own solver diagnostics, and its ``image`` a view of
        its slot in ``image``); ``None`` where a tile was missing.
    metrics:
        Scene-level quality metrics against a reference image (filled when a
        reference is supplied or the capture kept its digital images).
    capture_metadata:
        The merged mosaic-level capture statistics of the
        :class:`~repro.sensor.shard.TiledCaptureResult` being reconstructed.
    """

    image: np.ndarray
    tile_results: list[list[ReconstructionResult | None]]
    metrics: dict[str, float]
    capture_metadata: dict[str, object] = field(default_factory=dict)


def reconstruct_tiled(
    capture: TiledCaptureResult,
    *,
    max_iterations: int | None = None,
    reference: np.ndarray | None = None,
    sample_masks: Mapping[tuple[int, int], np.ndarray] | None = None,
) -> TiledReconstructionResult:
    """Reconstruct a :class:`~repro.sensor.shard.TiledCaptureResult` scene.

    Every tile is an independent compressed frame carrying its own CA seed,
    so the receiver reconstructs the mosaic tile-by-tile — each through the
    one shared Φ builder — and stitches the tile images back at their scene
    offsets, mirroring the block-CS reassembly of
    :class:`repro.cs.block.BlockCompressiveSampler` with per-tile hardware
    matrices instead of one shared synthetic matrix.

    Parameters
    ----------
    capture : TiledCaptureResult
        The merged tiled capture to invert.  A tile that is ``None`` (lost
        on the wire) stays zero in the image and ``None`` in
        ``tile_results``.
    max_iterations:
        Per-tile iteration budget, as in :func:`reconstruct_frame`; every
        tile solves at that function's defaults otherwise (DCT dictionary,
        FISTA, automatic λ).
    reference : numpy.ndarray, optional
        Ground-truth code image of the whole scene; when omitted, the
        stitched per-tile digital images are used if the capture kept them.
    sample_masks : mapping, optional
        Per-tile sample-survival masks keyed by ``(grid_row, grid_col)``: a
        tile that lost samples is solved over the rows of Φ that survived,
        as ``reconstruct_frame(frame, sample_mask=mask)``.

    Returns
    -------
    TiledReconstructionResult
        The stitched scene, the per-tile solver results and scene-level
        PSNR/SNR metrics when a reference is available.

    Notes
    -----
    Unmasked tiles of equal geometry are solved as stacked FISTA
    groups through :func:`~repro.recon.batch.solve_tiles_batched`, each
    tile's GEMMs on its own structured factors; masked tiles take per-tile
    :func:`reconstruct_frame` solves.  Either way every tile's bytes equal
    its own :func:`reconstruct_frame` solve.  The dense reference stays on
    :func:`reconstruct_frame` (``operator="dense"``).  The
    streaming receiver settles each mosaic frame through this function, so
    streamed and in-process reconstructions stay byte-identical.
    """
    from repro.recon.batch import batch_group_key, solve_tiles_batched

    masks = sample_masks or {}
    results: dict[TileSlot, ReconstructionResult] = {}
    groups: dict[tuple, list[tuple[TileSlot, CompressedFrame]]] = {}
    for slot, frame in capture.delivered():
        if (frame.config.rows, frame.config.cols) != (slot.rows, slot.cols):
            raise ValueError(
                f"tile ({slot.grid_row}, {slot.grid_col}) frame is "
                f"{frame.config.rows}x{frame.config.cols}, slot expects "
                f"{slot.rows}x{slot.cols}"
            )
        mask = masks.get((slot.grid_row, slot.grid_col))
        if mask is None:
            groups.setdefault(batch_group_key(frame), []).append((slot, frame))
        else:
            results[slot] = reconstruct_frame(
                frame, sample_mask=mask, max_iterations=max_iterations
            )
    for members in groups.values():
        solved = solve_tiles_batched(
            [frame for _, frame in members], max_iterations=max_iterations
        )
        results.update(zip((slot for slot, _ in members), solved))
    image = np.zeros(capture.scene_shape, dtype=float)
    for slot, result in results.items():
        image[slot.row_slice, slot.col_slice] = result.image
        # The mosaic keeps its pixels once: each tile's image becomes a view
        # of its slot (the same bytes).
        result.image = image[slot.row_slice, slot.col_slice]
    if reference is None and all(
        frame is not None and frame.digital_image is not None
        for _, frame in capture.frames()
    ):
        reference = capture.digital_image()
    return TiledReconstructionResult(
        image=image,
        tile_results=[[results.get(slot) for slot in row] for row in capture.slots],
        metrics=quality_metrics(reference, image),
        capture_metadata=dict(capture.metadata),
    )
