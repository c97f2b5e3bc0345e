"""Property tests for the partial-Φ (masked row-subset) reconstruction path.

Dropped chunks are dropped rows of Φ: the lossy streaming path hands
:func:`~repro.recon.pipeline.reconstruct_frame` a boolean survival mask and
solves on the surviving row subset.  The properties pinned here are the
ones the loss-resilience layer leans on:

* the masked **structured** fast path, on its float64 products, equals the
  executable **dense** row-subset reference solve to 1e-8 — masking
  commutes with the operator implementation;
* the masked solve reads *only* the surviving samples — corrupting every
  masked-out sample changes nothing, byte for byte;
* an all-true mask is byte-identical to no mask at all (the zero-loss
  closed loop degenerates exactly to the open loop);
* degenerate masks (wrong length, nothing surviving) are rejected loudly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.optics.scenes import make_scene
from repro.recon.operator import frame_operator, normalize_sample_mask
from repro.recon.pipeline import center_frame_samples, reconstruct_frame
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager

N_SAMPLES = 40
KWARGS = dict(solver="fista", max_iterations=6)

_FRAME = CompressiveImager(SensorConfig(rows=16, cols=16), seed=12).capture_scene(
    make_scene("blobs", (16, 16), seed=4), n_samples=N_SAMPLES
)


def _mask_from_dropped(dropped):
    mask = np.ones(N_SAMPLES, dtype=bool)
    mask[list(dropped)] = False
    return mask


# The fixture's float64 default holds for every example, so sharing it is safe.
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    dropped=st.sets(
        st.integers(0, N_SAMPLES - 1), min_size=1, max_size=N_SAMPLES - 4
    )
)
def test_masked_structured_solve_equals_dense_row_subset(float64_products, dropped):
    mask = _mask_from_dropped(dropped)
    structured = reconstruct_frame(
        _FRAME, sample_mask=mask, operator="structured", **KWARGS
    )
    dense = reconstruct_frame(_FRAME, sample_mask=mask, operator="dense", **KWARGS)
    np.testing.assert_allclose(
        structured.image, dense.image, atol=1e-8, rtol=0.0
    )


@settings(max_examples=15, deadline=None)
@given(
    dropped=st.sets(
        st.integers(0, N_SAMPLES - 1), min_size=1, max_size=N_SAMPLES - 4
    ),
    noise_seed=st.integers(0, 2**16),
)
def test_masked_solve_reads_only_the_surviving_samples(dropped, noise_seed):
    # The resilient session zero-fills lost sample slots; the solve must be
    # invariant to whatever garbage sits in masked-out positions.
    mask = _mask_from_dropped(dropped)
    clean = reconstruct_frame(_FRAME, sample_mask=mask, **KWARGS)
    corrupted_samples = _FRAME.samples.copy()
    rng = np.random.default_rng(noise_seed)
    corrupted_samples[~mask] = rng.integers(
        0, 256, size=int((~mask).sum()), dtype=corrupted_samples.dtype
    )
    corrupted = dataclasses.replace(_FRAME, samples=corrupted_samples)
    result = reconstruct_frame(corrupted, sample_mask=mask, **KWARGS)
    assert result.image.tobytes() == clean.image.tobytes()


def test_all_true_mask_is_byte_identical_to_no_mask():
    unmasked = reconstruct_frame(_FRAME, **KWARGS)
    masked = reconstruct_frame(
        _FRAME, sample_mask=np.ones(N_SAMPLES, dtype=bool), **KWARGS
    )
    assert masked.image.tobytes() == unmasked.image.tobytes()


def test_all_true_mask_normalises_away():
    assert normalize_sample_mask(np.ones(N_SAMPLES, dtype=bool), N_SAMPLES) is None


def test_degenerate_masks_are_rejected():
    with pytest.raises(ValueError):
        normalize_sample_mask(np.ones(N_SAMPLES - 1, dtype=bool), N_SAMPLES)
    with pytest.raises(ValueError):
        normalize_sample_mask(np.zeros(N_SAMPLES, dtype=bool), N_SAMPLES)


@settings(max_examples=10, deadline=None)
@given(
    dropped=st.sets(st.integers(0, N_SAMPLES - 1), min_size=1, max_size=20)
)
@example(dropped={0, 1, 2, 3, 4, 12, 15, 20, 25, 26, 28})
def test_losing_rows_degrades_but_never_destroys_the_solve(dropped):
    # Lost rows are lost information: with 20 samples left for 256 pixels a
    # correct solve need not resemble the full one (the pinned set
    # correlates 0.499 with it at 6 iterations and 0.370 at 200).  What
    # must survive is the solve itself: it stays finite and explains the
    # samples it kept far better than the flat DC image, whose centred
    # residual is the centred samples themselves.  Over 750 random dropped
    # sets of 1/5/10/15/20 rows the kept-sample residual is at most 0.018 of
    # the centred norm (0.013 for the pinned set), so 0.1 leaves ~5x margin.
    mask = _mask_from_dropped(dropped)
    partial = reconstruct_frame(_FRAME, sample_mask=mask, **KWARGS)
    assert np.isfinite(partial.image).all()
    sensing, density = frame_operator(_FRAME, sample_mask=mask)
    kept = _FRAME.samples[mask].astype(float)
    centered, _, _ = center_frame_samples(sensing, density, kept, None)
    residual = centered - sensing.matvec(partial.solver_result.coefficients)
    assert np.linalg.norm(residual) < 0.1 * np.linalg.norm(centered)
