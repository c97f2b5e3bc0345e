"""Property suite: the closed-form CA step estimate and its safeguard.

:func:`~repro.recon.operator.frame_operator` attaches
:func:`~repro.recon.operator.ca_norm_estimate` to every CA operator, so no
CA solve runs a power iteration.  The estimate is the random-matrix
spectrum edge with a finite-size margin, not a proof, so three things are
pinned:

* **Coverage.** On rule-30 frames of 16x16 and larger, masked down to 25%
  of the rows or not, centred or not, σ̂ is at least the exact largest
  singular value.  This runs over a fixed example set (hypothesis draws
  derandomized: 100 frames by default, 2000 under the ``fuzz`` profile, up
  to 32x32, where the exact σ is a cheap dense SVD) plus explicit 64x64
  frames, so a rare frame above σ̂ can never turn a run red by chance.
* **Safety.** A random search over rule-30 frames from 8x8 up asserts what
  must hold on every frame: FISTA and ISTA stay finite with σ̂.  A
  frame above σ̂ is reported as a hypothesis event, not a failure.
* **Safeguard.** Where σ̂ < σ — a rule-30 8x8 frame and the non-chaotic
  rules 90/110/150/204 — FISTA and ISTA shrink their steps, stay
  finite and land within 0.5 dB of a solve given the exact step.  On
  rule-30 64x64 frames the safeguard never fires.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, eigsh

from repro.cs.metrics import psnr
from repro.cs.solvers import fista, ista
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.operator import frame_operator
from repro.recon.pipeline import reconstruct_frame
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager

SMALL_SHAPES = [(16, 16), (32, 32), (16, 32), (32, 16)]


@lru_cache(maxsize=32)
def capture(shape, seed, rule=30, scene="natural"):
    """A frame at the default 40% sampling of a noise-free scene."""
    rows, cols = shape
    imager = CompressiveImager(SensorConfig(rows=rows, cols=cols), rule=rule, seed=seed)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(
        make_scene(scene, shape, seed=seed)
    )
    return imager.capture(current, n_samples=int(round(0.4 * rows * cols)))


def keep_mask(n_samples, fraction, seed):
    """A random survival mask keeping ``fraction`` of the rows (at least 25%)."""
    order = np.random.default_rng(seed).permutation(n_samples)
    mask = np.zeros(n_samples, dtype=bool)
    mask[order[: max(1, int(np.ceil(fraction * n_samples)))]] = True
    return mask


def exact_sigma(operator):
    """The largest singular value of the operator's Φ, from its own products."""
    n_samples = operator.n_samples
    gram = LinearOperator(
        (n_samples, n_samples),
        matvec=lambda y: operator.phi_dot(operator.phi_rdot(np.ravel(y))),
        dtype=float,
    )
    top = eigsh(gram, k=1, which="LA", tol=1e-12, v0=np.ones(n_samples),
                return_eigenvectors=False)
    return float(np.sqrt(top[0]))


@settings(deadline=None, derandomize=True)
@given(
    st.sampled_from(SMALL_SHAPES),
    st.integers(0, 2**16),
    st.floats(0.25, 1.0),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_estimate_covers_rule30_frames(shape, seed, fraction, mask_seed, center):
    frame = capture(shape, seed, scene="blobs")
    mask = keep_mask(frame.n_samples, fraction, mask_seed)
    operator, _ = frame_operator(frame, operator="dense", center=center, sample_mask=mask)
    assert operator.norm_estimate >= np.linalg.norm(operator.phi, 2)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("fraction", [1.0, 0.3])
@pytest.mark.parametrize("center", [True, False])
def test_estimate_covers_rule30_64x64_frames(seed, fraction, center):
    frame = capture((64, 64), seed)
    mask = keep_mask(frame.n_samples, fraction, seed)
    operator, _ = frame_operator(frame, center=center, sample_mask=mask)
    assert operator.norm_estimate >= exact_sigma(operator)


@pytest.mark.parametrize("center", [True, False])
def test_dense_and_structured_share_the_estimate(center):
    frame = capture((16, 32), 5)
    mask = keep_mask(frame.n_samples, 0.5, 5)
    dense, _ = frame_operator(frame, operator="dense", center=center, sample_mask=mask)
    structured, _ = frame_operator(frame, center=center, sample_mask=mask)
    assert dense.norm_estimate == structured.norm_estimate
    assert dense.operator_norm() == structured.operator_norm() == dense.norm_estimate


def solve(name, operator, measurements, step_size=None):
    solver = fista if name == "fista" else ista
    regularization = 0.02 * (np.abs(measurements).max() + 1.0)
    return solver(operator, measurements, regularization=regularization,
                  max_iterations=100, step_size=step_size)


def safeguard_case(shape, seed, rule, name):
    """A frame whose σ beats σ̂: the solve with σ̂ against the exact-step one."""
    frame = capture(shape, seed, rule=rule)
    operator, _ = frame_operator(frame)
    sigma = exact_sigma(operator)
    # Measurements of the centred scene, so even rule 204's identical rows
    # see a non-zero gradient.
    truth = frame.digital_image.astype(float).reshape(-1)
    truth -= truth.mean()
    measurements = operator.phi_dot(truth)
    estimated = solve(name, operator, measurements)
    exact = solve(name, operator, measurements, step_size=1.0 / sigma**2)
    quality = [
        psnr(truth, operator.coefficients_to_image(result.coefficients).reshape(-1))
        for result in (estimated, exact)
    ]
    return operator, sigma, estimated, quality


@settings(deadline=None)
@given(
    st.sampled_from([(8, 8), *SMALL_SHAPES]),
    st.integers(0, 2**16),
    st.floats(0.25, 1.0),
    st.integers(0, 2**16),
    st.sampled_from(["fista", "ista"]),
)
def test_solves_stay_finite_on_any_rule30_frame(shape, seed, fraction, mask_seed, name):
    frame = capture(shape, seed, scene="blobs")
    mask = keep_mask(frame.n_samples, fraction, mask_seed)
    operator, _ = frame_operator(frame, operator="dense", sample_mask=mask)
    if operator.norm_estimate < np.linalg.norm(operator.phi, 2):
        event("frame above the estimate")
    truth = frame.digital_image.astype(float).reshape(-1)
    result = solve(name, operator, operator.phi_dot(truth - truth.mean()))
    assert np.isfinite(result.coefficients).all()
    assert np.isfinite(result.history).all()


@pytest.mark.parametrize("name", ["fista", "ista"])
def test_rule30_8x8_frame_exceeds_the_estimate_and_backtracks(name):
    # Sensor seed 334: an 8x8 rule-30 frame whose σ is ~14% above σ̂.
    operator, sigma, estimated, quality = safeguard_case((8, 8), 334, 30, name)
    assert sigma > operator.norm_estimate
    assert np.isfinite(estimated.coefficients).all()
    assert estimated.step_reductions > 0
    assert abs(quality[0] - quality[1]) <= 0.5


@pytest.mark.parametrize("name", ["fista", "ista"])
@pytest.mark.parametrize("rule", [90, 110, 150, 204])
@pytest.mark.parametrize("shape, seed", [((16, 16), 9), ((64, 64), 3)])
def test_safeguard_fires_on_non_chaotic_rules(shape, seed, rule, name):
    # Sensor seeds whose σ is 1.38-24x above σ̂ for every rule listed.
    operator, sigma, estimated, quality = safeguard_case(shape, seed, rule, name)
    assert sigma >= 1.3 * operator.norm_estimate
    assert np.isfinite(estimated.coefficients).all()
    assert np.isfinite(estimated.history).all()
    assert estimated.step_reductions > 0
    assert abs(quality[0] - quality[1]) <= 0.5


@pytest.mark.parametrize("solver", ["fista", "ista"])
@pytest.mark.parametrize("seed", [3, 11])
def test_safeguard_stays_idle_on_rule30_64x64_frames(seed, solver):
    result = reconstruct_frame(capture((64, 64), seed), solver=solver)
    assert result.solver_result.step_reductions == 0
