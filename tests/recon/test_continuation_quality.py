"""Held-out quality gate of the default solve budget.

A default solve opens with 10 iterations of approximate message passing,
then follows a λ path (warm-started stages at ``λ·3`` and ``λ``; up to
``λ·27, λ·9, λ·3, λ`` on larger budgets), and the default budget fell from
200 iterations to :data:`~repro.cs.solvers.DEFAULT_MAX_ITERATIONS`.  The
rule is "do not buy speed with quality": on 64x64 frames that were not
used to pick the AMP threshold, the AMP count, the stage count, the ratio
or the budget, every default reconstruction must reach at least the PSNR
that plain FISTA reached in 200 iterations.

``PLAIN_200_PSNR_DB`` holds those plain-200 PSNRs, recorded with
``reconstruct_frame(frame)`` on the code before continuation (dB against
the frame's digital image, four decimals).  Every setting was tuned on
natural seeds 100-115 and blobs seeds 100-107; these seeds are disjoint
from them.  With the λ path alone (120 iterations) the smallest gain over
plain 200 was 0.020 dB (natural-301) and the mean 0.78 dB, at about 60%
of plain 200's CPU.  With the AMP warm start and 60 iterations the
smallest gain is 0.106 dB (blobs-310) and the mean 0.97 dB, at about 30%
of plain 200's products.
"""

from functools import lru_cache

import pytest

from repro.cs.solvers import DEFAULT_MAX_ITERATIONS
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_frame
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager

SHAPE = (64, 64)

PLAIN_200_PSNR_DB = {
    "natural": {
        300: 26.6159, 301: 30.2515, 302: 29.5082, 303: 27.4519,
        304: 27.0460, 305: 28.2021, 306: 29.0497, 307: 26.8652,
        308: 29.6421, 309: 29.4699, 310: 27.5621, 311: 27.2227,
    },
    "blobs": {
        300: 46.2553, 301: 43.8625, 302: 43.5523, 303: 38.1479,
        304: 48.8731, 305: 40.1665, 306: 48.1120, 307: 36.0117,
        308: 47.3898, 309: 41.0503, 310: 40.8737, 311: 49.4575,
    },
}

CASES = [(scene, seed) for scene, seeds in PLAIN_200_PSNR_DB.items() for seed in seeds]


@lru_cache(maxsize=None)
def capture(scene, seed):
    """A rule-30 64x64 frame at 40% sampling of a noise-free scene."""
    rows, cols = SHAPE
    imager = CompressiveImager(SensorConfig(rows=rows, cols=cols), seed=seed)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(
        make_scene(scene, SHAPE, seed=seed)
    )
    return imager.capture(current, n_samples=int(round(0.4 * rows * cols)))


def test_the_gate_covers_twenty_frames_of_both_scene_kinds():
    assert len(CASES) >= 20
    assert {scene for scene, _ in CASES} == {"natural", "blobs"}


@pytest.mark.parametrize("scene, seed", CASES)
def test_default_budget_reaches_the_plain_200_psnr(scene, seed):
    result = reconstruct_frame(capture(scene, seed))
    assert result.solver_result.n_iterations <= DEFAULT_MAX_ITERATIONS
    assert result.metrics["psnr_db"] >= PLAIN_200_PSNR_DB[scene][seed]
