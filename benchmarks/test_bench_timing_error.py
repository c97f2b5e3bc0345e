"""E8 — §III-B: system-level verification of the ±1 LSB late-detection error.

"...it is possible that some pulses are detected in the following clock
period, what will introduce a 1 LSB error in the 20 b compressed sample.
Verification on the negligible influence of this error has been performed at
system level."

This benchmark repeats that verification: the same scenes are captured with
and without the late-detection error (and, as a harsher variant, with an
artificially inflated error rate), reconstructed identically, and the PSNR
penalty is reported.  The paper's claim holds if the penalty is a small
fraction of a dB.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_frame, reconstruct_samples
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.tdc import apply_stochastic_lsb_error


def capture_pair(scene_kind, seed):
    """Capture one scene with and without the LSB error; reconstruct both."""
    config = SensorConfig(rows=32, cols=32)
    imager = CompressiveImager(config, seed=seed)
    scene = make_scene(scene_kind, (32, 32), seed=seed)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)

    clean = imager.capture(current, n_samples=400, lsb_error=False)
    noisy = imager.capture(current, n_samples=400, lsb_error=True)
    psnr_clean = reconstruct_frame(clean, max_iterations=120).metrics["psnr_db"]
    psnr_noisy = reconstruct_frame(noisy, max_iterations=120).metrics["psnr_db"]
    return {
        "scene": scene_kind,
        "psnr_ideal_db": psnr_clean,
        "psnr_with_lsb_error_db": psnr_noisy,
        "penalty_db": psnr_clean - psnr_noisy,
        "lsb_errors": noisy.metadata["n_lsb_errors"],
    }


def test_lsb_error_has_negligible_influence(benchmark):
    rows = benchmark.pedantic(
        lambda: [
            capture_pair(kind, seed)
            for seed, kind in enumerate(("blobs", "natural", "gradient"))
        ],
        rounds=1, iterations=1,
    )
    print_table("±1 LSB late-detection error — system-level influence", rows)
    for row in rows:
        # "Negligible influence": well under 1 dB on every scene.
        assert abs(row["penalty_db"]) < 1.0


def test_inflated_error_rate_shows_where_it_would_matter(benchmark):
    """Sensitivity sweep: how large would the error rate have to be to matter?"""
    config = SensorConfig(rows=32, cols=32)
    imager = CompressiveImager(config, seed=4)
    scene = make_scene("blobs", (32, 32), seed=4)
    current = PhotoConversion(prnu_sigma=0.0, shot_noise=False).convert(scene)
    frame = imager.capture(current, n_samples=400, lsb_error=False)
    codes = frame.digital_image.reshape(-1).astype(np.int64)
    phi = frame.measurement_matrix().astype(float)

    def sweep():
        rng = np.random.default_rng(0)
        rows = []
        for probability in (0.0, 0.05, 0.25, 1.0):
            noisy_samples = np.empty(frame.n_samples, dtype=np.int64)
            for i in range(frame.n_samples):
                selected = codes[phi[i] > 0]
                bumped = apply_stochastic_lsb_error(selected, probability, max_code=255, rng=rng)
                noisy_samples[i] = bumped.sum()
            result = reconstruct_samples(
                phi, noisy_samples.astype(float), (32, 32),
                max_iterations=100, reference=frame.digital_image,
            )
            rows.append({"error_probability": probability, "psnr_db": result.metrics["psnr_db"]})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Sensitivity of reconstruction to the per-event +1 LSB error rate", rows)
    baseline = rows[0]["psnr_db"]
    realistic = rows[1]["psnr_db"]
    # At realistic error rates the penalty stays below 1 dB...
    assert baseline - realistic < 1.0
    # ...and even a 100% error rate (every event one tick late) costs only a
    # bounded amount because a uniform +1 shift is mostly absorbed by the DC term.
    assert baseline - rows[-1]["psnr_db"] < 6.0
