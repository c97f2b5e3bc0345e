"""Integration tests of the seed-only side channel (sensor -> receiver).

The architectural point of the paper is that Φ never travels: the receiver
regenerates it from the CA seed.  These tests exercise that hand-off as a
realistic protocol: serialise the frame to plain data (samples + seed +
parameters), "transmit" it, rebuild everything on the other side.
"""

import json

import numpy as np

from repro.ca.selection import ca_measurement_matrix
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_samples
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager


def serialise(frame):
    """What actually needs to cross the channel."""
    return json.dumps(
        {
            "samples": frame.samples.tolist(),
            "seed_state": frame.seed_state.tolist(),
            "rule": frame.rule_number,
            "steps_per_sample": frame.steps_per_sample,
            "warmup_steps": frame.warmup_steps,
            "rows": frame.config.rows,
            "cols": frame.config.cols,
        }
    )


class TestSeedOnlyChannel:
    def test_receiver_reconstructs_from_serialised_frame(self):
        config = SensorConfig(rows=32, cols=32)
        imager = CompressiveImager(config, seed=77)
        scene = make_scene("blobs", (32, 32), seed=3)
        conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        frame = imager.capture(conversion.convert(scene), n_samples=400)

        payload = json.loads(serialise(frame))

        phi = ca_measurement_matrix(
            len(payload["samples"]),
            payload["rows"],
            payload["cols"],
            np.array(payload["seed_state"], dtype=np.uint8),
            rule=payload["rule"],
            steps_per_sample=payload["steps_per_sample"],
            warmup_steps=payload["warmup_steps"],
        )
        result = reconstruct_samples(
            phi,
            np.array(payload["samples"], dtype=float),
            (payload["rows"], payload["cols"]),
            max_iterations=150,
            reference=frame.digital_image,
        )
        assert result.metrics["psnr_db"] > 22.0

    def test_channel_payload_is_small(self):
        """The seed is rows+cols bits — negligible next to the samples themselves."""
        config = SensorConfig(rows=64, cols=64)
        imager = CompressiveImager(config, seed=78)
        frame = imager.capture_scene(make_scene("natural", (64, 64), seed=4), n_samples=100)
        seed_bits = frame.seed_state.size
        phi_bits_if_transmitted = frame.n_samples * config.n_pixels
        assert seed_bits == 128
        assert seed_bits < phi_bits_if_transmitted / 1000

    def test_wrong_seed_breaks_reconstruction(self):
        """Using a different seed at the receiver must destroy the image."""
        config = SensorConfig(rows=32, cols=32)
        imager = CompressiveImager(config, seed=79)
        scene = make_scene("blobs", (32, 32), seed=5)
        conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        frame = imager.capture(conversion.convert(scene), n_samples=400)

        wrong_seed = frame.seed_state.copy()
        wrong_seed[:8] ^= 1  # corrupt the seed
        wrong_phi = ca_measurement_matrix(
            frame.n_samples, 32, 32, wrong_seed,
            steps_per_sample=frame.steps_per_sample, warmup_steps=frame.warmup_steps,
        )
        correct_phi = frame.measurement_matrix()
        wrong = reconstruct_samples(
            wrong_phi, frame.samples.astype(float), (32, 32), max_iterations=100,
            reference=frame.digital_image,
        )
        right = reconstruct_samples(
            correct_phi, frame.samples.astype(float), (32, 32), max_iterations=100,
            reference=frame.digital_image,
        )
        assert right.metrics["psnr_db"] > wrong.metrics["psnr_db"] + 5.0
