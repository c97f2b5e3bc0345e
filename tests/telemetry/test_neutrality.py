"""Telemetry neutrality + end-to-end trace acceptance.

Two system-level guarantees of the telemetry layer:

* **Bit-neutrality** — instrumenting a streamed 64×64 video (spans, stage
  histograms, hub metrics, solver profiles) changes *no* reconstructed
  byte and *no* RNG draw: telemetry on, telemetry constructed-but-disabled
  and telemetry absent produce identical frames — including the resilient
  path under a seeded :class:`~repro.stream.fault.LossyTransport`;
* **Trace completeness** — over loopback with one shared facade, every
  frame's trace shows all six pipeline stages
  (capture → encode → transport → decode → queue_wait → solve), and
  ``hub.metrics()`` round-trips through both renderers.
"""

import asyncio

import numpy as np
import pytest

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.video import VideoSequencer
from repro.stream.fault import LossyTransport
from repro.stream.hub import ReceiverHub
from repro.stream.node import CameraNode
from repro.stream.receiver import StreamReceiver
from repro.stream.transport import LoopbackTransport
from repro.telemetry import (
    STAGES,
    MetricsSnapshot,
    Telemetry,
    parse_prometheus,
)

CONFIG = SensorConfig(rows=64, cols=64)
N_FRAMES = 3
RECON_KWARGS = dict(max_iterations=5)


def run(coro):
    return asyncio.run(coro)


def _sequencer(samples=400, seed=7):
    return VideoSequencer(
        CompressiveImager(CONFIG, seed=seed), samples_per_frame=samples, seed=seed
    )


def _scenes(n=N_FRAMES, seed=0):
    return [make_scene("blobs", (64, 64), seed=seed + index) for index in range(n)]


def _frame_bytes(result):
    payload = []
    for frame in result.frames:
        payload.append(frame.capture.samples.tobytes())
        if frame.reconstruction is not None:
            payload.append(frame.reconstruction.image.tobytes())
    return payload


async def _stream_video(telemetry):
    transport = LoopbackTransport(max_buffered=8)
    node = CameraNode(transport, gop_size=N_FRAMES, telemetry=telemetry)
    receiver = StreamReceiver(telemetry=telemetry, **RECON_KWARGS)
    send_task = asyncio.create_task(node.stream_video(_sequencer(), _scenes()))
    result = await receiver.run(transport)
    await send_task
    return result


async def _stream_lossy_video(telemetry):
    transport = LoopbackTransport(max_buffered=64)
    lossy = LossyTransport(transport, seed=5, drop_rate=0.1)
    hub = ReceiverHub(resilient=True, telemetry=telemetry, **RECON_KWARGS)
    node = CameraNode(
        lossy, gop_size=4, segments_per_frame=4, parity=True, telemetry=telemetry
    )
    send_task = asyncio.create_task(node.stream_video(_sequencer(), _scenes()))
    try:
        results = await hub.attach(transport, expected_streams=1)
    finally:
        await hub.close()
    await send_task
    return results[0]


class TestByteNeutrality:
    """telemetry=None ≡ Telemetry(enabled=False) ≡ Telemetry(), byte for byte."""

    @pytest.fixture(scope="class", params=["clean", "lossy"])
    def three_runs(self, request):
        scenario = _stream_video if request.param == "clean" else _stream_lossy_video
        absent = run(scenario(None))
        disabled = run(scenario(Telemetry(enabled=False)))
        enabled = run(scenario(Telemetry()))
        return absent, disabled, enabled

    def test_all_frames_landed(self, three_runs):
        for result in three_runs:
            assert result.n_frames == N_FRAMES

    def test_instrumentation_changes_no_byte(self, three_runs):
        absent, disabled, enabled = three_runs
        reference = _frame_bytes(absent)
        assert _frame_bytes(disabled) == reference
        assert _frame_bytes(enabled) == reference


class TestTraceCompleteness:
    """The acceptance pin: one shared facade sees all six stages per frame."""

    @pytest.fixture(scope="class")
    def traced(self):
        telemetry = Telemetry()
        result = run(_stream_video(telemetry))
        return telemetry, result

    def test_every_frame_shows_all_six_stages(self, traced):
        telemetry, result = traced
        assert result.n_frames == N_FRAMES
        for frame_index in range(N_FRAMES):
            traces = [
                t for t in telemetry.tracer.traces() if t.frame_index == frame_index
            ]
            assert len(traces) == 1
            stages = traces[0].as_dict()
            missing = [stage for stage in STAGES if stage not in stages]
            assert missing == [], f"frame {frame_index} missing stages {missing}"
            assert tuple(stages) == STAGES

    def test_stage_histogram_saw_every_frame(self, traced):
        telemetry, _ = traced
        snapshot = telemetry.metrics()
        for stage in STAGES:
            sample = snapshot.get("repro_stage_seconds", {"stage": stage})
            assert sample is not None, stage
            assert sample.count >= N_FRAMES

    def test_slowest_ranking_covers_the_stream(self, traced):
        telemetry, _ = traced
        slowest = telemetry.tracer.slowest(N_FRAMES)
        assert len(slowest) == N_FRAMES
        totals = [trace.total for trace in slowest]
        assert totals == sorted(totals, reverse=True)


class TestHubMetricsRoundTrip:
    """``hub.metrics()`` works with or without telemetry and round-trips."""

    @pytest.fixture(scope="class")
    def hub_and_result(self):
        async def scenario():
            transport = LoopbackTransport(max_buffered=8)
            hub = ReceiverHub(**RECON_KWARGS)
            node = CameraNode(transport, gop_size=N_FRAMES)
            send_task = asyncio.create_task(
                node.stream_video(_sequencer(), _scenes())
            )
            try:
                results = await hub.attach(transport, expected_streams=1)
            finally:
                await hub.close()
            await send_task
            return hub, results[0]

        return run(scenario())

    def test_metrics_mirror_hub_stats(self, hub_and_result):
        hub, result = hub_and_result
        stats = hub.stats()
        snapshot = hub.metrics()
        assert snapshot.value("repro_hub_frames_total") == stats.n_frames
        assert snapshot.value("repro_hub_bytes_total") == stats.n_bytes == result.n_bytes
        assert snapshot.value("repro_hub_streams_completed_total") == 1.0
        assert snapshot.value("repro_session_frames_total", {"stream": 1}) == N_FRAMES
        latency = snapshot.get("repro_hub_frame_latency_seconds")
        assert latency is not None and latency.count == N_FRAMES

    def test_prometheus_and_json_round_trip(self, hub_and_result):
        hub, _ = hub_and_result
        snapshot = hub.metrics()
        assert MetricsSnapshot.from_json(snapshot.to_json()) == snapshot
        parsed = parse_prometheus(snapshot.render_prometheus())
        assert parsed[("repro_hub_frames_total", ())] == snapshot.value(
            "repro_hub_frames_total"
        )
        # Quantile gauges ride along with the histogram.
        assert ("repro_hub_frame_latency_quantile_seconds", (("quantile", "0.5"),)) in (
            parsed
        )

    def test_numpy_scalars_never_leak_into_samples(self, hub_and_result):
        hub, _ = hub_and_result
        for sample in hub.metrics():
            if sample.value is not None:
                assert not isinstance(sample.value, np.generic)
