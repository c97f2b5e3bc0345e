"""``HubStats`` as a view of the registry: counted at the event, bounded.

The hub keeps no per-session history for its telemetry: every session counts
its events into the registry series of ``STATS_SERIES`` as they happen, the
hub counts its own, and ``hub.stats()`` / ``hub.metrics()`` read those
instruments back.  Pinned here:

* **sums** — every ``HubStats`` counter is the sum of the sessions'
  ``SessionStats``, and every ``repro_hub_*_total`` equals its field;
* **monotonic** — no ``*_total`` sample ever goes down between scrapes
  (lost chunks, a level a reordered arrival lowers, is a gauge);
* **nothing retained** — a long-lived hub serving many sequential streams
  holds neither their stats objects nor new series, and keeps only the last
  ``STATS_WINDOW`` stream results and connection errors;
* **windows** — latencies and loss reports keep the last ``STATS_WINDOW``
  entries while the histogram still counts every frame.
"""

import asyncio
import gc
import weakref

import pytest

import repro.stream.hub as hub_module
import repro.stream.session as session_module
from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.video import VideoSequencer
from repro.stream.fault import LossyTransport
from repro.stream.hub import ReceiverHub
from repro.stream.node import CameraNode
from repro.stream.protocol import StreamProtocolError
from repro.stream.session import STATS_SERIES
from repro.stream.transport import LoopbackTransport
from repro.telemetry import Telemetry

CONFIG = SensorConfig(rows=16, cols=16)

#: The hub's own ``*_total`` series and the ``HubStats`` field each mirrors.
HUB_OWN_TOTALS = {
    "repro_hub_streams_completed_total": "n_completed",
    "repro_hub_streams_failed_total": "n_failed",
    "repro_hub_solves_dispatched_total": "solves_dispatched",
    "repro_hub_sessions_parked_total": "n_parked",
    "repro_hub_sessions_resumed_total": "n_resumed",
    "repro_hub_resumes_expired_total": "n_resume_expired",
    "repro_hub_sessions_reaped_total": "n_reaped",
    "repro_hub_drains_total": "n_drained",
}


def run(coro):
    return asyncio.run(coro)


def _sequencer(seed=7, samples=50):
    return VideoSequencer(
        CompressiveImager(CONFIG, seed=seed), samples_per_frame=samples, seed=seed
    )


def _scenes(n, seed=0):
    return [make_scene("blobs", (16, 16), seed=seed + index) for index in range(n)]


class RecordingTransport:
    """Swallows every sent slice into a list (no receiver on the other end)."""

    def __init__(self):
        self.slices = []

    async def send(self, data):
        self.slices.append(bytes(data))

    async def recv(self):
        return None

    async def close(self):
        pass


class ScrapingTransport:
    """Receives from ``inner``, scraping the hub's metrics before every recv."""

    def __init__(self, inner, hub):
        self.inner = inner
        self.hub = hub
        self.scrapes = []

    async def send(self, data):
        await self.inner.send(data)

    async def recv(self):
        self.scrapes.append(self.hub.metrics())
        return await self.inner.recv()

    async def close(self):
        await self.inner.close()


class QuadraticClock:
    """A deterministic clock whose steps grow, so every frame's latency differs."""

    def __init__(self):
        self.calls = 0

    def now(self):
        self.calls += 1
        return float(self.calls * self.calls)


async def _record(n_frames, **node_options):
    transport = RecordingTransport()
    node = CameraNode(transport, **node_options)
    await node.stream_video(_sequencer(), _scenes(n_frames))
    return transport.slices


async def _replay(hub, slices):
    transport = LoopbackTransport(max_buffered=len(slices) + 1)
    for data in slices:
        await transport.send(data)
    await transport.close()
    return await hub.attach(transport)


def _series(snapshot):
    return {(sample.name, sample.labels) for sample in snapshot}


class TestMonotonicScrapes:
    def test_no_total_goes_down_between_scrapes(self):
        async def scenario():
            transport = LoopbackTransport(max_buffered=64)
            lossy = LossyTransport(transport, seed=3, reorder_rate=0.3)
            hub = ReceiverHub(resilient=True, reconstruct=False)
            scraping = ScrapingTransport(transport, hub)
            node = CameraNode(lossy, gop_size=6, segments_per_frame=4)
            send = asyncio.create_task(node.stream_video(_sequencer(), _scenes(6)))
            try:
                await hub.attach(scraping, expected_streams=1)
            finally:
                await hub.close()
            await send
            scraping.scrapes.append(hub.metrics())
            return lossy, hub, scraping.scrapes

        lossy, hub, scrapes = run(scenario())
        assert lossy.reordered
        for before, after in zip(scrapes, scrapes[1:]):
            for sample in after:
                if not sample.name.endswith("_total"):
                    continue
                previous = before.get(sample.name, dict(sample.labels))
                if previous is not None:
                    assert sample.value >= previous.value, sample.name
        # Lost chunks is a level: the gauge rose while chunks were missing
        # and the reordered arrivals brought it back to the final count.
        lost = [scrape.value("repro_hub_lost_chunks") for scrape in scrapes[1:]]
        assert max(lost) > lost[-1] == hub.stats().n_lost_chunks
        assert scrapes[-1].get("repro_hub_lost_chunks_total") is None


class TestSums:
    @pytest.fixture(scope="class")
    def fleet(self):
        async def one_node(hub, stream_id, seed):
            transport = LoopbackTransport(max_buffered=64)
            lossy = LossyTransport(
                transport,
                seed=seed,
                drop_rate=0.1,
                duplicate_rate=0.1,
                reorder_rate=0.1,
            )
            node = CameraNode(
                lossy, stream_id=stream_id, gop_size=4, segments_per_frame=4, parity=True
            )
            send = asyncio.create_task(node.stream_video(_sequencer(), _scenes(8)))
            await hub.attach(transport, expected_streams=1)
            await send
            return lossy

        async def scenario():
            hub = ReceiverHub(resilient=True, max_iterations=8)
            try:
                channels = await asyncio.gather(
                    *(one_node(hub, stream_id, 40 + stream_id) for stream_id in (1, 2, 3))
                )
            finally:
                await hub.close()
            return hub, channels

        return run(scenario())

    def test_the_channels_were_lossy(self, fleet):
        _, channels = fleet
        for channel in channels:
            assert channel.dropped and channel.duplicated and channel.reordered

    def test_every_hub_counter_is_the_sum_over_sessions(self, fleet):
        hub, _ = fleet
        stats = hub.stats()
        sessions = [hub.session_stats[stream_id] for stream_id in (1, 2, 3)]
        for name, (hub_series, _, _, _) in STATS_SERIES.items():
            if hub_series is not None:
                expected = sum(getattr(session, name) for session in sessions)
                assert getattr(stats, name) == expected, name
        assert stats.n_lost_chunks > 0
        assert stats.n_duplicate_chunks > 0
        assert stats.n_reordered_chunks > 0
        assert stats.n_completed == 3
        assert len(stats.frame_latencies) == stats.n_frames == 24

    def test_every_hub_total_equals_its_field(self, fleet):
        hub, _ = fleet
        stats = hub.stats()
        snapshot = hub.metrics()
        fields = dict(HUB_OWN_TOTALS)
        fields.update(
            (series, name)
            for name, (series, _, _, _) in STATS_SERIES.items()
            if series is not None
        )
        totals = [
            sample
            for sample in snapshot
            if sample.name.startswith("repro_hub_") and sample.name.endswith("_total")
        ]
        assert {sample.name for sample in totals} <= set(fields)
        assert len(totals) == len(fields) - 1  # lost chunks is the gauge
        for sample in totals:
            assert sample.value == getattr(stats, fields[sample.name]), sample.name
        assert snapshot.value("repro_hub_lost_chunks") == stats.n_lost_chunks
        latency = snapshot.get("repro_hub_frame_latency_seconds")
        assert latency.count == stats.n_frames


class TestNothingRetained:
    N_STREAMS = 50

    def test_sequential_streams_on_one_id(self):
        def counts(hub):
            return {name: getattr(hub.session_stats[1], name) for name in STATS_SERIES}

        async def scenario():
            slices = await _record(4, gop_size=4)
            hub = ReceiverHub(reconstruct=False)
            await _replay(hub, slices)
            first = weakref.ref(hub.session_stats[1])
            per_stream = [counts(hub)]
            after_one = hub.metrics()
            for _ in range(self.N_STREAMS - 1):
                await _replay(hub, slices)
                per_stream.append(counts(hub))
            await hub.close()
            return hub, first, after_one, per_stream

        hub, first, after_one, per_stream = run(scenario())
        gc.collect()
        assert first() is None
        after_all = hub.metrics()
        assert _series(after_all) == _series(after_one)
        for name, (_, _, series, _) in STATS_SERIES.items():
            if series is not None:
                total = sum(counts[name] for counts in per_stream)
                assert after_all.value(series, {"stream": 1}) == total, name
        assert after_all.value("repro_session_frames_total", {"stream": 1}) == (
            4 * self.N_STREAMS
        )
        # The latest session's own counts stay readable per id.
        assert hub.session_stats[1].n_frames == 4

    def test_results_and_failures_keep_the_last_entries(self, monkeypatch):
        monkeypatch.setattr(hub_module, "STATS_WINDOW", 3)

        async def scenario():
            slices = await _record(2, gop_size=2)
            hub = ReceiverHub(reconstruct=False)
            await _replay(hub, slices)
            first = weakref.ref(hub.completed[0])
            for _ in range(self.N_STREAMS - 1):
                await _replay(hub, slices)
            for _ in range(5):
                with pytest.raises(StreamProtocolError):
                    await _replay(hub, slices[:-1])
            await hub.close()
            return hub, first

        hub, first = run(scenario())
        gc.collect()
        assert first() is None
        assert len(hub.completed) == 3
        assert len(hub.failures) == 3
        snapshot = hub.metrics()
        assert snapshot.value("repro_hub_streams_completed_total") == self.N_STREAMS
        assert snapshot.value("repro_hub_streams_failed_total") == 5

    def test_close_hands_freed_memory_back(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hub_module, "release_freed_memory", lambda: calls.append(1))

        async def scenario():
            hub = ReceiverHub(reconstruct=False)
            await _replay(hub, await _record(2, gop_size=2))
            assert calls == []
            await hub.close()

        run(scenario())
        assert calls == [1]


class TestWindows:
    N_FRAMES = 8
    WINDOW = 3

    @staticmethod
    def _stream(slices):
        async def scenario():
            telemetry = Telemetry(enabled=False, clock=QuadraticClock())
            hub = ReceiverHub(resilient=True, reconstruct=False, telemetry=telemetry)
            await _replay(hub, slices)
            await hub.close()
            return hub

        return run(scenario())

    def test_windows_keep_the_last_entries(self, monkeypatch):
        slices = run(_record(self.N_FRAMES, gop_size=4, segments_per_frame=2))
        reference = self._stream(slices)
        monkeypatch.setattr(session_module, "STATS_WINDOW", self.WINDOW)
        hub = self._stream(slices)

        full = reference.session_stats[1]
        stats = hub.session_stats[1]
        assert len(full.frame_latencies) == self.N_FRAMES
        assert len(set(full.frame_latencies)) == self.N_FRAMES
        assert list(stats.frame_latencies) == list(full.frame_latencies)[-self.WINDOW :]
        assert list(stats.frame_loss) == list(full.frame_loss)[-self.WINDOW :]
        assert [report.frame_index for report in stats.frame_loss] == [5, 6, 7]
        hub_stats = hub.stats()
        assert hub_stats.frame_latencies == list(stats.frame_latencies)
        assert hub_stats.n_frames == stats.n_frames == self.N_FRAMES
        latency = hub.metrics().get("repro_hub_frame_latency_seconds")
        assert latency.count == self.N_FRAMES
        assert latency.sum == pytest.approx(sum(full.frame_latencies))
