"""ReceiverHub behaviour: fairness, watermarks, demux, failure isolation.

The fleet-scale contract decomposes into pieces each pinned here:

* :class:`~repro.stream.hub.FairSolveScheduler` dispatches round-robin
  across streams (deterministic ``dispatch_order`` assertions) and its two
  watermark levels suspend only the submitting stream;
* the hub demuxes by wire stream id, rejects concurrent duplicates with a
  *typed* error, bounds admission via ``max_streams``, and a dying
  connection tears down only its own sessions;
* the fifth architecture invariant: a hub session serving a single node
  reconstructs **byte-identically** to :class:`StreamReceiver` (which is
  itself pinned byte-identical to in-process reconstruction) — the fleet
  path is the single-node path, many times over.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.sensor.shard import TiledSensorArray
from repro.stream.hub import (
    DuplicateStreamIdError,
    FairSolveScheduler,
    HubCapacityError,
    ReceiverHub,
)
from repro.stream.node import CameraNode
from repro.stream.protocol import (
    Chunk,
    ChunkType,
    StreamHeader,
    StreamProtocolError,
    encode_chunk,
    encode_payload,
)
from repro.stream.receiver import StreamReceiver
from repro.stream.session import StreamSession
from repro.stream.transport import LoopbackTransport, connect_tcp
from repro.telemetry import percentile


CONFIG = SensorConfig(rows=16, cols=16)


def run(coro):
    return asyncio.run(coro)


def _start_chunk(stream_id, kind="frame", shape=(16, 16)):
    header = StreamHeader(kind=kind, scene_shape=shape, tile_shape=shape)
    return encode_chunk(
        Chunk(
            chunk_type=ChunkType.STREAM_START,
            stream_id=stream_id,
            sequence=0,
            payload=encode_payload(header),
        )
    )


class _Gate:
    """A job factory whose jobs block (in the worker thread) until released."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def job(self, value):
        def work():
            self.started.set()
            assert self.release.wait(timeout=10.0)
            return value

        return work


class TestFairSolveScheduler:
    def test_round_robin_across_streams(self):
        """A stream with many queued jobs yields to other streams' queues."""

        async def scenario():
            scheduler = FairSolveScheduler(slots=1, per_stream_pending=None)
            gate = _Gate()
            futures = [await scheduler.submit(1, gate.job("a1"))]
            # a1 is now the running job; everything below queues behind it.
            await asyncio.get_running_loop().run_in_executor(
                None, gate.started.wait
            )
            futures.append(await scheduler.submit(1, lambda: "a2"))
            futures.append(await scheduler.submit(1, lambda: "a3"))
            futures.append(await scheduler.submit(2, lambda: "b1"))
            futures.append(await scheduler.submit(2, lambda: "b2"))
            gate.release.set()
            results = await asyncio.gather(*futures)
            await scheduler.close()
            return list(scheduler.dispatch_order), results

        order, results = run(scenario())
        # Stream 1 had three jobs queued before stream 2's two, yet the
        # dispatcher alternates instead of draining stream 1 first.
        assert order == [1, 1, 2, 1, 2]
        assert results == ["a1", "a2", "a3", "b1", "b2"]

    def test_per_stream_watermark_suspends_only_that_stream(self):
        async def scenario():
            scheduler = FairSolveScheduler(slots=1, per_stream_pending=1)
            gate = _Gate()
            blocked = await scheduler.submit(1, gate.job("a1"))
            await asyncio.get_running_loop().run_in_executor(
                None, gate.started.wait
            )
            # Stream 1 is at its watermark: another submit must suspend...
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    scheduler.submit(1, lambda: "a2"), timeout=0.05
                )
            # ...while stream 2 submits immediately.
            other = await asyncio.wait_for(
                scheduler.submit(2, lambda: "b1"), timeout=1.0
            )
            gate.release.set()
            results = await asyncio.gather(blocked, other)
            # With the first job done, stream 1 has space again.
            retried = await scheduler.submit(1, lambda: "a2")
            results.append(await retried)
            await scheduler.close()
            return results

        assert run(scenario()) == ["a1", "b1", "a2"]

    def test_global_watermark_bounds_total_pending(self):
        async def scenario():
            scheduler = FairSolveScheduler(
                slots=1, per_stream_pending=None, max_pending=2
            )
            gate = _Gate()
            first = await scheduler.submit(1, gate.job("a1"))
            second = await scheduler.submit(2, lambda: "b1")
            assert scheduler.pending() == 2
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    scheduler.submit(3, lambda: "c1"), timeout=0.05
                )
            gate.release.set()
            results = [await first, await second]
            third = await asyncio.wait_for(
                scheduler.submit(3, lambda: "c1"), timeout=1.0
            )
            results.append(await third)
            await scheduler.close()
            return results

        assert run(scenario()) == ["a1", "b1", "c1"]

    def test_job_errors_propagate_through_the_future(self):
        async def scenario():
            scheduler = FairSolveScheduler(slots=1)

            def boom():
                raise ValueError("solver exploded")

            future = await scheduler.submit(1, boom)
            with pytest.raises(ValueError, match="solver exploded"):
                await future
            await scheduler.close()

        run(scenario())


class TestPercentile:
    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], 101)


class TestHubAdmission:
    def test_duplicate_stream_id_rejected_with_typed_error(self):
        """Two live connections may not share a stream id."""

        async def scenario():
            hub = ReceiverHub(reconstruct=False)
            holder = LoopbackTransport(max_buffered=4)
            # Connection 1 opens stream id 9 and stays live (no end chunk).
            await holder.send(_start_chunk(9))
            holder_task = asyncio.create_task(hub.attach(holder))
            await asyncio.sleep(0.01)
            assert hub.n_active == 1
            # Connection 2 tries to open the same id.
            intruder = LoopbackTransport(max_buffered=4)
            await intruder.send(_start_chunk(9))
            with pytest.raises(DuplicateStreamIdError, match="stream id 9"):
                await hub.attach(intruder)
            # The legitimate session is unaffected by the rejection.
            assert hub.n_active == 1
            holder_task.cancel()
            await asyncio.gather(holder_task, return_exceptions=True)
            await hub.close()

        run(scenario())

    def test_duplicate_is_a_protocol_error_subclass(self):
        assert issubclass(DuplicateStreamIdError, StreamProtocolError)
        assert issubclass(HubCapacityError, StreamProtocolError)

    def test_max_streams_refuses_admission(self):
        async def scenario():
            hub = ReceiverHub(reconstruct=False, max_streams=1)
            holder = LoopbackTransport(max_buffered=4)
            await holder.send(_start_chunk(1))
            holder_task = asyncio.create_task(hub.attach(holder))
            await asyncio.sleep(0.01)
            overflow = LoopbackTransport(max_buffered=4)
            await overflow.send(_start_chunk(2))
            with pytest.raises(HubCapacityError, match="max_streams"):
                await hub.attach(overflow)
            holder_task.cancel()
            await asyncio.gather(holder_task, return_exceptions=True)
            await hub.close()

        run(scenario())

    def test_stream_id_reusable_after_completion(self):
        """Ids recycle sequentially — only *concurrent* duplicates clash."""
        imager = CompressiveImager(CONFIG, seed=3)
        scenes = [make_scene("blobs", (16, 16), seed=0)]

        async def scenario():
            hub = ReceiverHub(reconstruct=False)
            for _ in range(2):
                transport = LoopbackTransport(max_buffered=16)
                node = CameraNode(transport, stream_id=7)
                send = asyncio.create_task(node.stream_frames(imager, scenes))
                await hub.attach(transport)
                await send
            await hub.close()
            return hub

        hub = run(scenario())
        assert len(hub.completed) == 2
        assert all(result.stream_id == 7 for result in hub.completed)


class TestFailureIsolation:
    def test_disconnect_mid_frame_drops_only_that_session(self):
        imager = CompressiveImager(CONFIG, seed=3)
        scenes = [make_scene("blobs", (16, 16), seed=index) for index in range(2)]

        async def scenario():
            hub = ReceiverHub(reconstruct=False)
            # The dying connection: a stream start, then the wire goes dark.
            dying = LoopbackTransport(max_buffered=4)
            await dying.send(_start_chunk(1))
            await dying.close()
            # The healthy connection streams normally, concurrently.
            healthy = LoopbackTransport(max_buffered=16)
            node = CameraNode(healthy, stream_id=2)
            send = asyncio.create_task(node.stream_frames(imager, scenes))
            dying_attach = asyncio.create_task(hub.attach(dying))
            healthy_results = await hub.attach(healthy)
            await send
            with pytest.raises(StreamProtocolError, match="closed before"):
                await dying_attach
            await hub.close()
            return hub, healthy_results

        hub, results = run(scenario())
        # Only the dead connection failed; the healthy stream is complete.
        assert len(hub.failures) == 1
        assert isinstance(hub.failures[0], StreamProtocolError)
        assert len(results) == 1
        assert results[0].stream_id == 2
        assert results[0].n_frames == 2
        # The dead session released its id and left no live state behind.
        assert hub.n_active == 0

    def test_failed_session_leaves_partial_stats_readable(self):
        async def scenario():
            hub = ReceiverHub(reconstruct=False)
            dying = LoopbackTransport(max_buffered=4)
            await dying.send(_start_chunk(5))
            await dying.close()
            with pytest.raises(StreamProtocolError, match="closed before"):
                await hub.attach(dying)
            await hub.close()
            return hub

        hub = run(scenario())
        stats = hub.session_stats[5]
        assert stats.n_chunks == 1
        assert stats.n_bytes > 0


class TestSingleSessionByteIdentity:
    """The fifth invariant: hub(single node) ≡ StreamReceiver, byte for byte."""

    RECON_KWARGS = dict(solver="fista", max_iterations=10)
    SCENES = 2

    def _array(self):
        return TiledSensorArray(
            (32, 32),
            tile_shape=(16, 16),
            compression_ratio=0.2,
            max_workers=1,
            seed=13,
        )

    def _scenes(self):
        return [
            make_scene("blobs", (32, 32), seed=50 + index)
            for index in range(self.SCENES)
        ]

    def _stream_through(self, consume):
        async def scenario():
            transport = LoopbackTransport(max_buffered=8)
            node = CameraNode(transport, gop_size=self.SCENES)
            send = asyncio.create_task(
                node.stream_tiled_video(self._array(), self._scenes())
            )
            result = await consume(transport)
            await send
            return result

        return run(scenario())

    def test_hub_session_matches_stream_receiver(self):
        async def via_hub(transport):
            hub = ReceiverHub(**self.RECON_KWARGS)
            try:
                return (await hub.attach(transport))[0]
            finally:
                await hub.close()

        async def via_receiver(transport):
            return await StreamReceiver(**self.RECON_KWARGS).run(transport)

        hub_result = self._stream_through(via_hub)
        receiver_result = self._stream_through(via_receiver)
        assert hub_result.n_frames == receiver_result.n_frames == self.SCENES
        assert hub_result.n_chunks == receiver_result.n_chunks
        assert hub_result.n_bytes == receiver_result.n_bytes
        for ours, theirs in zip(hub_result.frames, receiver_result.frames):
            assert np.array_equal(ours.capture.samples, theirs.capture.samples)
            ours_image = ours.reconstruction.image
            theirs_image = theirs.reconstruction.image
            assert ours_image.dtype == theirs_image.dtype
            assert ours_image.tobytes() == theirs_image.tobytes()

    @pytest.mark.parametrize("option", ["max_streams", "resume_grace", "bogus"])
    def test_stream_receiver_refuses_options_its_hub_cannot_honour(self, option):
        # Options are forwarded to the private hub, so a typo or a fleet
        # knob fails at construction instead of being silently dropped.
        with pytest.raises(TypeError):
            StreamReceiver(**{option: 1})

    @pytest.mark.parametrize("factory", [ReceiverHub, StreamReceiver])
    @pytest.mark.parametrize("solver", ["omp", "iht", "bogus"])
    def test_non_proximal_solver_rejected_at_construction(self, factory, solver):
        # Before any stream arrives, not when its first frame reaches the
        # solver thread and fails the whole run().
        with pytest.raises(ValueError, match="solver"):
            factory(solver=solver)

    @pytest.mark.parametrize("factory", [ReceiverHub, StreamReceiver])
    def test_sparsity_is_not_an_option(self, factory):
        with pytest.raises(TypeError, match="sparsity"):
            factory(sparsity=12)


def _session(**options):
    return StreamSession(1, None, **options)


@pytest.mark.parametrize("factory", [ReceiverHub, StreamReceiver, _session])
@pytest.mark.parametrize("option", ["operator", "min_surviving_samples"])
def test_operator_is_not_an_option(factory, option):
    """Streamed solves are structured only, and a landed frame always solves:
    the dense reference lives on ``reconstruct_frame``, and no sample floor
    can drop a frame whose tiles decoded."""
    with pytest.raises(TypeError, match=option):
        factory(**{option: 1})


class TestSlowConsumerIsolation:
    def test_backpressured_stream_does_not_stall_others(self):
        """One stream at its solve watermark must not delay another's frames."""

        async def scenario():
            hub = ReceiverHub(reconstruct=False)
            gate = _Gate()
            # Jam stream 1 at a per-stream watermark of 1 with a solve that
            # won't finish until released.
            hub.scheduler.per_stream_pending = 1
            jammed = await hub.scheduler.submit(1, gate.job("slow"))
            await asyncio.get_running_loop().run_in_executor(
                None, gate.started.wait
            )
            blocked = asyncio.create_task(
                hub.scheduler.submit(1, lambda: "queued")
            )
            await asyncio.sleep(0.01)
            assert not blocked.done()  # stream 1 is suspended...
            # ...while stream 2's whole ingest path flows end to end.
            imager = CompressiveImager(CONFIG, seed=3)
            scenes = [make_scene("blobs", (16, 16), seed=0)]
            transport = LoopbackTransport(max_buffered=16)
            node = CameraNode(transport, stream_id=2)
            send = asyncio.create_task(node.stream_frames(imager, scenes))
            results = await asyncio.wait_for(hub.attach(transport), timeout=5.0)
            await send
            assert results[0].n_frames == 1
            gate.release.set()
            await jammed
            await (await blocked)
            await hub.close()

        run(scenario())


class TestHubOverTcp:
    def test_many_nodes_over_real_sockets(self):
        n_nodes = 5
        imager_seed = 3
        scenes = [make_scene("blobs", (16, 16), seed=9)]

        async def scenario():
            hub = ReceiverHub(reconstruct=False)
            server, port = await hub.serve()
            assert server.sockets

            async def one_node(stream_id):
                transport = await connect_tcp("127.0.0.1", port)
                node = CameraNode(transport, stream_id=stream_id)
                imager = CompressiveImager(CONFIG, seed=imager_seed)
                return await node.stream_frames(imager, scenes)

            await asyncio.gather(
                *(one_node(stream_id) for stream_id in range(1, n_nodes + 1))
            )
            await asyncio.wait_for(hub.drain(), timeout=10.0)
            await hub.close()
            return hub

        hub = run(scenario())
        assert len(hub.completed) == n_nodes
        assert sorted(result.stream_id for result in hub.completed) == list(
            range(1, n_nodes + 1)
        )
        reference = CompressiveImager(CONFIG, seed=imager_seed)
        expected = reference.capture_scene(scenes[0])
        for result in hub.completed:
            assert result.n_frames == 1
            assert np.array_equal(result.frames[0].capture.samples, expected.samples)
        snapshot = hub.stats()
        assert snapshot.n_completed == n_nodes
        assert snapshot.n_frames == n_nodes
        assert snapshot.n_failed == 0
