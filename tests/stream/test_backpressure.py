"""Solve back-pressure of one stream, pinned against a blocked solver executor.

Two guarantees of the submission path:

* a stream never holds more unfinished solves than its scheduler's
  ``per_stream_pending`` watermark — the one in-flight bound, for mosaic
  and single-sensor streams alike, whether frames settle one barrier at a
  time or a single ``STREAM_END`` settles several barrier-less frames at
  once, and on :class:`~repro.stream.hub.ReceiverHub` and
  :class:`~repro.stream.receiver.StreamReceiver` alike;
* solves reach ``scheduler.submit`` in frame order even when the reap loop's
  ``check_deadlines`` and the connection's ``handle_chunk`` run concurrently,
  including while one of them waits out the watermark.
"""

import asyncio
from concurrent.futures import Executor, Future

import pytest

from repro.stream.hub import FairSolveScheduler, ReceiverHub
from repro.stream.protocol import ChunkType, decode_payload, encode_chunk
from repro.stream.receiver import StreamReceiver
from repro.stream.session import StreamSession
from repro.telemetry import ManualClock, Telemetry
from tests.stream.recorded import frame_index_of, recorded_chunks

#: The hub's default ``per_stream_pending``.
LIMIT = 2
N_FRAMES = LIMIT + 2


class BlockedExecutor(Executor):
    """Takes every job and never runs it, so every solve stays unfinished."""

    def __init__(self):
        self.jobs = []

    def submit(self, fn, /, *args, **kwargs):
        self.jobs.append(fn)
        return Future()


class GatedScheduler:
    """Records each job on entry to ``submit`` and holds it while ``gate`` is shut.

    Build it inside the running loop: on Python 3.9 an ``asyncio.Event``
    binds to the loop current at construction.
    """

    def __init__(self):
        self.jobs = []
        self.gate = asyncio.Event()
        self.gate.set()

    async def submit(self, key, fn):
        self.jobs.append(fn)
        await self.gate.wait()
        future = asyncio.get_running_loop().create_future()
        future.set_result(None)
        return future


class ChunkFeed:
    """A transport that hands over pre-encoded chunks as fast as they are read."""

    def __init__(self, chunks):
        self.slices = [encode_chunk(chunk) for chunk in chunks]

    async def send(self, data):
        pass

    async def recv(self):
        return self.slices.pop(0) if self.slices else None

    async def close(self):
        pass


async def _feed(session, chunks):
    for chunk in chunks:
        await session.handle_chunk(chunk)


async def _spin(n=50):
    for _ in range(n):
        await asyncio.sleep(0)


async def _run_until_idle(coroutine, scheduler):
    """Run ``coroutine`` until the loop idles, then cancel it.

    Returns whether it was still parked and the scheduler's hub-wide
    pending count at that moment.
    """
    task = asyncio.ensure_future(coroutine)
    await _spin(500)
    if task.done():
        task.result()
        return False, scheduler().pending()
    pending = scheduler().pending()
    task.cancel()
    with pytest.raises(asyncio.CancelledError):
        await task
    return True, pending


def _blocked_scheduler():
    return FairSolveScheduler(per_stream_pending=LIMIT, executor=BlockedExecutor())


class TestPerStreamWatermark:
    def test_sequential_mosaic_barriers_stop_at_the_watermark(self):
        chunks = recorded_chunks("mosaic", N_FRAMES)

        async def scenario():
            scheduler = _blocked_scheduler()
            session = StreamSession(1, scheduler)
            parked = await _run_until_idle(_feed(session, chunks), lambda: scheduler)
            session.cancel()
            await scheduler.close()
            return parked

        assert asyncio.run(scenario()) == (True, LIMIT)

    def test_one_stream_end_settling_many_frames_stays_bounded(self):
        chunks = [
            chunk
            for chunk in recorded_chunks("mosaic", N_FRAMES)
            if chunk.chunk_type is not ChunkType.FRAME_COMPLETE
        ]
        assert chunks[-1].chunk_type is ChunkType.STREAM_END

        async def scenario():
            scheduler = _blocked_scheduler()
            session = StreamSession(1, scheduler, resilient=True)
            await _feed(session, chunks[:-1])
            assert not scheduler.pending()  # no barrier: nothing settled yet
            parked = await _run_until_idle(
                _feed(session, chunks[-1:]), lambda: scheduler
            )
            session.cancel()
            await scheduler.close()
            return parked

        assert asyncio.run(scenario()) == (True, LIMIT)


class _ObservedReceiver(StreamReceiver):
    """A receiver that keeps a handle on the private hub of its last run."""

    def _new_hub(self):
        self.hub = super()._new_hub()
        return self.hub


def _hub_bound(executor):
    hub = ReceiverHub(executor=executor, max_iterations=5)
    return hub.attach, lambda: hub.scheduler, hub.scheduler.per_stream_pending


def _receiver_bound(executor):
    receiver = _ObservedReceiver(executor=executor, max_iterations=5)
    return receiver.run, lambda: receiver.hub.scheduler, StreamReceiver.SOLVER_SLOTS


@pytest.mark.parametrize("make", [_hub_bound, _receiver_bound], ids=["hub", "receiver"])
def test_single_sensor_stream_holds_at_most_its_watermark(make):
    """A node that outruns a stalled solver is held at ``per_stream_pending``
    unfinished solves; it never queues every frame it sends."""
    n_frames = StreamReceiver.SOLVER_SLOTS + 3
    chunks = recorded_chunks("video", n_frames)

    async def scenario():
        serve, scheduler, bound = make(BlockedExecutor())
        stalled, pending = await _run_until_idle(serve(ChunkFeed(chunks)), scheduler)
        await scheduler().close()
        return stalled, pending, bound

    stalled, pending, bound = asyncio.run(scenario())
    assert stalled
    assert bound < n_frames
    assert pending == bound


def _lossy_stream(kind, lost_frame):
    """A segmented 4-frame stream missing one segment of ``lost_frame``,
    cut after that frame's barrier and after the next frame's barrier."""
    chunks = list(recorded_chunks(kind, 4, segments_per_frame=2))
    lost = next(
        index
        for index, chunk in enumerate(chunks)
        if chunk.chunk_type is ChunkType.FRAME_SEGMENT
        and frame_index_of(chunk) == lost_frame
        and decode_payload(chunk.chunk_type, chunk.payload).segment_index == 1
    )
    del chunks[lost]
    barriers = [
        index
        for index, chunk in enumerate(chunks)
        if chunk.chunk_type is ChunkType.FRAME_COMPLETE
    ]
    cut, then = barriers[lost_frame + 1] + 1, barriers[lost_frame + 2] + 1
    assert {frame_index_of(chunk) for chunk in chunks[cut:then]} == {lost_frame + 2}
    return chunks[:cut], chunks[cut:then], chunks[then:]


def _deadline_session(scheduler):
    return StreamSession(
        1,
        scheduler,
        resilient=True,
        frame_deadline=1.0,
        telemetry=Telemetry(enabled=False, clock=ManualClock()),
    )


def _submission_order(jobs, result):
    index_of = {id(frame.capture): frame.frame_index for frame in result.frames}
    return [index_of[id(job.args[0])] for job in jobs]


@pytest.mark.parametrize("kind", ["video", "mosaic"])
def test_concurrent_reap_and_ingest_submit_in_frame_order(kind):
    """The reap loop salvages frames 0-1 while the connection lands frame 2.

    Frame 0 loses a segment, so its barrier NACKs and defers it; frame 1
    waits behind it.  A ``check_deadlines`` past the grace salvages both and
    parks in ``submit``; ``handle_chunk`` then delivers frame 2's barrier
    while that submission is still pending.
    """
    before, during, after = _lossy_stream(kind, 0)

    async def scenario():
        scheduler = GatedScheduler()
        session = _deadline_session(scheduler)
        await _feed(session, before)
        assert session.stats.n_nacks_sent == 1 and not scheduler.jobs
        scheduler.gate.clear()
        reap = asyncio.create_task(session.check_deadlines(10.0))
        while not scheduler.jobs:
            await asyncio.sleep(0)
        ingest = asyncio.create_task(_feed(session, during))
        await _spin()
        scheduler.gate.set()
        await asyncio.gather(reap, ingest)
        await _feed(session, after)
        return scheduler.jobs, await session.finish()

    jobs, result = asyncio.run(scenario())
    order = _submission_order(jobs, result)
    assert order == sorted(order) == [frame.frame_index for frame in result.frames]
    assert len(order) == 4


class _ReleasableExecutor(BlockedExecutor):
    """Holds every job until :meth:`release_all`, then runs them all."""

    def __init__(self):
        super().__init__()
        self.futures = []
        self.released = False

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn)
        self.futures.append(future)
        if self.released:
            future.set_result(None)
        return future

    def release_all(self):
        self.released = True
        for future in self.futures:
            if not future.done():
                future.set_result(None)


def test_reap_waiting_at_the_watermark_keeps_frame_order():
    """At a watermark of one, the reap loop salvages frame 1 and waits in
    ``submit`` for frame 0's unfinished solve; frame 2's barrier lands
    meanwhile and must queue behind frame 1, not overtake it."""
    before, during, after = _lossy_stream("mosaic", 1)

    async def scenario():
        executor = _ReleasableExecutor()
        scheduler = FairSolveScheduler(per_stream_pending=1, executor=executor)
        session = _deadline_session(scheduler)
        await _feed(session, before)
        await _spin()
        assert session.stats.n_nacks_sent == 1 and len(executor.jobs) == 1
        reap = asyncio.create_task(session.check_deadlines(10.0))
        await _spin()
        ingest = asyncio.create_task(_feed(session, during))
        await _spin()
        assert len(executor.jobs) == 1  # both wait out the watermark
        executor.release_all()
        await asyncio.gather(reap, ingest)
        await _feed(session, after)
        result = await session.finish()
        await scheduler.close()
        return executor.jobs, result

    jobs, result = asyncio.run(scenario())
    order = _submission_order(jobs, result)
    assert order == sorted(order) == [frame.frame_index for frame in result.frames]
    assert len(order) == 4
