"""Solve back-pressure of one session, pinned against scheduler stubs.

Two guarantees of :class:`~repro.stream.session.StreamSession`'s submission
path:

* a mosaic session never holds more than
  :attr:`~repro.stream.session.StreamSession.MAX_INFLIGHT_TILED_SOLVES`
  unfinished solves — whether its frames settle one barrier at a time or a
  single ``STREAM_END`` settles several barrier-less frames at once;
* solves reach ``scheduler.submit`` in frame order even when the reap loop's
  ``check_deadlines`` and the connection's ``handle_chunk`` run concurrently,
  including while one of them waits out the in-flight bound.
"""

import asyncio

import pytest

from repro.stream.protocol import ChunkType, decode_payload
from repro.stream.session import StreamSession
from repro.telemetry import ManualClock, Telemetry
from tests.stream.recorded import frame_index_of, recorded_chunks

LIMIT = StreamSession.MAX_INFLIGHT_TILED_SOLVES
N_FRAMES = LIMIT + 2


class StallingScheduler:
    """Accepts every job at once; the futures it hands back never finish."""

    def __init__(self):
        self.futures = []
        self.peak_unfinished = 0

    async def submit(self, key, fn):
        future = asyncio.get_running_loop().create_future()
        self.futures.append(future)
        unfinished = sum(not done.done() for done in self.futures)
        self.peak_unfinished = max(self.peak_unfinished, unfinished)
        return future


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


class ManualScheduler:
    """Records each job; its future finishes when the test says so."""

    def __init__(self):
        self.jobs = []
        self.futures = []
        self.auto = False

    async def submit(self, key, fn):
        self.jobs.append(fn)
        future = asyncio.get_running_loop().create_future()
        self.futures.append(future)
        if self.auto:
            future.set_result(None)
        return future

    def finish_all(self):
        self.auto = True
        for future in self.futures:
            if not future.done():
                future.set_result(None)


async def _feed(session, chunks):
    for chunk in chunks:
        await session.handle_chunk(chunk)


async def _spin(n=50):
    for _ in range(n):
        await asyncio.sleep(0)


async def _stalls_on(session, chunks):
    """Feed ``chunks``; True when the feed is still parked after the loop idles."""
    task = asyncio.create_task(_feed(session, chunks))
    await _spin()
    if task.done():
        task.result()
        return False
    task.cancel()
    with pytest.raises(asyncio.CancelledError):
        await task
    session.cancel()
    return True


class TestInflightMosaicSolves:
    def test_sequential_barriers_wait_for_the_oldest_solve(self):
        chunks = recorded_chunks("mosaic", N_FRAMES)
        scheduler = StallingScheduler()
        session = StreamSession(1, scheduler)
        assert asyncio.run(_stalls_on(session, chunks))
        assert len(scheduler.futures) == LIMIT
        assert scheduler.peak_unfinished <= LIMIT

    def test_one_stream_end_settling_many_frames_stays_bounded(self):
        chunks = [
            chunk
            for chunk in recorded_chunks("mosaic", N_FRAMES)
            if chunk.chunk_type is not ChunkType.FRAME_COMPLETE
        ]
        assert chunks[-1].chunk_type is ChunkType.STREAM_END
        scheduler = StallingScheduler()
        session = StreamSession(1, scheduler, resilient=True)

        async def scenario():
            await _feed(session, chunks[:-1])
            assert not scheduler.futures  # no barrier: nothing settled yet
            return await _stalls_on(session, chunks[-1:])

        assert asyncio.run(scenario())
        assert len(scheduler.futures) == LIMIT
        assert scheduler.peak_unfinished <= LIMIT


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


def _submission_order(scheduler, result):
    index_of = {id(frame.capture): frame.frame_index for frame in result.frames}
    return [index_of[id(job.args[0])] for job in scheduler.jobs]


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
        return scheduler, await session.finish()

    scheduler, result = asyncio.run(scenario())
    order = _submission_order(scheduler, result)
    assert order == sorted(order) == [frame.frame_index for frame in result.frames]
    assert len(order) == 4


def test_reap_waiting_on_an_older_mosaic_solve_keeps_frame_order():
    """The reap loop salvages frame 1 and waits for frame 0's unfinished
    solve (the in-flight bound); frame 2's barrier lands meanwhile and must
    queue behind frame 1, not overtake it."""
    before, during, after = _lossy_stream("mosaic", 1)

    async def scenario():
        scheduler = ManualScheduler()
        session = _deadline_session(scheduler)
        await _feed(session, before)
        assert session.stats.n_nacks_sent == 1 and len(scheduler.jobs) == 1
        reap = asyncio.create_task(session.check_deadlines(10.0))
        await _spin()
        ingest = asyncio.create_task(_feed(session, during))
        await _spin()
        scheduler.finish_all()
        await asyncio.gather(reap, ingest)
        await _feed(session, after)
        return scheduler, await session.finish()

    scheduler, result = asyncio.run(scenario())
    order = _submission_order(scheduler, result)
    assert order == sorted(order) == [frame.frame_index for frame in result.frames]
    assert len(order) == 4
