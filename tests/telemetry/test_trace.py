"""Frame tracer: merge semantics, eviction, ranking, facade behaviour."""

import threading

import pytest

from repro.telemetry import (
    SPAN_CAPTURE,
    SPAN_DECODE,
    SPAN_ENCODE,
    SPAN_QUEUE_WAIT,
    SPAN_SOLVE,
    SPAN_TRANSPORT,
    STAGE_SECONDS,
    STAGES,
    FrameTracer,
    ManualClock,
    Telemetry,
    active,
)


class TestFrameTracer:
    def test_begin_end_records_an_exact_duration(self):
        clock = ManualClock()
        tracer = FrameTracer(clock=clock)
        tracer.begin(1, 0, SPAN_DECODE)
        clock.advance(0.125)
        assert tracer.end(1, 0, SPAN_DECODE) == 0.125
        trace = tracer.get(1, 0)
        assert trace.duration(SPAN_DECODE) == 0.125
        assert trace.as_dict() == {SPAN_DECODE: 0.125}

    def test_repeated_spans_merge_to_the_envelope(self):
        # Tiled frames report the same stage once per tile; the span must be
        # min(start)..max(end) of all reports.
        clock = ManualClock()
        tracer = FrameTracer(clock=clock)
        tracer.begin(1, 0, SPAN_SOLVE)       # t=0
        clock.advance(1.0)
        tracer.begin(1, 0, SPAN_SOLVE)       # t=1, later begin: keeps t=0
        clock.advance(1.0)
        tracer.end(1, 0, SPAN_SOLVE)         # t=2
        clock.advance(1.0)
        tracer.end(1, 0, SPAN_SOLVE)         # t=3, later end wins
        assert tracer.get(1, 0).duration(SPAN_SOLVE) == 3.0

    def test_end_without_begin_is_a_noop(self):
        # The TCP half of a cross-process transport span.
        tracer = FrameTracer(clock=ManualClock())
        assert tracer.end(1, 0, SPAN_TRANSPORT) is None
        assert tracer.end(7, 3, "never_seen") is None
        tracer.begin(1, 0, SPAN_DECODE)
        assert tracer.end(1, 0, SPAN_TRANSPORT) is None

    def test_add_span_validates_and_merges(self):
        tracer = FrameTracer(clock=ManualClock())
        assert tracer.add_span(1, 0, SPAN_CAPTURE, 1.0, 3.0) == 2.0
        assert tracer.add_span(1, 0, SPAN_CAPTURE, 0.5, 2.0) == 2.5
        with pytest.raises(ValueError, match="ends before it starts"):
            tracer.add_span(1, 0, SPAN_CAPTURE, 5.0, 4.0)

    def test_total_is_the_cross_stage_envelope(self):
        tracer = FrameTracer(clock=ManualClock())
        tracer.add_span(1, 0, SPAN_CAPTURE, 0.0, 1.0)
        tracer.add_span(1, 0, SPAN_SOLVE, 4.0, 6.0)
        assert tracer.get(1, 0).total == 6.0

    def test_as_dict_follows_wire_order(self):
        tracer = FrameTracer(clock=ManualClock())
        for offset, stage in enumerate(reversed(STAGES)):
            tracer.add_span(1, 0, stage, float(offset), float(offset) + 0.5)
        assert tuple(tracer.get(1, 0).as_dict()) == STAGES

    def test_describe_is_one_readable_line(self):
        tracer = FrameTracer(clock=ManualClock())
        tracer.add_span(4, 37, SPAN_CAPTURE, 0.0, 0.0012)
        line = tracer.get(4, 37).describe()
        assert line.startswith("stream 4 frame 37:")
        assert "capture=1.200ms" in line

    def test_eviction_is_fifo_and_counted(self):
        tracer = FrameTracer(clock=ManualClock(), max_frames=2)
        for index in range(5):
            tracer.begin(1, index, SPAN_DECODE)
        assert len(tracer) == 2
        assert tracer.n_evicted == 3
        assert [t.frame_index for t in tracer.traces()] == [3, 4]
        assert tracer.get(1, 0) is None

    def test_max_frames_must_be_positive(self):
        with pytest.raises(ValueError, match="max_frames"):
            FrameTracer(max_frames=0)

    def test_slowest_ranks_by_total_or_stage(self):
        tracer = FrameTracer(clock=ManualClock())
        tracer.add_span(1, 0, SPAN_SOLVE, 0.0, 3.0)
        tracer.add_span(1, 1, SPAN_SOLVE, 0.0, 1.0)
        tracer.add_span(1, 2, SPAN_DECODE, 0.0, 9.0)
        by_total = tracer.slowest(2)
        assert [t.frame_index for t in by_total] == [2, 0]
        by_solve = tracer.slowest(5, stage=SPAN_SOLVE)
        # Frame 2 has no solve span, so it cannot appear in a solve ranking.
        assert [t.frame_index for t in by_solve] == [0, 1]
        with pytest.raises(ValueError, match=">= 0"):
            tracer.slowest(-1)

    def test_threaded_span_closes_are_safe(self):
        # Solve spans close on executor threads; hammer one tracer from many.
        tracer = FrameTracer(clock=ManualClock(), max_frames=4096)
        n_threads, per_thread = 8, 200

        def work(thread_index):
            for index in range(per_thread):
                frame = thread_index * per_thread + index
                tracer.begin(1, frame, SPAN_SOLVE)
                tracer.end(1, frame, SPAN_SOLVE)

        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer) == n_threads * per_thread


class TestTelemetryFacade:
    def test_spans_feed_the_stage_histogram(self):
        clock = ManualClock()
        telemetry = Telemetry(clock=clock)
        telemetry.begin_span(1, 0, SPAN_ENCODE)
        clock.advance(0.004)
        telemetry.end_span(1, 0, SPAN_ENCODE)
        sample = telemetry.metrics().get(STAGE_SECONDS, {"stage": SPAN_ENCODE})
        assert sample is not None and sample.count == 1
        assert sample.sum == pytest.approx(0.004)

    def test_unmatched_end_observes_nothing(self):
        telemetry = Telemetry(clock=ManualClock())
        telemetry.end_span(1, 0, SPAN_TRANSPORT)
        assert telemetry.metrics().get(STAGE_SECONDS, {"stage": SPAN_TRANSPORT}) is None

    def test_disabled_facade_records_nothing(self):
        clock = ManualClock()
        telemetry = Telemetry(enabled=False, clock=clock)
        telemetry.begin_span(1, 0, SPAN_QUEUE_WAIT)
        clock.advance(1.0)
        telemetry.end_span(1, 0, SPAN_QUEUE_WAIT)
        telemetry.add_span(1, 0, SPAN_CAPTURE, 0.0, 1.0)
        assert len(telemetry.tracer) == 0
        assert telemetry.metrics().samples == ()
        assert telemetry.solver_profile() is None

    def test_enabled_facade_hands_out_profiles(self):
        profile = Telemetry(clock=ManualClock()).solver_profile()
        assert profile is not None
        profile.record_iteration(1.0, 0.5, frozen=0)
        assert profile.n_iterations == 1

    def test_active_collapses_the_two_level_guard(self):
        enabled = Telemetry(clock=ManualClock())
        assert active(enabled) is enabled
        assert active(Telemetry(enabled=False)) is None
        assert active(None) is None
