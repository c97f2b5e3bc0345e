"""The control half of the wire: chunk types 5-8, pinned byte for byte.

The loss-resilience layer extended the chunk protocol *additively* — four
new chunk type bytes (FRAME_SEGMENT=5, FRAME_PARITY=6, CONTROL_ACK=7,
CONTROL_RATE=8) with their own payload structs, the frozen v1 chunk header
and types 1-4 untouched.  These tests pin that contract:

* golden blobs for the control payloads (a re-layout breaks the hex, not
  just a round-trip);
* every malformed payload raises the typed
  :class:`~repro.stream.protocol.StreamProtocolError` — never a bare
  ``struct.error`` leaking into a session;
* control chunks are feedback-path-only: on the forward path a strict
  session raises, a resilient one counts-and-survives;
* the node's feedback loop survives garbage — malformed or non-control
  chunks on the back channel are counted, never kill the stream.
"""

import asyncio

import pytest

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.stream.node import BitrateGovernor, CameraNode
from repro.stream.protocol import (
    Chunk,
    ChunkType,
    ControlAck,
    FrameSegment,
    RateAdvice,
    StreamEnd,
    StreamProtocolError,
    build_frame_parity,
    decode_payload,
    encode_chunk,
    encode_payload,
    recover_missing_payload,
)
from repro.stream.session import StreamSession
from repro.stream.transport import loopback_duplex_pair


CONFIG = SensorConfig(rows=16, cols=16)

ACK = ControlAck(
    frame_index=7,
    n_expected_chunks=5,
    n_received_chunks=4,
    n_recovered_chunks=1,
    n_samples_expected=50,
    n_samples_received=37,
)
ADVICE = RateAdvice(frame_index=7, advised_samples=37, loss_fraction=0.26)


def run(coro):
    return asyncio.run(coro)


class InlineScheduler:
    async def submit(self, key, fn):
        future = asyncio.get_running_loop().create_future()
        future.set_result(fn())
        return future


class TestChunkTypeRegistry:
    def test_the_frozen_types_kept_their_bytes(self):
        assert ChunkType.STREAM_START == 1
        assert ChunkType.FRAME_DATA == 2
        assert ChunkType.FRAME_COMPLETE == 3
        assert ChunkType.STREAM_END == 4

    def test_the_additive_types_pin_their_bytes(self):
        assert ChunkType.FRAME_SEGMENT == 5
        assert ChunkType.FRAME_PARITY == 6
        assert ChunkType.CONTROL_ACK == 7
        assert ChunkType.CONTROL_RATE == 8


class TestControlGoldenBlobs:
    """The control payload layouts, frozen as hex."""

    ACK_HEX = "000000070005000400010000003200000025"
    ADVICE_HEX = "00000007000000253fd0a3d70a3d70a4"
    ACK_CHUNK_HEX = (
        "cc0700030000000900000012000000070005000400010000003200000025"
    )
    ADVICE_CHUNK_HEX = "cc0800030000000a0000001000000007000000253fd0a3d70a3d70a4"

    def test_control_ack_encodes_to_the_golden_bytes(self):
        assert encode_payload(ACK).hex() == self.ACK_HEX

    def test_rate_advice_encodes_to_the_golden_bytes(self):
        assert encode_payload(ADVICE).hex() == self.ADVICE_HEX

    def test_golden_blobs_decode_back_exactly(self):
        assert decode_payload(ChunkType.CONTROL_ACK, bytes.fromhex(self.ACK_HEX)) == ACK
        assert decode_payload(ChunkType.CONTROL_RATE, bytes.fromhex(self.ADVICE_HEX)) == ADVICE

    def test_whole_control_chunks_pin_the_chunk_header_too(self):
        ack_chunk = Chunk(
            chunk_type=ChunkType.CONTROL_ACK,
            stream_id=3,
            sequence=9,
            payload=encode_payload(ACK),
        )
        advice_chunk = Chunk(
            chunk_type=ChunkType.CONTROL_RATE,
            stream_id=3,
            sequence=10,
            payload=encode_payload(ADVICE),
        )
        assert encode_chunk(ack_chunk).hex() == self.ACK_CHUNK_HEX
        assert encode_chunk(advice_chunk).hex() == self.ADVICE_CHUNK_HEX

    def test_loss_semantics_of_the_ack(self):
        assert not ACK.clean
        assert ACK.loss_fraction == pytest.approx(13 / 50)
        clean = ControlAck(0, 1, 1, 0, 50, 50)
        assert clean.clean and clean.loss_fraction == 0.0
        # Unknown expectation is never clean — the governor must back off.
        unknown = ControlAck(0, 5, 0, 0, 0, 0)
        assert not unknown.clean


class TestSegmentAndParityRoundTrip:
    def _segment(self, index=1, sample_bytes=b"\x5a\x5a\x5a"):
        return FrameSegment(
            frame_index=2,
            grid_row=0,
            grid_col=0,
            keyframe=True,
            segment_index=index,
            n_segments=4,
            start_sample=12,
            n_samples=13,
            prefix_bytes=b"\xc5\x01\x02\x03",
            sample_bytes=sample_bytes,
        )

    def test_segment_round_trips(self):
        segment = self._segment()
        assert decode_payload(ChunkType.FRAME_SEGMENT, encode_payload(segment)) == segment

    def test_parity_round_trips_and_recovers(self):
        payloads = [b"abcd", b"efg", b"hijkl"]
        parity = build_frame_parity(0, 0, 0, payloads)
        decoded = decode_payload(ChunkType.FRAME_PARITY, encode_payload(parity))
        assert decoded == parity
        recovered = recover_missing_payload(
            decoded, {0: payloads[0], 2: payloads[2]}, 1
        )
        assert recovered == payloads[1]


class TestMalformedPayloadsRaiseTyped:
    """Every decoder failure is the typed error, never a bare struct.error."""

    def test_truncated_control_ack(self):
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.CONTROL_ACK, b"\x01\x02\x03")

    def test_impossible_control_ack_counts(self):
        # More chunks received than expected cannot describe any frame.
        bad = ControlAck(0, 2, 3, 0, 50, 50)
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.CONTROL_ACK, encode_payload(bad))

    def test_truncated_rate_advice(self):
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.CONTROL_RATE, b"\x00" * 4)

    def test_impossible_loss_fraction(self):
        payload = encode_payload(RateAdvice(0, 10, 0.0))
        import struct

        mangled = payload[:8] + struct.pack(">d", 1.5)
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.CONTROL_RATE, mangled)

    def test_segment_checksum_catches_corruption(self):
        segment = TestSegmentAndParityRoundTrip()._segment()
        payload = bytearray(encode_payload(segment))
        payload[-1] ^= 0xFF
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.FRAME_SEGMENT, bytes(payload))

    def test_segment_header_too_short(self):
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.FRAME_SEGMENT, b"\x00" * 4)

    def test_parity_truncated_length_table(self):
        parity = build_frame_parity(0, 0, 0, [b"abcd", b"efgh"])
        payload = encode_payload(parity)
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.FRAME_PARITY, payload[:10])


class TestControlChunksStayOffTheForwardPath:
    """A control chunk arriving as stream data is a protocol violation."""

    async def _feed_control(self, resilient):
        session = StreamSession(
            1, InlineScheduler(), resilient=resilient, reconstruct=False
        )
        # A stream whose first chunk is already a control chunk: the strict
        # FSM rejects it before any stream state exists.
        chunk = Chunk(
            chunk_type=ChunkType.CONTROL_ACK,
            stream_id=1,
            sequence=0,
            payload=encode_payload(ACK),
        )
        await session.handle_chunk(chunk)
        return session

    def test_strict_session_raises(self):
        with pytest.raises(StreamProtocolError):
            run(self._feed_control(resilient=False))

    def test_resilient_session_counts_and_survives(self):
        session = run(self._feed_control(resilient=True))
        assert session.stats.n_corrupt_chunks == 1


class TestNodeFeedbackLoopSurvivesGarbage:
    """Feedback is advisory: a poisoned back channel must not kill a stream."""

    def test_malformed_and_non_control_feedback_are_counted(self):
        async def scenario():
            node_end, receiver_end = loopback_duplex_pair(max_buffered=64)
            governor = BitrateGovernor()
            node = CameraNode(node_end, governor=governor, feedback=True)
            # Poison the back channel before the stream begins: a control
            # chunk with a truncated payload, a non-control chunk, and one
            # valid ack that must still get through.
            await receiver_end.send(
                encode_chunk(
                    Chunk(
                        chunk_type=ChunkType.CONTROL_ACK,
                        stream_id=1,
                        sequence=0,
                        payload=b"\x01\x02",
                    )
                )
            )
            await receiver_end.send(
                encode_chunk(
                    Chunk(
                        chunk_type=ChunkType.STREAM_END,
                        stream_id=1,
                        sequence=1,
                        payload=encode_payload(StreamEnd(0)),
                    )
                )
            )
            await receiver_end.send(
                encode_chunk(
                    Chunk(
                        chunk_type=ChunkType.CONTROL_ACK,
                        stream_id=1,
                        sequence=2,
                        payload=encode_payload(ACK),
                    )
                )
            )
            imager = CompressiveImager(CONFIG, seed=3)
            scenes = [make_scene("blobs", (16, 16), seed=i) for i in range(3)]
            send_task = asyncio.create_task(node.stream_frames(imager, scenes))
            # Let the feedback task drain its three queued chunks before the
            # stream finishes and tears it down.
            for _ in range(10_000):
                if node.n_feedback_chunks + node.n_feedback_errors >= 3:
                    break
                await asyncio.sleep(0)
            stats = await send_task
            return node, governor, stats

        node, governor, stats = run(scenario())
        # The stream itself completed untouched...
        assert stats.n_frames == 3
        # ...while the two bad chunks were counted and the good one landed.
        assert node.n_feedback_errors == 2
        assert node.n_feedback_chunks == 1
        assert governor.n_feedback == 1
