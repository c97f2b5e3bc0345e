"""The recovery half of the wire: chunk types 9-10, pinned byte for byte.

The session-durability layer extended the chunk protocol *additively* — two
new chunk type bytes (CONTROL_NACK=9 down the feedback path, SESSION_RESUME=10
up the forward path) with their own payload structs, the frozen v1 chunk
header and types 1-8 untouched.  These tests pin that contract:

* golden blobs for both payloads and for whole chunks (a re-layout breaks
  the hex, not just a round-trip);
* every malformed payload raises the typed
  :class:`~repro.stream.protocol.StreamProtocolError` — never a bare
  ``struct.error`` leaking into a session;
* path discipline: a NACK is feedback-path-only (a strict session raises on
  the forward path, a resilient one counts-and-survives), and a
  SESSION_RESUME needs a resilient receiver (strict raises, resilient
  absorbs it as pure bookkeeping).
"""

import asyncio

import pytest

from repro.stream.protocol import (
    CONTROL_CHUNK_TYPES,
    MAX_NACK_SEQUENCES,
    Chunk,
    ChunkType,
    NackRequest,
    SessionResume,
    StreamProtocolError,
    decode_payload,
    encode_chunk,
    encode_payload,
    StreamHeader,
)
from repro.stream.session import StreamSession


NACK = NackRequest(frame_index=7, sequences=(3, 9, 12))
RESUME = SessionResume(next_sequence=42, frame_index=6, epoch=2)


def run(coro):
    return asyncio.run(coro)


class InlineScheduler:
    async def submit(self, key, fn):
        future = asyncio.get_running_loop().create_future()
        future.set_result(fn())
        return future


class TestChunkTypeRegistry:
    def test_the_recovery_types_pin_their_bytes(self):
        assert ChunkType.CONTROL_NACK == 9
        assert ChunkType.SESSION_RESUME == 10

    def test_nack_is_a_control_type_and_resume_is_not(self):
        # A NACK flows receiver→node like ACK/rate advice; a resume is a
        # forward-path chunk (node→hub) and must never be treated as control.
        assert ChunkType.CONTROL_NACK in CONTROL_CHUNK_TYPES
        assert ChunkType.SESSION_RESUME not in CONTROL_CHUNK_TYPES

    def test_nack_capacity_is_pinned(self):
        assert MAX_NACK_SEQUENCES == 64


class TestRecoveryGoldenBlobs:
    """The recovery payload layouts, frozen as hex."""

    NACK_HEX = "00000007000300000003000000090000000c"
    RESUME_HEX = "0000002a000000060002"
    NACK_CHUNK_HEX = (
        "cc090003000000090000001200000007000300000003000000090000000c"
    )
    RESUME_CHUNK_HEX = "cc0a00030000000b0000000a0000002a000000060002"

    def test_nack_request_encodes_to_the_golden_bytes(self):
        assert encode_payload(NACK).hex() == self.NACK_HEX

    def test_session_resume_encodes_to_the_golden_bytes(self):
        assert encode_payload(RESUME).hex() == self.RESUME_HEX

    def test_golden_blobs_decode_back_exactly(self):
        assert decode_payload(ChunkType.CONTROL_NACK, bytes.fromhex(self.NACK_HEX)) == NACK
        assert decode_payload(ChunkType.SESSION_RESUME, bytes.fromhex(self.RESUME_HEX)) == RESUME

    def test_whole_recovery_chunks_pin_the_chunk_header_too(self):
        nack_chunk = Chunk(
            chunk_type=ChunkType.CONTROL_NACK,
            stream_id=3,
            sequence=9,
            payload=encode_payload(NACK),
        )
        resume_chunk = Chunk(
            chunk_type=ChunkType.SESSION_RESUME,
            stream_id=3,
            sequence=11,
            payload=encode_payload(RESUME),
        )
        assert encode_chunk(nack_chunk).hex() == self.NACK_CHUNK_HEX
        assert encode_chunk(resume_chunk).hex() == self.RESUME_CHUNK_HEX


class TestRoundTrips:
    def test_single_sequence_nack_round_trips(self):
        request = NackRequest(frame_index=0, sequences=(17,))
        assert decode_payload(ChunkType.CONTROL_NACK, encode_payload(request)) == request

    def test_full_window_nack_round_trips(self):
        request = NackRequest(
            frame_index=1, sequences=tuple(range(MAX_NACK_SEQUENCES))
        )
        assert decode_payload(ChunkType.CONTROL_NACK, encode_payload(request)) == request

    def test_first_epoch_resume_round_trips(self):
        resume = SessionResume(next_sequence=0, frame_index=0, epoch=1)
        assert decode_payload(ChunkType.SESSION_RESUME, encode_payload(resume)) == resume


class TestMalformedPayloadsRaiseTyped:
    """Every decoder failure is the typed error, never a bare struct.error."""

    def test_empty_nack_refuses_to_encode(self):
        with pytest.raises(StreamProtocolError):
            encode_payload(NackRequest(frame_index=0, sequences=()))

    def test_overfull_nack_refuses_to_encode(self):
        sequences = tuple(range(MAX_NACK_SEQUENCES + 1))
        with pytest.raises(StreamProtocolError):
            encode_payload(NackRequest(frame_index=0, sequences=sequences))

    def test_truncated_nack_header(self):
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.CONTROL_NACK, b"\x01\x02\x03")

    def test_nack_announcing_zero_sequences(self):
        payload = bytearray(encode_payload(NACK))
        payload[4:6] = b"\x00\x00"
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.CONTROL_NACK, bytes(payload[:6]))

    def test_nack_count_and_length_must_agree(self):
        payload = encode_payload(NACK)
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.CONTROL_NACK, payload[:-2])  # sequence list cut short
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.CONTROL_NACK, payload + b"\x00")  # trailing garbage

    def test_truncated_session_resume(self):
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.SESSION_RESUME, b"\x00" * 4)

    def test_zero_epoch_resume_refuses_both_ways(self):
        with pytest.raises(StreamProtocolError):
            encode_payload(
                SessionResume(next_sequence=1, frame_index=0, epoch=0)
            )
        payload = bytearray(encode_payload(RESUME))
        payload[-2:] = b"\x00\x00"
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.SESSION_RESUME, bytes(payload))


class TestPathDiscipline:
    """Recovery chunks arriving on the wrong path or FSM are rejected."""

    def _header_chunk(self):
        header = StreamHeader(
            kind="frame",
            scene_shape=(16, 16),
            tile_shape=(16, 16),
            gop_size=1,
        )
        return Chunk(
            chunk_type=ChunkType.STREAM_START,
            stream_id=1,
            sequence=0,
            payload=encode_payload(header),
        )

    async def _feed(self, resilient, chunk):
        session = StreamSession(
            1, InlineScheduler(), resilient=resilient, reconstruct=False
        )
        await session.handle_chunk(self._header_chunk())
        await session.handle_chunk(chunk)
        return session

    def _nack_chunk(self):
        return Chunk(
            chunk_type=ChunkType.CONTROL_NACK,
            stream_id=1,
            sequence=1,
            payload=encode_payload(NACK),
        )

    def _resume_chunk(self):
        return Chunk(
            chunk_type=ChunkType.SESSION_RESUME,
            stream_id=1,
            sequence=1,
            payload=encode_payload(RESUME),
        )

    def test_nack_on_the_forward_path_raises_strict(self):
        with pytest.raises(StreamProtocolError):
            run(self._feed(False, self._nack_chunk()))

    def test_nack_on_the_forward_path_counts_resilient(self):
        session = run(self._feed(True, self._nack_chunk()))
        assert session.stats.n_corrupt_chunks == 1

    def test_resume_on_a_strict_session_raises(self):
        with pytest.raises(StreamProtocolError):
            run(self._feed(False, self._resume_chunk()))

    def test_resume_on_a_resilient_session_is_absorbed(self):
        session = run(self._feed(True, self._resume_chunk()))
        assert session.stats.n_resumes == 1
        assert session.stats.n_corrupt_chunks == 0
