"""Tests for the chunk layer and the GOP seed chain."""

import numpy as np
import pytest

from repro.optics.scenes import make_scene
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager
from repro.stream.protocol import (
    CHUNK_MAGIC,
    Chunk,
    ChunkDecoder,
    ChunkType,
    FrameComplete,
    FrameData,
    FrameParity,
    FrameSegment,
    StreamEnd,
    StreamHeader,
    StreamProtocolError,
    advance_seed_state,
    build_frame_parity,
    decode_payload,
    encode_chunk,
    encode_payload,
)


def _chunk(payload=b"hello", sequence=0, chunk_type=ChunkType.FRAME_DATA):
    return Chunk(
        chunk_type=chunk_type, stream_id=7, sequence=sequence, payload=payload
    )


class TestChunkCodec:
    def test_round_trip(self):
        chunk = _chunk()
        decoded = ChunkDecoder().feed(encode_chunk(chunk))
        assert decoded == [chunk]

    def test_byte_at_a_time_reassembly(self):
        chunks = [_chunk(b"a" * 3, 0), _chunk(b"", 1), _chunk(b"bb" * 40, 2)]
        wire = b"".join(encode_chunk(chunk) for chunk in chunks)
        decoder = ChunkDecoder()
        seen = []
        for i in range(len(wire)):
            seen.extend(decoder.feed(wire[i : i + 1]))
        assert seen == chunks
        assert decoder.pending_bytes == 0

    def test_arbitrary_split_points(self):
        chunks = [_chunk(bytes(range(50)), i) for i in range(4)]
        wire = b"".join(encode_chunk(chunk) for chunk in chunks)
        for split in (1, 5, 11, 12, 13, 61, len(wire) - 1):
            decoder = ChunkDecoder()
            seen = decoder.feed(wire[:split])
            seen += decoder.feed(wire[split:])
            assert seen == chunks

    def test_bad_magic_raises(self):
        wire = bytearray(encode_chunk(_chunk()))
        wire[0] = 0x00
        with pytest.raises(StreamProtocolError, match="magic"):
            ChunkDecoder().feed(bytes(wire))

    def test_unknown_chunk_type_raises(self):
        wire = bytearray(encode_chunk(_chunk()))
        wire[1] = 200
        with pytest.raises(StreamProtocolError, match="type"):
            ChunkDecoder().feed(bytes(wire))

    def test_impossible_length_raises(self):
        import struct

        wire = struct.pack(">BBHII", CHUNK_MAGIC, 2, 1, 0, 1 << 30)
        with pytest.raises(StreamProtocolError, match="payload"):
            ChunkDecoder().feed(wire)

    def test_n_bytes_accounts_for_header(self):
        chunk = _chunk(b"xyz")
        assert chunk.n_bytes == len(encode_chunk(chunk))


class TestPayloadCodecs:
    def test_stream_header_round_trip(self):
        header = StreamHeader(
            kind="tiled-video",
            scene_shape=(256, 192),
            tile_shape=(64, 64),
            gop_size=6,
            n_frames=30,
        )
        assert decode_payload(ChunkType.STREAM_START, encode_payload(header)) == header
        assert header.tiled

    def test_single_sensor_kinds_are_not_tiled(self):
        for kind in ("frame", "video"):
            header = StreamHeader(kind=kind, scene_shape=(64, 64), tile_shape=(64, 64))
            assert not header.tiled

    def test_unknown_kind_rejected(self):
        with pytest.raises(StreamProtocolError, match="kind"):
            StreamHeader(kind="holographic", scene_shape=(8, 8), tile_shape=(8, 8))

    def test_malformed_stream_header_rejected(self):
        with pytest.raises(StreamProtocolError, match="header"):
            decode_payload(ChunkType.STREAM_START, b"\x01\x02")

    def test_frame_data_round_trip(self):
        data = FrameData(
            frame_index=12,
            grid_row=3,
            grid_col=1,
            keyframe=False,
            frame_bytes=b"\xc5\x02payload",
        )
        assert decode_payload(ChunkType.FRAME_DATA, encode_payload(data)) == data

    def test_frame_data_too_short_rejected(self):
        with pytest.raises(StreamProtocolError, match="shorter"):
            decode_payload(ChunkType.FRAME_DATA, b"\x00\x00")

    def test_frame_complete_and_stream_end(self):
        assert decode_payload(
            ChunkType.FRAME_COMPLETE, encode_payload(FrameComplete(9, 16))
        ) == FrameComplete(9, 16)
        assert decode_payload(ChunkType.STREAM_END, encode_payload(StreamEnd(42))) == StreamEnd(42)
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.FRAME_COMPLETE, b"\x01")
        with pytest.raises(StreamProtocolError):
            decode_payload(ChunkType.STREAM_END, b"")



HEADER = StreamHeader(
    kind="tiled-video",
    scene_shape=(256, 192),
    tile_shape=(64, 64),
    gop_size=6,
    n_frames=30,
)
KEYFRAME = FrameData(
    frame_index=12, grid_row=3, grid_col=1, keyframe=True, frame_bytes=b"\xc5\x02key"
)
NON_KEYFRAME = FrameData(
    frame_index=13,
    grid_row=3,
    grid_col=1,
    keyframe=False,
    frame_bytes=b"\xc5\x02seedless",
)
SEGMENT = FrameSegment(
    frame_index=2,
    grid_row=1,
    grid_col=0,
    keyframe=True,
    segment_index=1,
    n_segments=4,
    start_sample=12,
    n_samples=13,
    prefix_bytes=b"\xc5\x01\x02\x03",
    sample_bytes=b"\x5a\x5a\x5a",
)
PARITY = FrameParity(
    frame_index=2,
    grid_row=1,
    grid_col=0,
    payload_lengths=(4, 3, 5),
    parity_bytes=b"lmn\x0fl",
)


class TestForwardGoldenBlobs:
    """Chunk types 1-6 frozen as hex: payloads and whole chunks.

    The whole chunks ride stream id 3, numbered 0-6 in the order listed.
    """

    HEADER_HEX = "0103010000c00040004000060000001e"
    KEYFRAME_HEX = "0000000c0003000101c5026b6579"
    NON_KEYFRAME_HEX = "0000000d0003000100c502736565646c657373"
    COMPLETE_HEX = "000000090010"
    END_HEX = "0000002a"
    SEGMENT_HEX = "00000002000100000101040000000c0000000d00040aa1e62bc50102035a5a5a"
    PARITY_HEX = "0000000200010000030000000400000003000000056c6d6e0f6c"
    HEADER_CHUNK_HEX = "cc01000300000000000000100103010000c00040004000060000001e"
    KEYFRAME_CHUNK_HEX = "cc020003000000010000000e0000000c0003000101c5026b6579"
    NON_KEYFRAME_CHUNK_HEX = (
        "cc02000300000002000000130000000d0003000100c502736565646c657373"
    )
    COMPLETE_CHUNK_HEX = "cc0300030000000300000006000000090010"
    END_CHUNK_HEX = "cc04000300000004000000040000002a"
    SEGMENT_CHUNK_HEX = (
        "cc050003000000050000002000000002000100000101040000000c0000000d00040aa1e62b"
        "c50102035a5a5a"
    )
    PARITY_CHUNK_HEX = (
        "cc060003000000060000001a0000000200010000030000000400000003000000056c6d6e0f6c"
    )

    def _payloads(self):
        return [
            (ChunkType.STREAM_START, HEADER, self.HEADER_HEX),
            (ChunkType.FRAME_DATA, KEYFRAME, self.KEYFRAME_HEX),
            (ChunkType.FRAME_DATA, NON_KEYFRAME, self.NON_KEYFRAME_HEX),
            (ChunkType.FRAME_COMPLETE, FrameComplete(9, 16), self.COMPLETE_HEX),
            (ChunkType.STREAM_END, StreamEnd(42), self.END_HEX),
            (ChunkType.FRAME_SEGMENT, SEGMENT, self.SEGMENT_HEX),
            (ChunkType.FRAME_PARITY, PARITY, self.PARITY_HEX),
        ]

    def test_payloads_encode_to_the_golden_bytes(self):
        for _, payload, golden in self._payloads():
            assert encode_payload(payload).hex() == golden

    def test_golden_blobs_decode_back_exactly(self):
        for chunk_type, payload, golden in self._payloads():
            assert decode_payload(chunk_type, bytes.fromhex(golden)) == payload

    def test_the_parity_blob_is_the_xor_of_its_group(self):
        parity = build_frame_parity(2, 1, 0, [b"abcd", b"efg", b"hijkl"])
        assert parity == PARITY

    def test_whole_chunks_pin_the_chunk_header_too(self):
        goldens = [
            self.HEADER_CHUNK_HEX,
            self.KEYFRAME_CHUNK_HEX,
            self.NON_KEYFRAME_CHUNK_HEX,
            self.COMPLETE_CHUNK_HEX,
            self.END_CHUNK_HEX,
            self.SEGMENT_CHUNK_HEX,
            self.PARITY_CHUNK_HEX,
        ]
        for sequence, ((chunk_type, payload, _), golden) in enumerate(
            zip(self._payloads(), goldens)
        ):
            chunk = Chunk(
                chunk_type=chunk_type,
                stream_id=3,
                sequence=sequence,
                payload=encode_payload(payload),
            )
            assert encode_chunk(chunk).hex() == golden
            assert ChunkDecoder().feed(bytes.fromhex(golden)) == [chunk]


class TestSeedChain:
    """The one-pattern frame-overlap rule matches the capture engine."""

    def test_chain_matches_capture_batch(self):
        imager = CompressiveImager(
            SensorConfig(rows=12, cols=12), seed=31, warmup_steps=5
        )
        scenes = [make_scene("blobs", (12, 12), seed=i) for i in range(4)]
        conversions = [0.1 + 0.8 * scene for scene in scenes]
        frames = imager.capture_batch(
            [1e-9 * current for current in conversions], n_samples=40
        )
        chain = frames[0].seed_state
        for previous, current in zip(frames[:-1], frames[1:]):
            chain = advance_seed_state(
                chain,
                previous.rule_number,
                n_samples=previous.n_samples,
                steps_per_sample=previous.steps_per_sample,
                warmup_steps=previous.warmup_steps,
            )
            assert np.array_equal(chain, current.seed_state)

    def test_single_sample_frame_with_no_warmup_is_identity(self):
        seed = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        advanced = advance_seed_state(seed, 30, n_samples=1, warmup_steps=0)
        assert np.array_equal(advanced, seed)

    def test_warmup_steps_are_absorbed(self):
        seed = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        with_warmup = advance_seed_state(seed, 30, n_samples=1, warmup_steps=3)
        without = advance_seed_state(seed, 30, n_samples=4, steps_per_sample=1)
        assert np.array_equal(with_warmup, without)


class TestLargeGridPositions:
    def test_grid_positions_beyond_one_byte_survive(self):
        data = FrameData(
            frame_index=3,
            grid_row=300,
            grid_col=1023,
            keyframe=True,
            frame_bytes=b"\xc5\x02x",
        )
        assert decode_payload(ChunkType.FRAME_DATA, encode_payload(data)) == data
