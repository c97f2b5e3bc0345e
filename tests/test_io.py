"""Tests for the bitstream and frame serialisation layer."""

import numpy as np
import pytest

from repro.io.bitstream import BitReader, BitWriter, pack_samples, unpack_samples
from repro.io.framing import (
    FRAME_MAGIC,
    BadMagicError,
    FrameHeader,
    FramingError,
    HeaderMismatchError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    decode_frame,
    encode_frame,
    encoded_size_bits,
    frame_overhead_bits,
)
from repro.optics.photo import PhotoConversion
from repro.optics.scenes import make_scene
from repro.recon.pipeline import reconstruct_frame
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressiveImager


class TestBitWriterReader:
    def test_round_trip_mixed_widths(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0xABCDE, 20)
        writer.write(1, 1)
        writer.write(255, 8)
        reader = BitReader(writer.getvalue())
        assert reader.read(3) == 0b101
        assert reader.read(20) == 0xABCDE
        assert reader.read(1) == 1
        assert reader.read(8) == 255

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(256, 8)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 8)

    def test_bits_written_counter(self):
        writer = BitWriter()
        writer.write(3, 5)
        writer.write(1, 7)
        assert writer.n_bits_written == 12

    def test_reading_past_end_raises(self):
        writer = BitWriter()
        writer.write(1, 4)
        reader = BitReader(writer.getvalue())
        reader.read(8)  # padded byte is readable
        with pytest.raises(ValueError):
            reader.read(8)

    def test_bits_remaining(self):
        reader = BitReader(bytes([0xFF, 0x00]))
        assert reader.bits_remaining == 16
        reader.read(5)
        assert reader.bits_remaining == 11


class TestPackSamples:
    def test_round_trip_20_bit_samples(self):
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 1 << 20, size=137)
        packed = pack_samples(samples, 20)
        assert len(packed) == (137 * 20 + 7) // 8
        assert np.array_equal(unpack_samples(packed, 137, 20), samples)

    def test_packing_saves_space_vs_32_bit_words(self):
        samples = list(range(100))
        packed = pack_samples(samples, 20)
        assert len(packed) < 100 * 4

    def test_single_sample(self):
        packed = pack_samples([123456], 20)
        assert len(packed) == 3  # 20 bits padded to a byte boundary
        result = unpack_samples(packed, 1, 20)
        assert result.shape == (1,)
        assert result[0] == 123456

    def test_zero_samples(self):
        packed = pack_samples([], 20)
        assert packed == b""
        result = unpack_samples(packed, 0, 20)
        assert result.shape == (0,)
        assert result.dtype == np.int64

    def test_zero_samples_ignore_trailing_bytes(self):
        # A frame whose budget covered only the header still decodes cleanly.
        result = unpack_samples(b"\xaa\xbb", 0, 20)
        assert result.size == 0


class TestFrameHeader:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrameHeader(rows=0, cols=64, pixel_bits=8, sample_bits=20,
                        rule_number=30, steps_per_sample=1, warmup_steps=0, n_samples=1)
        with pytest.raises(ValueError):
            FrameHeader(rows=64, cols=64, pixel_bits=8, sample_bits=20,
                        rule_number=300, steps_per_sample=1, warmup_steps=0, n_samples=1)


class TestFrameCodec:
    @pytest.fixture
    def frame(self):
        config = SensorConfig(rows=32, cols=32)
        imager = CompressiveImager(config, seed=21)
        scene = make_scene("blobs", (32, 32), seed=6)
        conversion = PhotoConversion(prnu_sigma=0.0, shot_noise=False)
        return imager.capture(conversion.convert(scene), n_samples=300)

    def test_round_trip_preserves_samples_and_seed(self, frame):
        decoded = decode_frame(encode_frame(frame))
        assert np.array_equal(decoded.samples, frame.samples)
        assert np.array_equal(decoded.seed_state, frame.seed_state)
        assert decoded.rule_number == frame.rule_number
        assert decoded.steps_per_sample == frame.steps_per_sample
        assert decoded.warmup_steps == frame.warmup_steps
        assert (decoded.config.rows, decoded.config.cols) == (32, 32)

    def test_decoded_frame_reconstructs_identically(self, frame):
        decoded = decode_frame(encode_frame(frame))
        original = reconstruct_frame(frame, max_iterations=60)
        received = reconstruct_frame(decoded, reference=frame.digital_image, max_iterations=60)
        assert np.allclose(original.image, received.image)

    def test_payload_size_matches_prediction(self, frame):
        encoded = encode_frame(frame)
        assert len(encoded) * 8 == encoded_size_bits(frame.config, frame.n_samples)

    def test_magic_is_checked(self, frame):
        data = bytearray(encode_frame(frame))
        data[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decode_frame(bytes(data))
        assert data[0] != FRAME_MAGIC

    def test_version_is_checked(self, frame):
        data = bytearray(encode_frame(frame))
        data[1] = 99
        with pytest.raises(ValueError, match="version"):
            decode_frame(bytes(data))

    def test_measurement_matrix_recoverable_after_transport(self, frame):
        decoded = decode_frame(encode_frame(frame))
        assert np.array_equal(decoded.measurement_matrix(), frame.measurement_matrix())


def _small_frame(**metadata):
    from repro.sensor.imager import CompressedFrame

    return CompressedFrame(
        samples=np.array([5, 0, 1023, 77], dtype=np.int64),
        seed_state=np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8),
        rule_number=30,
        steps_per_sample=1,
        warmup_steps=2,
        config=SensorConfig(rows=4, cols=4, pixel_bits=6),
        metadata=dict(metadata),
    )


class TestV1Compatibility:
    """The v1 byte layout is frozen; old streams decode unchanged."""

    #: encode_frame() output for ``_small_frame()`` as of the v1 codec.
    GOLDEN_V1_HEX = "c5010040043143c020400000964001400ffc4d"

    def test_v1_encoding_is_byte_stable(self):
        assert encode_frame(_small_frame()).hex() == self.GOLDEN_V1_HEX

    def test_golden_v1_bytes_decode(self):
        decoded = decode_frame(bytes.fromhex(self.GOLDEN_V1_HEX))
        assert np.array_equal(decoded.samples, [5, 0, 1023, 77])
        assert np.array_equal(decoded.seed_state, [1, 0, 1, 1, 0, 0, 1, 0])
        assert decoded.rule_number == 30
        assert decoded.warmup_steps == 2
        assert decoded.metadata["decoded_from_bytes"] == 19

    def test_v1_never_carries_stats(self):
        decoded = decode_frame(encode_frame(_small_frame(n_lost_events=3)))
        assert "n_lost_events" not in decoded.metadata


class TestV2Frames:
    # Captures are float64 only, but the frozen wire keeps the "float32" code
    # of the dtype key, and a frame from outside the program may still use it.
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_round_trip_with_statistics(self, dtype):
        frame = _small_frame(
            fidelity="event",
            event_statistics="exact",
            dtype=dtype,
            n_lost_events=3,
            n_queued_events=12,
            n_lsb_errors=1,
            max_queue_delay=2.5e-9,
            lsb_error_probability=0.0625,
            n_saturated_pixels=0,
        )
        decoded = decode_frame(encode_frame(frame, version=2))
        for key, value in frame.metadata.items():
            assert decoded.metadata[key] == value
            assert type(decoded.metadata[key]) is type(value)
        assert np.array_equal(decoded.samples, frame.samples)
        assert np.array_equal(decoded.seed_state, frame.seed_state)

    def test_modelled_float_statistics_survive_exactly(self):
        frame = _small_frame(
            fidelity="behavioural",
            event_statistics="modelled",
            n_queued_events=17.31250001,
        )
        decoded = decode_frame(encode_frame(frame, version=2))
        assert decoded.metadata["n_queued_events"] == 17.31250001
        assert isinstance(decoded.metadata["n_queued_events"], float)

    def test_stats_can_be_omitted(self):
        frame = _small_frame(n_lost_events=3)
        decoded = decode_frame(encode_frame(frame, version=2, include_stats=False))
        assert "n_lost_events" not in decoded.metadata

    def test_seedless_round_trip(self):
        frame = _small_frame()
        data = encode_frame(frame, version=2, include_seed=False)
        assert len(data) < len(encode_frame(frame, version=2))
        decoded = decode_frame(data, seed_state=frame.seed_state)
        assert np.array_equal(decoded.seed_state, frame.seed_state)
        assert np.array_equal(decoded.samples, frame.samples)

    def test_seedless_without_chain_is_rejected(self):
        data = encode_frame(_small_frame(), version=2, include_seed=False)
        with pytest.raises(HeaderMismatchError, match="seed"):
            decode_frame(data)

    def test_seedless_with_wrong_chain_length_is_rejected(self):
        data = encode_frame(_small_frame(), version=2, include_seed=False)
        with pytest.raises(HeaderMismatchError, match="bits"):
            decode_frame(data, seed_state=np.zeros(5, dtype=np.uint8))

    def test_v1_cannot_drop_the_seed(self):
        with pytest.raises(ValueError, match="seed"):
            encode_frame(_small_frame(), version=1, include_seed=False)

    def test_unknown_encode_version_rejected(self):
        with pytest.raises(UnsupportedVersionError):
            encode_frame(_small_frame(), version=3)

    def test_overhead_bound_is_sound(self):
        frame = _small_frame(
            fidelity="event",
            event_statistics="exact",
            dtype="float64",
            n_lost_events=3,
            n_queued_events=12,
            n_lsb_errors=1,
            max_queue_delay=2.5e-9,
            lsb_error_probability=0.0625,
            n_saturated_pixels=0,
        )
        for version in (1, 2):
            encoded = encode_frame(frame, version=version)
            overhead = frame_overhead_bits(frame.config, version=version)
            sample_bits = frame.n_samples * frame.config.compressed_sample_bits
            assert len(encoded) * 8 <= overhead + sample_bits


class TestTypedDecodeErrors:
    def test_empty_and_tiny_payloads(self):
        for data in (b"", b"\xc5", b"\xc5\x01"):
            with pytest.raises(TruncatedPayloadError):
                decode_frame(data)

    def test_bad_magic_is_typed(self):
        data = bytearray(encode_frame(_small_frame()))
        data[0] = 0x00
        with pytest.raises(BadMagicError, match="magic"):
            decode_frame(bytes(data))

    def test_unknown_version_is_typed(self):
        data = bytearray(encode_frame(_small_frame()))
        data[1] = 99
        with pytest.raises(UnsupportedVersionError, match="version"):
            decode_frame(bytes(data))

    @pytest.mark.parametrize("version", [1, 2])
    def test_every_truncation_point_is_detected(self, version):
        frame = _small_frame(fidelity="event", n_lost_events=3)
        data = encode_frame(frame, version=version)
        for cut in range(2, len(data)):
            with pytest.raises(TruncatedPayloadError):
                decode_frame(data[:cut])

    def test_corrupt_header_fields_are_typed(self):
        # Zero the rows/cols bits: the header decodes to impossible geometry.
        frame = _small_frame()
        data = bytearray(encode_frame(frame))
        data[2] = 0
        data[3] = 0
        data[4] = 0
        with pytest.raises(FramingError):
            decode_frame(bytes(data))

    def test_header_config_mismatch_is_typed(self):
        data = encode_frame(_small_frame())
        with pytest.raises(HeaderMismatchError, match="rows"):
            decode_frame(data, expected_config=SensorConfig(rows=8, cols=4, pixel_bits=6))
        with pytest.raises(HeaderMismatchError, match="pixel_bits"):
            decode_frame(data, expected_config=SensorConfig(rows=4, cols=4, pixel_bits=8))

    def test_matching_expected_config_passes(self):
        data = encode_frame(_small_frame())
        decoded = decode_frame(
            data, expected_config=SensorConfig(rows=4, cols=4, pixel_bits=6)
        )
        assert np.array_equal(decoded.samples, [5, 0, 1023, 77])

    def test_typed_errors_are_value_errors(self):
        # Callers that predate the typed hierarchy keep working.
        for error in (
            TruncatedPayloadError,
            BadMagicError,
            UnsupportedVersionError,
            HeaderMismatchError,
        ):
            assert issubclass(error, FramingError)
            assert issubclass(error, ValueError)
