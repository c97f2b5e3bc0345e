"""Frame-level encoding: everything the receiver needs, nothing more.

A transmitted compressive frame consists of a small fixed header (array
geometry, pixel depth, CA rule and sequencing parameters, sample count), the
CA seed (``rows + cols`` bits) and the bit-packed compressed samples.  The
measurement matrix itself is never part of the payload — that is the
architectural point of the paper.

Two wire versions coexist:

* **v1** — the original format: header, seed, samples.  Its byte layout is
  frozen; v1 streams produced by earlier releases decode unchanged.
* **v2** — the streaming format used by :mod:`repro.stream`.  It adds a flags
  byte and two optional sections: a *capture-statistics block* (fidelity,
  event/LSB counters — so the receiver can weigh a frame without a side
  channel) and the option to **omit the CA seed**.  A seedless frame is how a
  video GOP carries the seed once: the free-running CA overlaps consecutive
  frames by one pattern, so the receiver re-derives frame ``k+1``'s seed from
  frame ``k``'s (see :func:`advance_seed_state` in
  :mod:`repro.stream.protocol`) and the channel never pays for it again.

Decoding failures raise typed errors (:class:`FramingError` and subclasses),
never garbage frames: truncated payloads, wrong magic, unknown versions and
header/configuration mismatches are all distinguished.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.io.bitstream import BitReader, BitWriter, pack_samples, unpack_samples
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressedFrame
from repro.utils.validation import check_positive

#: Magic number marking the start of an encoded frame ("CS").
FRAME_MAGIC = 0xC5
#: Highest wire version this module encodes and decodes.
FRAME_VERSION = 2
#: Wire versions :func:`decode_frame` accepts.
SUPPORTED_VERSIONS = (1, 2)

#: v2 flags-byte bits.
FLAG_HAS_SEED = 0x01
FLAG_HAS_STATS = 0x02

#: Fixed header fields shared by both versions (everything between the
#: version byte and the seed), as ``(name, bit width)`` pairs.
_HEADER_FIELDS = (
    ("rows", 12),
    ("cols", 12),
    ("pixel_bits", 5),
    ("sample_bits", 6),
    ("rule_number", 8),
    ("steps_per_sample", 8),
    ("warmup_steps", 8),
    ("n_samples", 24),
)
_HEADER_BITS = sum(width for _, width in _HEADER_FIELDS)

#: Numeric capture-statistics keys carried by the v2 stats block, in wire
#: order.  Each is one presence bit, one int/float type bit and 64 value
#: bits; integers round-trip exactly and floats are IEEE-754 doubles.
STAT_KEYS = (
    "lsb_error_probability",
    "n_lsb_errors",
    "n_lost_events",
    "n_queued_events",
    "max_queue_delay",
    "n_saturated_pixels",
)
#: Categorical capture-statistics keys (one presence + one value bit each).
_CATEGORICAL_KEYS = (
    ("fidelity", ("behavioural", "event")),
    ("event_statistics", ("modelled", "exact")),
    ("dtype", ("float64", "float32")),
)


class FramingError(ValueError):
    """Base class for every frame-decoding failure."""


class TruncatedPayloadError(FramingError):
    """The byte string ends before the structure it announces is complete."""


class BadMagicError(FramingError):
    """The payload does not start with the compressed-frame magic byte."""


class UnsupportedVersionError(FramingError):
    """The frame announces a wire version this decoder does not speak."""


class HeaderMismatchError(FramingError):
    """The decoded header contradicts the receiver's expectations.

    Raised when the header disagrees with an ``expected_config`` (the stream
    header already announced different geometry) or when a seedless frame
    arrives without a seed to decode against.
    """


@dataclass(frozen=True)
class FrameHeader:
    """Fixed-size descriptor preceding the seed and the sample payload."""

    rows: int
    cols: int
    pixel_bits: int
    sample_bits: int
    rule_number: int
    steps_per_sample: int
    warmup_steps: int
    n_samples: int

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "pixel_bits", "sample_bits", "n_samples"):
            check_positive(name, getattr(self, name))
        check_positive("steps_per_sample", self.steps_per_sample)
        check_positive("warmup_steps", self.warmup_steps, allow_zero=True)
        if not 0 <= self.rule_number <= 255:
            raise ValueError(f"rule_number must fit in 8 bits, got {self.rule_number}")


def _header_from_frame(frame: CompressedFrame) -> FrameHeader:
    return FrameHeader(
        rows=frame.config.rows,
        cols=frame.config.cols,
        pixel_bits=frame.config.pixel_bits,
        sample_bits=frame.config.compressed_sample_bits,
        rule_number=frame.rule_number,
        steps_per_sample=frame.steps_per_sample,
        warmup_steps=frame.warmup_steps,
        n_samples=frame.n_samples,
    )


def _write_stats(writer: BitWriter, metadata: dict[str, object]) -> None:
    """Serialise the capture-statistics block (presence-coded, 64-bit values)."""
    for key, values in _CATEGORICAL_KEYS:
        value = metadata.get(key)
        if value in values:
            writer.write(1, 1)
            writer.write(values.index(value), 1)
        else:
            writer.write(0, 1)
    for key in STAT_KEYS:
        value = metadata.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            writer.write(0, 1)
            continue
        writer.write(1, 1)
        if isinstance(value, (float, np.floating)):
            writer.write(1, 1)
            writer.write(int.from_bytes(struct.pack(">d", float(value)), "big"), 64)
        else:
            writer.write(0, 1)
            writer.write(int(value), 64)


def _read_stats(reader: BitReader) -> dict[str, object]:
    """Inverse of :func:`_write_stats`."""
    metadata: dict[str, object] = {}
    for key, values in _CATEGORICAL_KEYS:
        if reader.read(1):
            metadata[key] = values[reader.read(1)]
    for key in STAT_KEYS:
        if not reader.read(1):
            continue
        is_float = reader.read(1)
        raw = reader.read(64)
        if is_float:
            metadata[key] = float(struct.unpack(">d", raw.to_bytes(8, "big"))[0])
        else:
            metadata[key] = int(raw)
    return metadata


def encode_frame(
    frame: CompressedFrame,
    *,
    version: int = 1,
    include_seed: bool = True,
    include_stats: bool = True,
) -> bytes:
    """Serialise a :class:`CompressedFrame` into the transmission format.

    Parameters
    ----------
    frame:
        The capture to serialise.
    version : {1, 2}
        Wire version.  The default v1 byte layout is frozen (header + seed +
        samples, exactly as earlier releases produced).  v2 adds a flags byte
        and the optional statistics block, and can omit the seed.
    include_seed : bool
        v2 only: when false the CA seed is left out and the receiver must
        supply it (``decode_frame(..., seed_state=...)``) — the seed-once GOP
        encoding of :mod:`repro.stream`.
    include_stats : bool
        v2 only: carry the capture-statistics block so event counters and the
        fidelity/dtype markers survive the wire.
    """
    if version not in SUPPORTED_VERSIONS:
        raise UnsupportedVersionError(f"cannot encode frame version {version}")
    if version == 1 and not include_seed:
        raise ValueError("version 1 frames always carry the seed")
    header = _header_from_frame(frame)
    writer = BitWriter()
    writer.write(FRAME_MAGIC, 8)
    writer.write(version, 8)
    if version == 2:
        flags = (FLAG_HAS_SEED if include_seed else 0) | (
            FLAG_HAS_STATS if include_stats else 0
        )
        writer.write(flags, 8)
    for name, width in _HEADER_FIELDS:
        writer.write(getattr(header, name), width)
    if version == 2 and include_stats:
        _write_stats(writer, frame.metadata)
    if version == 1 or include_seed:
        for bit in frame.seed_state:
            writer.write(int(bit), 1)
    packed_header = writer.getvalue()
    packed_samples = pack_samples(frame.samples, header.sample_bits)
    return packed_header + packed_samples


def decode_frame(
    data: bytes,
    *,
    seed_state: np.ndarray | None = None,
    expected_config: SensorConfig | None = None,
) -> CompressedFrame:
    """Parse the transmission format back into a :class:`CompressedFrame`.

    The reconstructed frame has no ``digital_image`` (the receiver never sees
    it) and a fresh :class:`SensorConfig` built from the header geometry.

    Parameters
    ----------
    data : bytes
        One encoded frame (v1 or v2; the version byte dispatches).
    seed_state : numpy.ndarray, optional
        CA seed to decode a **seedless** v2 frame against (the receiver's
        seed chain in a GOP).  Ignored for frames that carry their own seed.
    expected_config : SensorConfig, optional
        When given, the header geometry (rows, columns, pixel and sample bit
        widths) must match it; a disagreement raises
        :class:`HeaderMismatchError` instead of silently decoding a frame
        that cannot belong to this stream.

    Raises
    ------
    TruncatedPayloadError
        ``data`` ends before the header, seed or sample payload it announces.
    BadMagicError
        ``data`` does not start with :data:`FRAME_MAGIC`.
    UnsupportedVersionError
        The version byte is not one of :data:`SUPPORTED_VERSIONS`.
    HeaderMismatchError
        Header/configuration disagreement, or a seedless frame with no
        ``seed_state`` supplied.
    FramingError
        The header decodes to impossible field values (corrupt payload).
    """
    data = bytes(data)
    prefix = decode_frame_prefix(
        data, seed_state=seed_state, expected_config=expected_config
    )
    header = prefix.header
    sample_bytes = (header.n_samples * header.sample_bits + 7) // 8
    if len(data) < prefix.n_bytes + sample_bytes:
        raise TruncatedPayloadError(
            f"frame announces {header.n_samples} samples "
            f"({sample_bytes} bytes) but only {len(data) - prefix.n_bytes} "
            "payload bytes follow the header"
        )
    samples = unpack_samples(
        data[prefix.n_bytes :], header.n_samples, header.sample_bits
    )
    config = SensorConfig(
        rows=header.rows,
        cols=header.cols,
        pixel_bits=header.pixel_bits,
    )
    metadata = dict(prefix.metadata)
    metadata["decoded_from_bytes"] = len(data)
    return CompressedFrame(
        samples=samples,
        seed_state=prefix.seed_state,
        rule_number=header.rule_number,
        steps_per_sample=header.steps_per_sample,
        warmup_steps=header.warmup_steps,
        config=config,
        digital_image=None,
        metadata=metadata,
    )


@dataclass(frozen=True)
class FramePrefix:
    """Everything an encoded frame carries *before* its packed samples.

    Produced by :func:`decode_frame_prefix`.  The streaming loss-resilience
    layer replicates this prefix into every :class:`~repro.stream.protocol.
    FrameSegment`, so a receiver that lost some segments can still rebuild
    the header, seed and statistics — and with them Φ — from any survivor.
    """

    header: FrameHeader
    seed_state: np.ndarray
    metadata: dict[str, object]
    #: Length of the prefix in bytes (samples start at this offset).
    n_bytes: int


def decode_frame_prefix(
    data: bytes,
    *,
    seed_state: np.ndarray | None = None,
    expected_config: SensorConfig | None = None,
) -> FramePrefix:
    """Parse a frame's header/stats/seed prefix without touching its samples.

    Accepts either a full encoded frame or just its prefix bytes (what
    every :class:`repro.stream.protocol.FrameSegment` replicates per
    segment).  Raises the same typed errors as :func:`decode_frame`.
    """
    data = bytes(data)
    if len(data) < 3:
        raise TruncatedPayloadError(
            f"frame needs at least 3 bytes, got {len(data)}"
        )
    reader = BitReader(data)
    magic = reader.read(8)
    version = reader.read(8)
    if magic != FRAME_MAGIC:
        raise BadMagicError(f"not a compressed-frame stream (magic 0x{magic:02X})")
    if version not in SUPPORTED_VERSIONS:
        raise UnsupportedVersionError(f"unsupported frame version {version}")
    flags = FLAG_HAS_SEED
    if version == 2:
        flags = reader.read(8)
    if reader.bits_remaining < _HEADER_BITS:
        raise TruncatedPayloadError(
            f"frame truncated inside the header ({reader.bits_remaining} bits "
            f"remain of the {_HEADER_BITS}-bit fixed header)"
        )
    fields = {name: reader.read(width) for name, width in _HEADER_FIELDS}
    try:
        header = FrameHeader(**fields)
    except ValueError as error:
        raise FramingError(f"corrupt frame header: {error}") from error
    if expected_config is not None:
        _check_expected(header, expected_config)

    metadata: dict[str, object] = {}
    if version == 2 and flags & FLAG_HAS_STATS:
        stats_bits = 2 * len(_CATEGORICAL_KEYS)  # lower bound: all absent
        if reader.bits_remaining < stats_bits:
            raise TruncatedPayloadError("frame truncated inside the statistics block")
        try:
            metadata = _read_stats(reader)
        except ValueError as error:
            raise TruncatedPayloadError(
                f"frame truncated inside the statistics block: {error}"
            ) from error

    n_seed_bits = header.rows + header.cols
    if version == 1 or flags & FLAG_HAS_SEED:
        if reader.bits_remaining < n_seed_bits:
            raise TruncatedPayloadError(
                f"frame truncated inside the CA seed ({reader.bits_remaining} bits "
                f"remain of {n_seed_bits})"
            )
        seed = np.array(reader.read_many(n_seed_bits, 1), dtype=np.uint8)
    else:
        if seed_state is None:
            raise HeaderMismatchError(
                "frame carries no CA seed; pass seed_state= (the receiver's "
                "GOP seed chain) to decode it"
            )
        seed = np.asarray(seed_state, dtype=np.uint8).reshape(-1)
        if seed.size != n_seed_bits:
            raise HeaderMismatchError(
                f"supplied seed_state has {seed.size} bits, header needs {n_seed_bits}"
            )

    # The sample payload starts at the next byte boundary (the header writer
    # zero-pads its final byte).
    bits_consumed = len(data) * 8 - reader.bits_remaining
    header_bytes = (bits_consumed + 7) // 8
    return FramePrefix(
        header=header,
        seed_state=seed,
        metadata=metadata,
        n_bytes=header_bytes,
    )


def _check_expected(header: FrameHeader, config: SensorConfig) -> None:
    expectations: tuple[tuple[str, int, int], ...] = (
        ("rows", header.rows, config.rows),
        ("cols", header.cols, config.cols),
        ("pixel_bits", header.pixel_bits, config.pixel_bits),
        ("sample_bits", header.sample_bits, config.compressed_sample_bits),
    )
    for name, got, expected in expectations:
        if got != expected:
            raise HeaderMismatchError(
                f"frame header {name}={got} does not match the expected "
                f"configuration ({name}={expected})"
            )


def encoded_size_bits(config: SensorConfig, n_samples: int) -> int:
    """Exact payload size of a v1 encoded frame (header + seed + samples)."""
    check_positive("n_samples", n_samples)
    header_bits = 16 + _HEADER_BITS + config.rows + config.cols
    header_bytes = (header_bits + 7) // 8
    sample_bytes = (n_samples * config.compressed_sample_bits + 7) // 8
    return (header_bytes + sample_bytes) * 8


def frame_overhead_bits(
    config: SensorConfig, *, version: int = 1, include_seed: bool = True
) -> int:
    """Worst-case non-sample bits of one encoded frame.

    The bit-rate governor of :mod:`repro.stream.node` subtracts this from the
    per-frame channel budget before dividing the remainder into compressed
    samples.  For v2 the statistics block is counted at its full width (every
    key present), so the estimate never under-charges the channel.
    """
    if version not in SUPPORTED_VERSIONS:
        raise UnsupportedVersionError(f"unknown frame version {version}")
    bits = 16 + _HEADER_BITS  # magic, version, fixed header
    if version == 2:
        bits += 8  # flags
        bits += 2 * len(_CATEGORICAL_KEYS) + 66 * len(STAT_KEYS)
    if include_seed:
        bits += config.rows + config.cols
    # Byte-align the header block and the final sample byte, as the codec does.
    return ((bits + 7) // 8) * 8 + 7
