"""Chunked wire protocol for live compressive-sample streams.

The frame codec (:mod:`repro.io.framing`) serialises *one* capture; a camera
node needs to put many of them — tile by tile, frame by frame — onto one
byte channel and let the receiver cut the stream back apart while it is still
flowing.  This module is that layer:

* every transmission unit is a :class:`Chunk`: a fixed 12-byte header (magic,
  chunk type, stream id, sequence number, payload length) followed by the
  payload, so a receiver can re-synchronise and detect truncation without
  decoding payloads;
* :class:`ChunkDecoder` performs incremental parsing: feed it whatever byte
  slices the transport delivers (TCP segments, queue items) and it yields
  complete chunks, buffering partials;
* one payload dataclass per chunk kind: the stream header
  (:class:`StreamHeader` — kind, scene/tile geometry, GOP size: everything a
  receiver needs to derive the tile grid and pre-size its reconstruction),
  frame/tile data (:class:`FrameData` — grid position + an embedded v2 frame
  from :func:`repro.io.framing.encode_frame`), the per-frame completion
  barrier (:class:`FrameComplete`) and the end-of-stream marker
  (:class:`StreamEnd`).  :data:`PAYLOAD_LAYOUTS` describes every payload
  once, and one :func:`encode_payload`/:func:`decode_payload` pair reads it;
* the loss-resilience extension (additive — the original four type bytes and
  their layouts are frozen): :class:`FrameSegment` splits one frame's sample
  vector across several chunks so a lost chunk costs a *row subset* of Φ
  instead of the frame, :class:`FrameParity` is an XOR erasure-code chunk
  over a frame's segment group, and the two **control payloads**
  (:class:`ControlAck`, :class:`RateAdvice`) flow receiver→node over the
  feedback path to close the :class:`~repro.stream.node.BitrateGovernor`
  loop;
* the session-durability extension (additive again — types 9 and 10):
  :class:`NackRequest` carries a missing-sequence list receiver→node down
  the feedback path (the selective-repeat trigger), and
  :class:`SessionResume` lets a reconnecting node re-attach a live stream
  id on a fresh connection, announcing where its forward sequence and frame
  counters stand so the hub can splice the new connection onto the parked
  session state;
* :func:`advance_seed_state` — the GOP resynchronisation rule.  The
  free-running selection CA overlaps consecutive frames by one pattern, so
  frame ``k+1``'s seed is frame ``k``'s seed evolved through ``k``'s warm-up
  and its ``n_samples - 1`` pattern steps.  A GOP therefore carries the
  128-bit seed once (its keyframe); every later frame ships samples only and
  the receiver walks the chain.
"""

from __future__ import annotations

import enum
import operator
import struct
import zlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Union

import numpy as np

from repro.ca.automaton import ElementaryCellularAutomaton
from repro.ca.rules import RuleTable

#: First byte of every chunk ("CC": compressed chunk).
CHUNK_MAGIC = 0xCC
#: Version of the chunk layer itself (independent of the frame versions).
PROTOCOL_VERSION = 1
#: struct layout of the chunk header: magic, type, stream id, sequence, length.
_CHUNK_HEADER = struct.Struct(">BBHII")
#: Hard cap on a single chunk payload (a 64x64 v2 frame is ~10 kB; 16 MiB is
#: far beyond any legal frame and bounds a corrupt length field).
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

#: Stream kinds announced by the stream header.
STREAM_KINDS = ("frame", "video", "tiled", "tiled-video")


class StreamProtocolError(ValueError):
    """A malformed, out-of-order or impossible chunk was encountered."""


class ChunkType(enum.IntEnum):
    """Discriminator carried in every chunk header.

    Types 1–4 are the frozen original protocol; 5–8 are the additive
    loss-resilience extension (segments, parity, and the receiver→node
    control payloads); 9–10 are the additive session-durability extension
    (NACK-driven selective repeat and reconnect-with-resume).  A v1 stream
    never contains types above 4, so every previously-written stream still
    decodes unchanged.
    """

    STREAM_START = 1
    FRAME_DATA = 2
    FRAME_COMPLETE = 3
    STREAM_END = 4
    FRAME_SEGMENT = 5
    FRAME_PARITY = 6
    CONTROL_ACK = 7
    CONTROL_RATE = 8
    CONTROL_NACK = 9
    SESSION_RESUME = 10


#: Chunk types that flow receiver → node on the feedback path (never on the
#: forward data path).
CONTROL_CHUNK_TYPES = (
    ChunkType.CONTROL_ACK,
    ChunkType.CONTROL_RATE,
    ChunkType.CONTROL_NACK,
)

#: Valid chunk-type byte values (what the resynchronising decoder scans for).
_CHUNK_TYPE_VALUES = frozenset(int(member) for member in ChunkType)


@dataclass(frozen=True)
class Chunk:
    """One wire chunk: typed header plus opaque payload bytes."""

    chunk_type: ChunkType
    stream_id: int
    sequence: int
    payload: bytes

    @property
    def n_bytes(self) -> int:
        """Size of the chunk on the wire, header included."""
        return _CHUNK_HEADER.size + len(self.payload)


def encode_chunk(chunk: Chunk) -> bytes:
    """Serialise a :class:`Chunk` (header + payload)."""
    if len(chunk.payload) > MAX_PAYLOAD_BYTES:
        raise StreamProtocolError(
            f"chunk payload of {len(chunk.payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte cap"
        )
    return (
        _CHUNK_HEADER.pack(
            CHUNK_MAGIC,
            int(chunk.chunk_type),
            chunk.stream_id,
            chunk.sequence,
            len(chunk.payload),
        )
        + chunk.payload
    )


class ChunkDecoder:
    """Incremental chunk parser over an arbitrary byte-slice stream.

    Transports deliver bytes in whatever granularity they like (a TCP read
    may end mid-header); :meth:`feed` buffers partial input and returns every
    chunk completed so far.  By default malformed input raises
    :class:`StreamProtocolError` — the decoder never resynchronises silently.
    With ``resync=True`` (the lossy-channel mode) a corrupt header instead
    triggers a scan for the next plausible chunk boundary: the skipped bytes
    are counted in :attr:`bytes_skipped`/:attr:`resync_count` and decoding
    continues, so one truncated chunk costs its neighbours at worst, never
    the connection.
    """

    def __init__(self, *, resync: bool = False) -> None:
        self._buffer = bytearray()
        self.resync = bool(resync)
        #: Number of times a corrupt header forced a boundary scan.
        self.resync_count = 0
        #: Total bytes discarded while resynchronising.
        self.bytes_skipped = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete chunk."""
        return len(self._buffer)

    def _resynchronise(self) -> bool:
        """Drop bytes up to the next plausible header; False if none buffered."""
        self.resync_count += 1
        for offset in range(1, len(self._buffer) - _CHUNK_HEADER.size + 1):
            magic, chunk_type, _, _, length = _CHUNK_HEADER.unpack_from(
                self._buffer, offset
            )
            if (
                magic == CHUNK_MAGIC
                and chunk_type in _CHUNK_TYPE_VALUES
                and length <= MAX_PAYLOAD_BYTES
            ):
                self.bytes_skipped += offset
                del self._buffer[:offset]
                return True
        # No candidate header: keep a headers-worth of tail (a boundary may
        # straddle the next feed) and discard the rest.
        keep = min(len(self._buffer), _CHUNK_HEADER.size - 1)
        self.bytes_skipped += len(self._buffer) - keep
        del self._buffer[: len(self._buffer) - keep]
        return False

    def feed(self, data: bytes) -> list[Chunk]:
        """Absorb ``data`` and return the chunks it completed."""
        self._buffer.extend(data)
        chunks: list[Chunk] = []
        while len(self._buffer) >= _CHUNK_HEADER.size:
            magic, chunk_type, stream_id, sequence, length = _CHUNK_HEADER.unpack_from(
                self._buffer
            )
            if magic != CHUNK_MAGIC:
                if self.resync:
                    if self._resynchronise():
                        continue
                    break
                raise StreamProtocolError(
                    f"bad chunk magic 0x{magic:02X} (stream corrupt or misaligned)"
                )
            try:
                chunk_type = ChunkType(chunk_type)
            except ValueError as error:
                if self.resync:
                    if self._resynchronise():
                        continue
                    break
                raise StreamProtocolError(
                    f"unknown chunk type {chunk_type}"
                ) from error
            if length > MAX_PAYLOAD_BYTES:
                if self.resync:
                    if self._resynchronise():
                        continue
                    break
                raise StreamProtocolError(
                    f"chunk announces an impossible payload of {length} bytes"
                )
            end = _CHUNK_HEADER.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[_CHUNK_HEADER.size : end])
            del self._buffer[:end]
            chunks.append(
                Chunk(
                    chunk_type=chunk_type,
                    stream_id=stream_id,
                    sequence=sequence,
                    payload=payload,
                )
            )
        return chunks


# ---------------------------------------------------------------- payloads
@dataclass(frozen=True)
class StreamHeader:
    """Stream-level announcement: everything needed before the first frame.

    Attributes
    ----------
    kind:
        One of :data:`STREAM_KINDS`.  ``frame``/``video`` are single-sensor
        streams (one frame per :class:`~repro.stream.protocol.FrameData`
        chunk); the ``tiled`` kinds ship one chunk per mosaic tile and the
        receiver derives the grid from the two shapes below.
    scene_shape, tile_shape:
        Scene dimensions and nominal tile dimensions.  For single-sensor
        streams the two coincide.
    gop_size:
        Frames per group-of-pictures: the CA seed rides only on each GOP's
        first frame (``0``/``1`` mean every frame is a keyframe).
    n_frames:
        Announced sequence length, ``0`` when unbounded.
    """

    kind: str
    scene_shape: tuple[int, int]
    tile_shape: tuple[int, int]
    gop_size: int = 1
    n_frames: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STREAM_KINDS:
            raise StreamProtocolError(f"unknown stream kind {self.kind!r}")

    @property
    def tiled(self) -> bool:
        """True for mosaic streams (one chunk per tile)."""
        return self.kind in ("tiled", "tiled-video")


_STREAM_START = struct.Struct(">BBHHHHHI")
_FRAME_DATA = struct.Struct(">IHHB")
_FRAME_COMPLETE = struct.Struct(">IH")
_STREAM_END = struct.Struct(">I")


@dataclass(frozen=True)
class FrameData:
    """One frame-data payload: grid position plus an embedded encoded frame.

    ``keyframe`` marks frames that carry their CA seed inline; non-keyframes
    are seedless v2 frames decoded against the receiver's seed chain.
    """

    frame_index: int
    grid_row: int
    grid_col: int
    keyframe: bool
    frame_bytes: bytes


@dataclass(frozen=True)
class FrameComplete:
    """Per-frame completion barrier: the number of chunks the frame occupied."""

    frame_index: int
    n_chunks: int


@dataclass(frozen=True)
class StreamEnd:
    """End-of-stream marker announcing the total number of frames sent."""

    n_frames: int


# ------------------------------------------- loss-resilience payloads (5–8)
# Segment prefix: frame index, grid position, keyframe flag, segment index,
# segment count, first sample index, samples in this segment, length of the
# replicated frame prefix, CRC-32 of the body (prefix + packed samples).
_FRAME_SEGMENT = struct.Struct(">IHHBBBIIHI")
# Parity prefix: frame index, grid position, segment-group size; followed by
# one u32 per segment (the encoded payload lengths) and the XOR body.
_FRAME_PARITY = struct.Struct(">IHHB")
_PARITY_LENGTH = struct.Struct(">I")
# Receiver→node delivery report for one finalised frame.
_CONTROL_ACK = struct.Struct(">IHHHII")
# Receiver→node explicit rate advice.
_CONTROL_RATE = struct.Struct(">IId")


@dataclass(frozen=True)
class FrameSegment:
    """One contiguous slice of a frame's sample vector, independently decodable.

    Every segment replicates the frame's encoded *prefix* (header, optional
    statistics block, keyframe seed — everything
    :func:`repro.io.framing.encode_frame` emits before the packed samples),
    so any surviving segment carries enough to rebuild Φ; the samples of lost
    segments become masked rows.  ``sample_bytes`` is the slice bit-packed
    on its own (:func:`repro.io.bitstream.pack_samples`), so segments unpack
    independently of their neighbours.
    """

    frame_index: int
    grid_row: int
    grid_col: int
    keyframe: bool
    segment_index: int
    n_segments: int
    start_sample: int
    n_samples: int
    prefix_bytes: bytes
    sample_bytes: bytes


@dataclass(frozen=True)
class FrameParity:
    """XOR erasure code across one frame's segment group.

    ``parity_bytes`` is the bytewise XOR of the group's encoded segment
    payloads, each zero-padded to the longest; ``payload_lengths`` records
    the true lengths so a single missing segment can be recovered exactly
    (XOR the parity with every surviving payload, truncate to the missing
    length).  One parity chunk repairs **one** lost segment per frame —
    the classic RAID-4 trade.
    """

    frame_index: int
    grid_row: int
    grid_col: int
    payload_lengths: tuple[int, ...]
    parity_bytes: bytes


def xor_payloads(payloads: list[bytes]) -> bytes:
    """Bytewise XOR of byte strings, zero-padded to the longest."""
    if not payloads:
        raise StreamProtocolError("cannot XOR an empty payload group")
    width = max(len(payload) for payload in payloads)
    accumulator = np.zeros(width, dtype=np.uint8)
    for payload in payloads:
        padded = np.frombuffer(payload.ljust(width, b"\x00"), dtype=np.uint8)
        accumulator ^= padded
    return accumulator.tobytes()


def build_frame_parity(
    frame_index: int,
    grid_row: int,
    grid_col: int,
    segment_payloads: list[bytes],
) -> FrameParity:
    """Compute the parity chunk for a frame's encoded segment payloads."""
    return FrameParity(
        frame_index=frame_index,
        grid_row=grid_row,
        grid_col=grid_col,
        payload_lengths=tuple(len(payload) for payload in segment_payloads),
        parity_bytes=xor_payloads(segment_payloads),
    )


def recover_missing_payload(
    parity: FrameParity, surviving: dict[int, bytes], missing_index: int
) -> bytes:
    """Rebuild exactly one missing segment payload from the parity chunk."""
    if len(surviving) != len(parity.payload_lengths) - 1:
        raise StreamProtocolError(
            f"parity recovery needs all {len(parity.payload_lengths) - 1} "
            f"surviving segments, got {len(surviving)}"
        )
    recovered = xor_payloads([parity.parity_bytes, *surviving.values()])
    return recovered[: parity.payload_lengths[missing_index]]


@dataclass(frozen=True)
class ControlAck:
    """Receiver→node delivery report for one finalised frame.

    The closed-loop :class:`~repro.stream.node.BitrateGovernor` reads these:
    a frame whose ``n_samples_received`` fell short of ``n_samples_expected``
    is the AIMD *decrease* signal, a clean frame the *increase* signal.
    ``n_recovered_chunks`` counts parity repairs (the chunks were lost on the
    wire but their samples were not).
    """

    frame_index: int
    n_expected_chunks: int
    n_received_chunks: int
    n_recovered_chunks: int
    n_samples_expected: int
    n_samples_received: int

    @property
    def clean(self) -> bool:
        """True when every expected sample of the frame was delivered.

        An ack whose expectation is unknown (``n_samples_expected == 0`` —
        the receiver could not even parse how many samples the frame
        carried) is never clean: the governor must treat it as loss.
        """
        return (
            self.n_samples_expected > 0
            and self.n_samples_received >= self.n_samples_expected
        )

    @property
    def loss_fraction(self) -> float:
        """Fraction of the frame's samples lost in flight."""
        if self.n_samples_expected <= 0:
            return 0.0
        return 1.0 - self.n_samples_received / self.n_samples_expected


@dataclass(frozen=True)
class RateAdvice:
    """Receiver→node explicit rate advice: "the channel carried this many".

    Emitted alongside the ack when a frame saw loss — ``advised_samples`` is
    the sample count that actually made it through, a direct measurement of
    the channel's current capacity the governor can clamp to without probing
    its way down multiplicatively.
    """

    frame_index: int
    advised_samples: int
    loss_fraction: float


# ------------------------------------- session-durability payloads (9–10)
# Receiver→node selective-repeat request: the frame whose deadline fired and
# the count of missing-sequence entries (one u32 each) that follow.
_CONTROL_NACK = struct.Struct(">IH")
_NACK_SEQUENCE = struct.Struct(">I")
# Node→hub re-attach announcement on a fresh connection: the node's next
# forward sequence number, the last frame index it sent, and the reconnect
# epoch (1 = first resume).
_SESSION_RESUME = struct.Struct(">IIH")

#: Cap on missing sequences one NACK may carry.  A deeper loss backlog than
#: this is not selective-repeat territory (the retransmission buffer will
#: not cover it either); later NACKs pick up the remainder.
MAX_NACK_SEQUENCES = 64


@dataclass(frozen=True)
class NackRequest:
    """Receiver→node request to retransmit specific lost chunks.

    ``frame_index`` names the frame whose reassembly deadline triggered the
    request (informational — the node answers by *sequence*, not by frame);
    ``sequences`` are forward-path sequence numbers the receiver's gap
    tracking proved missing.  The node replies by re-sending whatever it
    still holds in its retransmission buffer, verbatim and under the
    original sequence numbers, so the session's reorder reclaim path absorbs
    the repairs with no new FSM states.
    """

    frame_index: int
    sequences: tuple[int, ...]


@dataclass(frozen=True)
class SessionResume:
    """Node→hub announcement re-attaching a stream id on a fresh connection.

    Sent as the *first* chunk of a reconnected transport, under the node's
    normal (monotonic) forward sequence numbering.  ``next_sequence`` is the
    sequence the resume chunk itself occupies — the receiving session's gap
    tracking then marks everything lost in flight as missing, and the
    node's follow-up retransmission of its unacknowledged buffer reclaims
    them.  ``frame_index`` is the last frame the node started sending;
    ``epoch`` counts reconnects (1 = first resume).
    """

    next_sequence: int
    frame_index: int
    epoch: int = 1


# ------------------------------------------------------------- wire schema
#: Full unsigned range of each integer struct code the layouts use.
_CODE_RANGE = {"B": (0, 0xFF), "H": (0, 0xFFFF), "I": (0, 0xFFFF_FFFF)}
#: The orderings a layout's ``relations`` may demand between two fields.
_RELATIONS = {"<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class RawTail:
    """Variable tail: the rest of the payload, as the bytes attribute ``name``."""

    name: str

    def encode(self, payload: object, wire: dict[str, Any]) -> bytes:
        tail: bytes = getattr(payload, self.name)
        return tail

    def decode(self, tail: bytes, wire: dict[str, Any], values: dict[str, Any]) -> None:
        values[self.name] = tail


@dataclass(frozen=True)
class ListTail:
    """Variable tail: the u32 list ``name``, counted by the fixed field ``count``.

    Without ``rest`` the list ends the payload; with it the bytes after the
    list form the ``rest`` attribute and must cover the longest entry (the
    entries are byte lengths).  ``increasing`` demands strictly increasing
    entries.
    """

    name: str
    count: str
    entry: struct.Struct
    rest: str | None = None
    increasing: bool = False

    def encode(self, payload: object, wire: dict[str, Any]) -> bytes:
        entries = tuple(getattr(payload, self.name))
        rest: bytes = getattr(payload, self.rest) if self.rest else b""
        wire[self.count] = len(entries)
        self._check(entries, rest)
        return b"".join(self.entry.pack(entry) for entry in entries) + rest

    def decode(self, tail: bytes, wire: dict[str, Any], values: dict[str, Any]) -> None:
        end = wire[self.count] * self.entry.size
        if len(tail) < end or (self.rest is None and len(tail) > end):
            raise StreamProtocolError(
                f"{self.count}={wire[self.count]} needs {end} bytes of {self.name}, "
                f"the tail carries {len(tail)}"
            )
        values[self.name] = tuple(entry for (entry,) in self.entry.iter_unpack(tail[:end]))
        if self.rest:
            values[self.rest] = tail[end:]
        self._check(values[self.name], tail[end:])

    def _check(self, entries: tuple[int, ...], rest: bytes) -> None:
        if not all(0 <= entry <= _CODE_RANGE["I"][1] for entry in entries):
            raise StreamProtocolError(f"{self.name} {entries} leave the u32 range")
        if self.increasing and any(a >= b for a, b in zip(entries, entries[1:])):
            raise StreamProtocolError(f"{self.name} {entries} are not strictly increasing")
        if self.rest and len(rest) < max(entries, default=0):
            raise StreamProtocolError(f"{len(rest)}-byte {self.rest} cannot cover {entries}")


@dataclass(frozen=True)
class CrcTail:
    """Variable tail: a CRC-32-guarded body, split at a prefix length.

    The fixed fields ``split`` and ``crc`` carry the length of the ``prefix``
    attribute and the checksum of the whole body (``prefix`` + ``rest``), so
    a body corrupted in flight raises instead of reaching the solve.
    """

    prefix: str
    rest: str
    split: str
    crc: str

    def encode(self, payload: object, wire: dict[str, Any]) -> bytes:
        prefix: bytes = getattr(payload, self.prefix)
        body = prefix + getattr(payload, self.rest)
        wire[self.split], wire[self.crc] = len(prefix), zlib.crc32(body)
        return body

    def decode(self, tail: bytes, wire: dict[str, Any], values: dict[str, Any]) -> None:
        split = wire[self.split]
        if split > len(tail):
            raise StreamProtocolError(f"{self.split}={split} overruns the {len(tail)}-byte body")
        if zlib.crc32(tail) != wire[self.crc]:
            raise StreamProtocolError("body failed its CRC-32 (corrupted in flight)")
        values[self.prefix], values[self.rest] = tail[:split], tail[split:]


@dataclass(frozen=True)
class PayloadLayout:
    """One row of the wire schema: how one payload dataclass sits on the wire.

    ``names`` lists the fixed fields in the order of the pinned struct
    ``fixed``, which gives each its code; ``tile_shape.1`` is element 1 of a
    tuple attribute.  A field's static bound is its code's full range, 0..1
    for a ``bool`` attribute and the index range of ``choices`` for a str
    attribute carried as an index, unless ``bounds`` narrows it (a float
    field must declare its bound there).  A field
    with no payload attribute carries its lower bound (a version byte) or
    what ``tail`` — the variable part after the struct — fills in (a count,
    a prefix length, a checksum).  ``relations`` order two fields, e.g.
    ``("segment_index", "<", "n_segments")``.
    """

    payload: type[Any]
    fixed: struct.Struct
    names: str
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    tail: RawTail | ListTail | CrcTail | None = None
    relations: tuple[tuple[str, str, str], ...] = ()
    choices: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @cached_property
    def attributes(self) -> dict[str, str]:
        """The payload's attributes and their annotations."""
        return {attribute.name: str(attribute.type) for attribute in fields(self.payload)}

    @cached_property
    def specs(self) -> tuple[tuple[str, str, float, float], ...]:
        """``(name, code, low, high)`` of every fixed field, in wire order."""
        specs: list[tuple[str, str, float, float]] = []
        for name, code in zip(self.names.split(), self.fixed.format[1:]):
            if name in self.bounds:
                low, high = self.bounds[name]
            elif name in self.choices:
                low, high = 0, len(self.choices[name]) - 1
            elif self.attributes.get(name) == "bool":
                low, high = 0, 1
            else:
                low, high = _CODE_RANGE[code]
            specs.append((name, code, low, high))
        return tuple(specs)

    def check(self, wire: dict[str, Any]) -> None:
        """Raise unless every fixed wire value passes its bound and relations."""
        for name, _, low, high in self.specs:
            try:
                admitted = low <= wire[name] <= high
            except TypeError:
                admitted = False
            if not admitted:
                raise StreamProtocolError(
                    f"{self.payload.__name__}.{name}={wire[name]!r} outside [{low}, {high}]"
                )
        for left, relation, right in self.relations:
            if not _RELATIONS[relation](wire[left], wire[right]):
                raise StreamProtocolError(
                    f"{self.payload.__name__}.{left}={wire[left]} is not {relation} "
                    f"{right}={wire[right]}"
                )


#: The wire schema: the single description of every chunk payload.
#: :func:`encode_payload` and :func:`decode_payload` read nothing else, so a
#: bound declared here holds in both directions.
PAYLOAD_LAYOUTS: dict[ChunkType, PayloadLayout] = {
    ChunkType.STREAM_START: PayloadLayout(
        StreamHeader,
        _STREAM_START,
        "version kind scene_shape.0 scene_shape.1 tile_shape.0 tile_shape.1 gop_size n_frames",
        {"version": (PROTOCOL_VERSION, PROTOCOL_VERSION)},
        choices={"kind": STREAM_KINDS},
    ),
    # 16-bit grid positions: anything tile_grid can produce from the 16-bit
    # scene/tile shapes of the stream header is representable.
    ChunkType.FRAME_DATA: PayloadLayout(
        FrameData,
        _FRAME_DATA,
        "frame_index grid_row grid_col keyframe",
        tail=RawTail("frame_bytes"),
    ),
    ChunkType.FRAME_COMPLETE: PayloadLayout(FrameComplete, _FRAME_COMPLETE, "frame_index n_chunks"),
    ChunkType.STREAM_END: PayloadLayout(StreamEnd, _STREAM_END, "n_frames"),
    ChunkType.FRAME_SEGMENT: PayloadLayout(
        FrameSegment,
        _FRAME_SEGMENT,
        "frame_index grid_row grid_col keyframe segment_index n_segments start_sample n_samples"
        " prefix_length checksum",
        {"n_segments": (1, 0xFF)},
        CrcTail("prefix_bytes", "sample_bytes", split="prefix_length", crc="checksum"),
        (("segment_index", "<", "n_segments"),),
    ),
    ChunkType.FRAME_PARITY: PayloadLayout(
        FrameParity,
        _FRAME_PARITY,
        "frame_index grid_row grid_col n_segments",
        {"n_segments": (1, 0xFF)},
        ListTail("payload_lengths", "n_segments", _PARITY_LENGTH, rest="parity_bytes"),
    ),
    ChunkType.CONTROL_ACK: PayloadLayout(
        ControlAck,
        _CONTROL_ACK,
        "frame_index n_expected_chunks n_received_chunks n_recovered_chunks n_samples_expected"
        " n_samples_received",
        relations=(("n_received_chunks", "<=", "n_expected_chunks"),),
    ),
    ChunkType.CONTROL_RATE: PayloadLayout(
        RateAdvice,
        _CONTROL_RATE,
        "frame_index advised_samples loss_fraction",
        {"loss_fraction": (0, 1)},
    ),
    ChunkType.CONTROL_NACK: PayloadLayout(
        NackRequest,
        _CONTROL_NACK,
        "frame_index n_sequences",
        {"n_sequences": (1, MAX_NACK_SEQUENCES)},
        ListTail("sequences", "n_sequences", _NACK_SEQUENCE, increasing=True),
    ),
    ChunkType.SESSION_RESUME: PayloadLayout(
        SessionResume, _SESSION_RESUME, "next_sequence frame_index epoch", {"epoch": (1, 0xFFFF)}
    ),
}

#: The payloads that carry one tile's samples, and the receiver→node ones.
TilePayload = Union[FrameData, FrameSegment, FrameParity]
ControlPayload = Union[ControlAck, RateAdvice, NackRequest]
#: Any chunk payload: the dataclass of one row of :data:`PAYLOAD_LAYOUTS`.
Payload = Union[StreamHeader, FrameComplete, StreamEnd, SessionResume, TilePayload, ControlPayload]
_PAYLOAD_CHUNK_TYPES = {layout.payload: kind for kind, layout in PAYLOAD_LAYOUTS.items()}


def payload_chunk(payload: Payload, stream_id: int, sequence: int) -> Chunk:
    """The chunk carrying ``payload``, typed by the payload's schema row."""
    chunk_type = _PAYLOAD_CHUNK_TYPES[type(payload)]
    return Chunk(chunk_type, stream_id, sequence, encode_payload(payload))


def encode_payload(payload: Payload) -> bytes:
    """Serialise a payload dataclass into its chunk payload bytes.

    Every field must pass the bound :func:`decode_payload` checks, so what
    encodes also decodes; anything else raises :class:`StreamProtocolError`.
    """
    layout = PAYLOAD_LAYOUTS[_PAYLOAD_CHUNK_TYPES[type(payload)]]
    wire: dict[str, Any] = {}
    for name, _, low, _ in layout.specs:
        attribute, _, item = name.partition(".")
        value = getattr(payload, attribute, low)
        value = value[int(item)] if item else value
        if value in layout.choices.get(name, ()):
            value = layout.choices[name].index(value)
        wire[name] = value
    try:
        tail = layout.tail.encode(payload, wire) if layout.tail is not None else b""
        layout.check(wire)
        return layout.fixed.pack(*wire.values()) + tail
    except struct.error as error:
        raise StreamProtocolError(f"cannot encode {payload!r}: {error}") from error


def decode_payload(chunk_type: ChunkType, data: bytes) -> Payload:
    """Parse the payload of a ``chunk_type`` chunk into its dataclass.

    A short, overlong, out-of-bound or corrupt payload raises
    :class:`StreamProtocolError`, never a bare ``struct.error``.
    """
    layout = PAYLOAD_LAYOUTS[chunk_type]
    size = layout.fixed.size
    if len(data) < size or (layout.tail is None and len(data) > size):
        raise StreamProtocolError(
            f"{chunk_type.name} payload of {len(data)} bytes does not fit its "
            f"{size}-byte header (shorter, or longer without a tail)"
        )
    wire = {spec[0]: value for spec, value in zip(layout.specs, layout.fixed.unpack_from(data))}
    layout.check(wire)
    values: dict[str, Any] = {}
    for name, value in wire.items():
        attribute, _, item = name.partition(".")
        if name in layout.choices:
            value = layout.choices[name][value]
        elif layout.attributes.get(attribute) == "bool":
            value = bool(value)
        if attribute in layout.attributes:
            values[attribute] = (values.get(attribute, ()) + (value,)) if item else value
    if layout.tail is not None:
        layout.tail.decode(data[size:], wire, values)
    decoded: Payload = layout.payload(**values)
    return decoded


# ------------------------------------------------------------ seed chaining
def advance_seed_state(
    seed_state: np.ndarray,
    rule: int | RuleTable,
    *,
    n_samples: int,
    steps_per_sample: int = 1,
    warmup_steps: int = 0,
) -> np.ndarray:
    """Derive the next frame's CA seed from the current frame's.

    The hardware CA free-runs across frames: a frame's last selection pattern
    *is* the next frame's seed (with no further warm-up — the register is
    already mixed).  Given frame ``k``'s seed and header parameters, the next
    seed is the state after ``warmup_steps`` plus ``n_samples - 1`` pattern
    advances of ``steps_per_sample`` generations each.  This is the receiver
    side of the seed-once GOP encoding: only keyframes spend channel bits on
    the seed, every other frame's measurement matrix is derived by walking
    this chain — and it matches
    :meth:`repro.sensor.imager.CompressiveImager.capture_batch` exactly (the
    streaming tests pin the chain against captured ``seed_state`` values).
    """
    seed_state = np.asarray(seed_state)
    automaton = ElementaryCellularAutomaton(
        seed_state.size, rule, seed_state=seed_state
    )
    total_steps = int(warmup_steps) + (int(n_samples) - 1) * int(steps_per_sample)
    if total_steps:
        automaton.step(total_steps)
    return automaton.state
