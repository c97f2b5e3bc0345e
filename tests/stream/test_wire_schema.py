"""The wire schema, property-tested row by row.

Every chunk payload is one row of :data:`~repro.stream.protocol.PAYLOAD_LAYOUTS`
and goes through the one generic :func:`~repro.stream.protocol.encode_payload`
/ :func:`~repro.stream.protocol.decode_payload` pair.  The strategies below
are derived from the same table, so a new row or bound is fuzzed without a
new test.  The properties:

* whatever encodes decodes back to an equal payload;
* every strict prefix of a valid payload raises
  :class:`~repro.stream.protocol.StreamProtocolError` — unless the row ends
  in raw bytes, whose truncation parses as a shorter, still valid payload;
* every field outside its static bound raises that same typed error, when
  encoding and when decoding — never a bare ``struct.error``.

CI's chaos job reruns this module under the fixed-budget ``fuzz`` profile.
"""

import dataclasses
import math
import struct

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.stream.protocol import (
    PAYLOAD_LAYOUTS,
    ChunkType,
    ControlAck,
    CrcTail,
    FrameData,
    FrameSegment,
    ListTail,
    RawTail,
    StreamProtocolError,
    decode_payload,
    encode_payload,
)

#: Full range of each integer struct code, independent of the schema module.
CODE_RANGE = {"B": (0, 2**8 - 1), "H": (0, 2**16 - 1), "I": (0, 2**32 - 1)}
MAX_BODY = 24
ALL_TYPES = pytest.mark.parametrize("chunk_type", list(ChunkType), ids=lambda t: t.name)


def _tail_fields(layout):
    """Fixed fields the row's tail fills in, not the payload."""
    if isinstance(layout.tail, ListTail):
        return {layout.tail.count}
    if isinstance(layout.tail, CrcTail):
        return {layout.tail.split, layout.tail.crc}
    return set()


def _spec(layout, name):
    return next(spec for spec in layout.specs if spec[0] == name)


def _narrowed(layout):
    """``(index, spec)`` of the fixed fields whose bound is tighter than their code."""
    return [
        (index, spec)
        for index, spec in enumerate(layout.specs)
        if spec[1] == "d" or CODE_RANGE[spec[1]] != (spec[2], spec[3])
    ]


@st.composite
def payloads(draw, chunk_type):
    """A valid payload of ``chunk_type``, drawn from its schema row."""
    layout = PAYLOAD_LAYOUTS[chunk_type]
    values = {}
    for name, code, low, high in layout.specs:
        attribute, _, item = name.partition(".")
        if name in _tail_fields(layout) or attribute not in layout.attributes:
            continue
        if name in layout.choices:
            value = draw(st.sampled_from(layout.choices[name]))
        elif layout.attributes[attribute] == "bool":
            value = draw(st.booleans())
        elif code == "d":
            value = draw(st.floats(low, high))
        else:
            value = draw(st.integers(low, high))
        values[attribute] = (values.get(attribute, ()) + (value,)) if item else value
    for left, relation, right in layout.relations:
        assume(values[left] < values[right] if relation == "<" else values[left] <= values[right])
    tail = layout.tail
    if isinstance(tail, RawTail):
        values[tail.name] = draw(st.binary(max_size=MAX_BODY))
    elif isinstance(tail, CrcTail):
        values[tail.prefix] = draw(st.binary(max_size=MAX_BODY))
        values[tail.rest] = draw(st.binary(max_size=MAX_BODY))
    elif isinstance(tail, ListTail):
        _, _, low, high = _spec(layout, tail.count)
        rest = draw(st.binary(max_size=MAX_BODY)) if tail.rest else b""
        entry = st.integers(0, len(rest)) if tail.rest else st.integers(*CODE_RANGE["I"])
        entries = draw(
            st.lists(entry, min_size=low, max_size=high, unique=tail.increasing)
        )
        values[tail.name] = tuple(sorted(entries) if tail.increasing else entries)
        if tail.rest:
            values[tail.rest] = rest
    return layout.payload(**values)


def _out_of_bound(code, low, high, *, wire):
    """Values outside ``low..high``; on the wire, only those the code can carry."""
    if code == "d":
        return st.one_of(
            st.floats(max_value=low, exclude_max=True),
            st.floats(min_value=high, exclude_min=True),
            st.just(math.nan),
        )
    floor, ceiling = CODE_RANGE[code] if wire else (-(2**40), 2**40)
    options = []
    if floor < low:
        options.append(st.integers(floor, low - 1))
    if high < ceiling:
        options.append(st.integers(high + 1, ceiling))
    return st.one_of(options) if options else st.nothing()


@ALL_TYPES
@given(data=st.data())
def test_every_payload_round_trips(chunk_type, data):
    payload = data.draw(payloads(chunk_type))
    assert decode_payload(chunk_type, encode_payload(payload)) == payload


@ALL_TYPES
@given(data=st.data())
def test_every_strict_prefix_raises_typed_or_is_a_shorter_payload(chunk_type, data):
    layout = PAYLOAD_LAYOUTS[chunk_type]
    encoded = encode_payload(data.draw(payloads(chunk_type)))
    open_ended = isinstance(layout.tail, RawTail) or (
        isinstance(layout.tail, ListTail) and layout.tail.rest is not None
    )
    for end in range(len(encoded)):
        try:
            decoded = decode_payload(chunk_type, encoded[:end])
        except StreamProtocolError:
            continue
        # Only trailing raw bytes can be cut and still parse.
        assert open_ended and end >= layout.fixed.size
        assert encode_payload(decoded) == encoded[:end]


@pytest.mark.parametrize(
    "chunk_type",
    [chunk_type for chunk_type in ChunkType if _narrowed(PAYLOAD_LAYOUTS[chunk_type])],
    ids=lambda chunk_type: chunk_type.name,
)
@given(data=st.data())
def test_an_out_of_bound_wire_field_fails_to_decode(chunk_type, data):
    layout = PAYLOAD_LAYOUTS[chunk_type]
    encoded = encode_payload(data.draw(payloads(chunk_type)))
    index, (_, code, low, high) = data.draw(st.sampled_from(_narrowed(layout)))
    fields = list(layout.fixed.unpack_from(encoded))
    fields[index] = data.draw(_out_of_bound(code, low, high, wire=True))
    mangled = layout.fixed.pack(*fields) + encoded[layout.fixed.size :]
    with pytest.raises(StreamProtocolError):
        decode_payload(chunk_type, mangled)


@ALL_TYPES
@given(data=st.data())
def test_an_out_of_bound_field_fails_to_encode(chunk_type, data):
    layout = PAYLOAD_LAYOUTS[chunk_type]
    payload = data.draw(payloads(chunk_type))
    candidates = [
        spec
        for spec in layout.specs
        if spec[0].partition(".")[0] in layout.attributes
        and spec[0] not in layout.choices
        and spec[0] not in _tail_fields(layout)
    ]
    name, code, low, high = data.draw(st.sampled_from(candidates))
    value = data.draw(_out_of_bound(code, low, high, wire=False))
    attribute, _, item = name.partition(".")
    if item:
        items = list(getattr(payload, attribute))
        items[int(item)] = value
        value = tuple(items)
    with pytest.raises(StreamProtocolError):
        encode_payload(dataclasses.replace(payload, **{attribute: value}))


class TestEncodeAndDecodeAgree:
    """Each bound holds in both directions: what one side refuses, so does the other."""

    def test_a_grid_position_beyond_u16_raises_typed(self):
        with pytest.raises(StreamProtocolError, match="grid_row"):
            encode_payload(FrameData(0, 70000, 0, True, b""))

    def test_a_keyframe_flag_other_than_0_or_1_is_refused(self):
        payload = bytearray(encode_payload(FrameData(0, 0, 0, True, b"x")))
        payload[8] = 7
        with pytest.raises(StreamProtocolError, match="keyframe"):
            decode_payload(ChunkType.FRAME_DATA, bytes(payload))
        with pytest.raises(StreamProtocolError, match="keyframe"):
            encode_payload(FrameData(0, 0, 0, 7, b"x"))

    def test_an_ack_receiving_more_chunks_than_expected_is_refused(self):
        with pytest.raises(StreamProtocolError, match="n_received_chunks"):
            encode_payload(ControlAck(0, 1, 2, 0, 0, 0))

    def test_a_segment_index_outside_its_group_is_refused(self):
        segment = FrameSegment(0, 0, 0, False, 3, 3, 0, 1, b"", b"x")
        with pytest.raises(StreamProtocolError, match="segment_index"):
            encode_payload(segment)
        valid = encode_payload(dataclasses.replace(segment, segment_index=2))
        mangled = valid[:9] + bytes([3]) + valid[10:]
        with pytest.raises(StreamProtocolError, match="segment_index"):
            decode_payload(ChunkType.FRAME_SEGMENT, mangled)

    def test_a_nack_repeating_one_sequence_is_refused(self):
        flood = struct.pack(">IH", 0, 0xFFFF) + struct.pack(">I", 5) * 0xFFFF
        with pytest.raises(StreamProtocolError, match="n_sequences"):
            decode_payload(ChunkType.CONTROL_NACK, flood)
        repeated = struct.pack(">IH", 0, 2) + struct.pack(">I", 5) * 2
        with pytest.raises(StreamProtocolError, match="strictly increasing"):
            decode_payload(ChunkType.CONTROL_NACK, repeated)

    def test_every_chunk_type_has_a_row(self):
        assert set(PAYLOAD_LAYOUTS) == set(ChunkType)
