"""Property-based tests for the transmission bitstream layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.bitstream import BitReader, BitWriter, pack_samples, unpack_samples


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(1, 24), st.integers(0, 2**24 - 1)), min_size=1, max_size=40
    )
)
def test_mixed_width_round_trip(data):
    """Any sequence of (width, value) pairs survives the writer/reader round trip."""
    writer = BitWriter()
    normalised = []
    for n_bits, value in data:
        value %= 1 << n_bits
        normalised.append((n_bits, value))
        writer.write(value, n_bits)
    reader = BitReader(writer.getvalue())
    for n_bits, value in normalised:
        assert reader.read(n_bits) == value


@settings(max_examples=50, deadline=None)
@given(
    n_bits=st.integers(1, 32),
    values=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=200),
)
def test_pack_unpack_round_trip(n_bits, values):
    samples = np.array([value % (1 << n_bits) for value in values], dtype=np.int64)
    packed = pack_samples(samples, n_bits)
    assert len(packed) == (len(samples) * n_bits + 7) // 8
    assert np.array_equal(unpack_samples(packed, len(samples), n_bits), samples)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.integers(0, (1 << 20) - 1), min_size=1, max_size=100))
def test_twenty_bit_packing_is_denser_than_words(values):
    """The whole point: 20-bit packing always beats 32-bit word transmission."""
    packed = pack_samples(values, 20)
    assert len(packed) <= len(values) * 4
    if len(values) >= 2:
        assert len(packed) < len(values) * 4


@settings(max_examples=100, deadline=None)
@given(n_bits=st.integers(1, 63), data=st.data())
def test_vector_codec_matches_writer_and_reader(n_bits, data):
    """pack/unpack give the bit-serial codec's bytes and values at every width."""
    values = data.draw(st.lists(st.integers(0, 2**n_bits - 1), max_size=60))
    writer = BitWriter()
    writer.write_many(values, n_bits)
    packed = pack_samples(np.array(values, dtype=np.int64), n_bits)
    assert packed == writer.getvalue()
    unpacked = unpack_samples(packed, len(values), n_bits)
    assert unpacked.dtype == np.int64
    assert unpacked.tolist() == BitReader(packed).read_many(len(values), n_bits)


@settings(max_examples=50, deadline=None)
@given(
    n_bits=st.integers(1, 62),
    values=st.lists(st.integers(0, 2**62 - 1), min_size=1, max_size=20),
    position=st.integers(0, 19),
    negative=st.booleans(),
)
def test_vector_codec_rejects_what_the_writer_and_reader_reject(
    n_bits, values, position, negative
):
    """An out-of-range value and a too-short payload raise ValueError."""
    values = [value % (1 << n_bits) for value in values]
    values[position % len(values)] = -1 if negative else 1 << n_bits
    with pytest.raises(ValueError, match="does not fit"):
        BitWriter().write_many(values, n_bits)
    with pytest.raises(ValueError, match="does not fit"):
        pack_samples(values, n_bits)
    short = bytes((len(values) * n_bits + 7) // 8 - 1)
    with pytest.raises(ValueError, match="remain"):
        BitReader(short).read_many(len(values), n_bits)
    with pytest.raises(ValueError, match="remain"):
        unpack_samples(short, len(values), n_bits)
