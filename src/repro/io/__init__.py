"""Serialisation of compressed frames for transmission and storage.

The motivating application of the paper is a camera node that delivers images
"over a network under a restricted data rate".  This package provides the
bit-level plumbing that such a node needs: packing the 20-bit compressed
samples into a byte stream, framing them together with the CA seed and the
handful of parameters the receiver requires, and parsing the stream back on
the other side.  The live-streaming layers (chunked wire protocol, asyncio
camera node and streaming receiver) build on this package from
:mod:`repro.stream`.
"""

from repro.io.bitstream import BitReader, BitWriter, pack_samples, unpack_samples
from repro.io.framing import (
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

__all__ = [
    "BitWriter",
    "BitReader",
    "pack_samples",
    "unpack_samples",
    "FrameHeader",
    "encode_frame",
    "decode_frame",
    "encoded_size_bits",
    "frame_overhead_bits",
    "FramingError",
    "TruncatedPayloadError",
    "BadMagicError",
    "UnsupportedVersionError",
    "HeaderMismatchError",
]
