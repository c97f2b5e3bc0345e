"""Corruption is detected, never reconstructed into plausible wrong pixels.

The receiver rebuilds Φ from the transmitted CA seed alone, so a flipped seed
or sample bit that reached the solve would give a wrong image and no error.
Every tile therefore ships as a CRC-checked segment group.  This gate records
default-framing GOP-2 streams, flips one seeded bit per copy of the wire
bytes, and feeds every copy through a :class:`ChunkDecoder` into a strict
session core: a copy may raise a typed error, but every frame it lands must
match the clean run in its samples, seed and sensor config.
"""

import numpy as np
import pytest

from repro.stream.protocol import ChunkDecoder, StreamProtocolError, encode_chunk
from repro.stream.session import StreamSession
from tests.stream.recorded import landed_frames, recorded_chunks, wrong_frames

N_FLIPS = 150


def _land(slices):
    """Feed the wire slices to a strict session core: (frames landed, raised)."""
    session = StreamSession(1, None)  # the core never submits; only the drain does
    decoder = ChunkDecoder()
    try:
        for data in slices:
            for chunk in decoder.feed(data):
                session.feed(chunk)
        if not session.ended:
            session.seal()  # a strict session raises: EOF before the stream end
    except StreamProtocolError:
        return landed_frames(session), True
    return landed_frames(session), False


@pytest.mark.parametrize("kind", ["video", "mosaic"])
def test_no_single_bit_flip_lands_a_wrong_frame(kind):
    slices = [encode_chunk(chunk) for chunk in recorded_chunks(kind, 4)]
    clean, raised = _land(slices)
    assert not raised and sorted(clean) == [0, 1, 2, 3]
    bounds = [0, *np.cumsum([len(data) for data in slices])]
    wire = b"".join(slices)
    rng = np.random.default_rng(36)
    silent, n_raised = [], 0
    for bit in rng.choice(8 * len(wire), size=N_FLIPS, replace=False):
        flipped = bytearray(wire)
        flipped[bit // 8] ^= 1 << (bit % 8)
        # Delivered as the node sent it: one transport slice per chunk.
        landed, error = _land(
            [bytes(flipped[start:stop]) for start, stop in zip(bounds, bounds[1:])]
        )
        n_raised += error
        if wrong_frames(landed, clean):
            silent.append(int(bit))
    assert silent == []
    assert n_raised > N_FLIPS // 2  # most flips hit a checksummed byte
