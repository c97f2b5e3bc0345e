"""SHA-256 pins of the bytes that involve no random generator.

Every input below is a hand-written bit pattern or a fixed arithmetic
sequence, so these digests depend only on the program: the packed CA engine
(rules 30/90/110 on all three boundaries), the shared Φ factor builder, the
receiver's seed chain and the v2 frame encoding (with and without its seed).
A refactor that claims "same bytes" must leave every digest here unchanged;
a digest that moves is a changed wire or a changed Φ, never noise.

Captures are not pinned here: their LSB errors and shot noise come from the
numpy generator stream, whose bytes may differ across numpy releases.
"""

import hashlib

import numpy as np
import pytest

from repro.ca.automaton import BoundaryCondition, ElementaryCellularAutomaton
from repro.ca.selection import ca_selection_factors
from repro.io.framing import decode_frame, encode_frame
from repro.sensor.config import SensorConfig
from repro.sensor.imager import CompressedFrame
from repro.stream.protocol import advance_seed_state

ROWS, COLS = 8, 12


def bits(word, n_bits):
    """The ``n_bits`` low bits of ``word``, least significant first."""
    return np.array([(word >> index) & 1 for index in range(n_bits)], dtype=np.uint8)


#: A 24-cell register seed and a (rows + cols)-cell Φ seed.
CA_SEED = bits(0xB5E3A7, 24)
PHI_SEED = bits(0x5A3C9, ROWS + COLS)


def digest(*arrays):
    """SHA-256 over each array's dtype, shape and bytes, in order."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


CA_STATES = {
    (30, "periodic"): "db62acb01d223ae38feafd7cf49fdc38e422a193b7d21bcdd27c427b8c164337",
    (30, "fixed_zero"): "6bb5d27faaa1e6d279acc5fa1bae0ad0289a4f9e1c29c046cd88204f95070667",
    (30, "fixed_one"): "4fa1ddd8e7a209a359f65b2b2fa3a2eec880ac6d64726b096a3b756886d842da",
    (90, "periodic"): "c8f98868ad8d23de5090c64fff9265f225cdb9d09d697e8c12636f515dfc9a41",
    (90, "fixed_zero"): "3476005c242ce59a7962e86a038fb78df8d02977b342f0f0ef1b54cad2fe1a36",
    (90, "fixed_one"): "7aa53aec900b36d01844689ee5b0305d7dad4ff73268c5d19f46b184d6fb4405",
    (110, "periodic"): "34497bd260f1eea393e7fcd903923348952f6fda5e5633a51185d0708ae06042",
    (110, "fixed_zero"): "a6d33ecb5f319e9d8bc75d44b6d12ce34d01b879a20974eb64bd5c0aa8d77701",
    (110, "fixed_one"): "6896a45ca5a7f75d2d30730e4540dc5ee5a4321b8213a55d544a1216ff0c2216",
}


@pytest.mark.parametrize("rule, boundary", sorted(CA_STATES))
def test_ca_states(rule, boundary):
    automaton = ElementaryCellularAutomaton(
        CA_SEED.size, rule, seed_state=CA_SEED, boundary=BoundaryCondition(boundary)
    )
    states = automaton.evolve_states(40, stride=3)
    assert digest(states) == CA_STATES[rule, boundary]


def test_ca_selection_factors():
    factors = ca_selection_factors(
        40, ROWS, COLS, PHI_SEED, rule=30, steps_per_sample=2, warmup_steps=5
    )
    assert digest(*factors) == (
        "c345519822326c8eb2b437039969a31957946a11aa03fe6e0450ba7e18a0c6ab"
    )


def test_advance_seed_state_chain():
    chain = [PHI_SEED]
    for _ in range(5):
        chain.append(
            advance_seed_state(
                chain[-1], 30, n_samples=30, steps_per_sample=2, warmup_steps=3
            )
        )
    assert digest(*chain) == (
        "212b236329a6dd848eab7a34cb112e67da26775160912eeef5a259a237ea73fa"
    )


V2_FRAMES = {
    True: "f03c31f7609d28689e7710814fda49252d8e674e1fb4b570b9c9c966f170ca27",
    False: "9c1763ea8ec7f68eb3f32530e7435c0c58e2bff456660afb1c20cb9c12dc251f",
}


@pytest.mark.parametrize("include_seed", [True, False], ids=["keyframe", "seedless"])
def test_v2_frame_encoding(include_seed):
    frame = CompressedFrame(
        samples=(np.arange(40, dtype=np.int64) * 7919) % 5000,
        seed_state=PHI_SEED,
        rule_number=30,
        steps_per_sample=2,
        warmup_steps=5,
        config=SensorConfig(rows=ROWS, cols=COLS),
        digital_image=None,
        metadata={
            "fidelity": "behavioural",
            "n_lost_events": 3,
            "lsb_error_probability": 0.125,
        },
    )
    blob = encode_frame(frame, version=2, include_seed=include_seed)
    assert hashlib.sha256(blob).hexdigest() == V2_FRAMES[include_seed]
    decoded = decode_frame(blob, seed_state=None if include_seed else PHI_SEED)
    assert decoded.samples.tobytes() == frame.samples.tobytes()
    assert decoded.seed_state.tobytes() == PHI_SEED.tobytes()
