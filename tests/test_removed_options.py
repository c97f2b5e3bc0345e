"""Options that nothing exercised are gone, and stay gone.

Slice 0 of a loss channel is always exempt, the burst channel always runs
its fixed two-state model, the reconnect supervisor always retries
``OSError``, a TCP read is always one 64 KiB segment, a telemetry facade
always owns its registry and an imager always draws its CA seed from its
base seed.  A governor always backs off by half, and the retransmission
buffer only evicts on ACK and capacity.  Each removed keyword must be
refused, not silently accepted.
"""

import pytest

import repro.stream
from repro.sensor.imager import CompressiveImager
from repro.stream.fault import GilbertElliottTransport, LossyTransport
from repro.stream.node import (
    BitrateGovernor,
    CameraNode,
    ReconnectSupervisor,
    RetransmitBuffer,
)
from repro.stream.transport import LoopbackTransport, TcpTransport
from repro.telemetry import Telemetry


async def _connect():
    return LoopbackTransport()


def _lossy(**option):
    return LossyTransport(LoopbackTransport(), seed=0, **option)


def _burst(**option):
    return GilbertElliottTransport(LoopbackTransport(), seed=0, **option)


def _supervisor(**option):
    return ReconnectSupervisor(_connect, **option)


def _tcp_recv(**option):
    return TcpTransport(None, None).recv(**option)


def _node(**option):
    return CameraNode(LoopbackTransport(), **option)


def _retransmit_buffer(**option):
    return RetransmitBuffer(4, **option)


@pytest.mark.parametrize(
    "factory, option",
    [
        (_lossy, "protect_first"),
        (_burst, "protect_first"),
        (_burst, "p_good_to_bad"),
        (_burst, "p_bad_to_good"),
        (_burst, "loss_good"),
        (_burst, "loss_bad"),
        (_supervisor, "retryable"),
        (_tcp_recv, "max_bytes"),
        (Telemetry, "registry"),
        (CompressiveImager, "ca_seed_state"),
        (BitrateGovernor, "aimd_decrease"),
        (_node, "retransmit_max_age"),
        (_retransmit_buffer, "max_age"),
    ],
)
def test_removed_keyword_is_not_an_option(factory, option):
    with pytest.raises(TypeError, match=option):
        factory(**{option: None})


def test_stalling_transport_is_not_an_option():
    assert "StallingTransport" not in repro.stream.__all__
    assert not hasattr(repro.stream, "StallingTransport")
