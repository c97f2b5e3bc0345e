"""Live streaming of compressive captures: node → wire → receiver.

The paper's motivating scenario — an autonomous camera node delivering
images "over a network under a restricted data rate" by shipping compressed
samples plus only the CA seed — implemented as a working service on top of
the capture engines:

* :mod:`repro.stream.protocol` — the chunked wire protocol (v2 frames with
  capture statistics, seed-once GOPs, incremental chunk parsing);
* :mod:`repro.stream.transport` — bounded loopback and TCP byte transports,
  both exerting real backpressure on the sender;
* :mod:`repro.stream.node` — :class:`CameraNode`, the asyncio capture-and-
  send loop with its bits-per-frame :class:`BitrateGovernor`;
* :mod:`repro.stream.session` — :class:`StreamSession`, the per-stream chunk
  FSM (seed chains, tile barriers, one solve job per settled frame);
* :mod:`repro.stream.hub` — :class:`ReceiverHub`, the fleet-scale ingest
  service muxing many node connections over one event loop, with
  round-robin solve fairness (:class:`FairSolveScheduler`) and two-level
  backpressure high-watermarks;
* :mod:`repro.stream.receiver` — :class:`StreamReceiver`, the single-node
  receiver (a thin one-session hub), decoding chunks as they arrive and
  reconstructing each frame at its barrier, byte-identical to the
  in-process reconstruction pipeline;
* :mod:`repro.stream.fault` — the seeded chaos adversaries:
  :class:`LossyTransport` (drop / truncate / duplicate / reorder),
  :class:`GilbertElliottTransport` (two-state burst loss) and
  :class:`DisconnectingTransport` (a scripted mid-stream cut) —
  everything the resilient receive path, the closed rate-control loop and
  the self-healing (NACK / resume / deadline) machinery are tested against.
"""

from repro.stream.fault import (
    DisconnectingTransport,
    GilbertElliottTransport,
    LossyTransport,
)
from repro.stream.hub import (
    DuplicateStreamIdError,
    FairSolveScheduler,
    HubCapacityError,
    HubPortInUseError,
    HubStats,
    ReceiverHub,
    SessionResumeError,
)
from repro.stream.node import (
    BitrateGovernor,
    CameraNode,
    ChannelBudgetError,
    ReconnectExhaustedError,
    ReconnectSupervisor,
    RetransmitBuffer,
    StreamStats,
)
from repro.stream.protocol import (
    CONTROL_CHUNK_TYPES,
    MAX_NACK_SEQUENCES,
    Chunk,
    ChunkDecoder,
    ChunkType,
    ControlAck,
    FrameComplete,
    FrameData,
    FrameParity,
    FrameSegment,
    NackRequest,
    RateAdvice,
    SessionResume,
    StreamEnd,
    StreamHeader,
    StreamProtocolError,
    advance_seed_state,
    decode_payload,
    encode_chunk,
    encode_payload,
)
from repro.stream.receiver import (
    ReceivedFrame,
    StreamReceiver,
    StreamResult,
    receive_stream,
)
from repro.stream.session import SessionStats, StreamSession
from repro.stream.transport import (
    DuplexTransport,
    LoopbackTransport,
    TcpTransport,
    TransportClosedError,
    connect_tcp,
    loopback_duplex_pair,
    serve_tcp,
)

__all__ = [
    "CameraNode",
    "BitrateGovernor",
    "ChannelBudgetError",
    "StreamStats",
    "StreamReceiver",
    "StreamResult",
    "ReceivedFrame",
    "receive_stream",
    "StreamSession",
    "SessionStats",
    "ReceiverHub",
    "FairSolveScheduler",
    "HubStats",
    "DuplicateStreamIdError",
    "HubCapacityError",
    "HubPortInUseError",
    "SessionResumeError",
    "RetransmitBuffer",
    "ReconnectSupervisor",
    "ReconnectExhaustedError",
    "LoopbackTransport",
    "DuplexTransport",
    "loopback_duplex_pair",
    "LossyTransport",
    "GilbertElliottTransport",
    "DisconnectingTransport",
    "TcpTransport",
    "TransportClosedError",
    "connect_tcp",
    "serve_tcp",
    "Chunk",
    "ChunkType",
    "ChunkDecoder",
    "FrameData",
    "FrameComplete",
    "StreamEnd",
    "FrameSegment",
    "FrameParity",
    "ControlAck",
    "RateAdvice",
    "NackRequest",
    "SessionResume",
    "CONTROL_CHUNK_TYPES",
    "MAX_NACK_SEQUENCES",
    "StreamHeader",
    "StreamProtocolError",
    "advance_seed_state",
    "encode_chunk",
    "encode_payload",
    "decode_payload",
]
