"""The receiving end: decode chunks as they arrive, reconstruct incrementally.

:class:`StreamReceiver` is the off-chip half of the paper's system running as
a service, serving exactly one camera node.  Since the transport / session /
scheduling split it is a *thin one-session hub*: every call to :meth:`run`
builds a private :class:`~repro.stream.hub.ReceiverHub` capped at one
stream, attaches the transport and returns that stream's result.  All the
actual protocol work lives in :class:`~repro.stream.session.StreamSession`:

* tiled streams collect a frame's tiles as they land and invert them
  **batched** at the ``FRAME_COMPLETE`` barrier — the mosaic's equal-shape
  tiles solved in stacked FISTA groups sized to a cache budget
  (:func:`~repro.recon.batch.solve_tiles_batched`), each tile's GEMMs on
  its own rank-structured ``(R, C)`` factors, exactly the path in-process
  :func:`~repro.recon.pipeline.reconstruct_tiled` runs, so streamed and
  in-process reconstructions stay byte-identical;
* video streams maintain one **seed chain** per tile position: keyframes
  re-anchor the chain with their inline seed, seedless frames decode against
  it, and after every frame the chain advances by the one-pattern frame
  overlap (:func:`~repro.stream.protocol.advance_seed_state`) — the receiver
  stays synchronised with the sensor's free-running CA for free, which is the
  paper's central selling point exercised over an actual wire.

Reconstruction runs on a worker executor so the event loop keeps draining
the transport, with at most :attr:`StreamReceiver.SOLVER_SLOTS` solves
in flight; with reconstruction disabled the receiver is a pure decoder
(useful for benchmarks and relays).  Because the single-node path *is* the
hub path with ``max_streams=1``, the fleet-scale
:class:`~repro.stream.hub.ReceiverHub` inherits the byte-identity invariant
verbatim — a hub session serving one node reconstructs identically to this
class (pinned by the hub tests).
"""

from __future__ import annotations

import inspect
from typing import Any

from repro.stream.hub import ReceiverHub
from repro.stream.protocol import StreamProtocolError
from repro.stream.session import ReceivedFrame, StreamResult
from repro.stream.transport import Transport

__all__ = ["ReceivedFrame", "StreamReceiver", "StreamResult", "receive_stream"]


class StreamReceiver:
    """Consume one stream from a transport, decoding and reconstructing live.

    Every keyword option is a :class:`~repro.stream.hub.ReceiverHub` option
    (``reconstruct``, ``max_iterations``, ``resilient``, ``feedback``,
    ``frame_deadline``, ``telemetry``, ...), forwarded verbatim to the
    private one-stream hub each :meth:`run` builds.  The fleet options that
    hub fixes or never exercises (:attr:`FLEET_ONLY`) are refused, as is an
    unknown name: both raise ``TypeError`` here, at construction.
    """

    #: Solver slots of the private single-stream hub and its stream's
    #: ``per_stream_pending``: the one stream may fill every slot and no
    #: more.
    SOLVER_SLOTS = 8

    #: Hub options with no meaning for one stream on a private hub: the
    #: scheduler sizing and admission bound are fixed below, and parking
    #: and reaping need a long-lived fleet hub.
    FLEET_ONLY = frozenset(
        {
            "solver_slots",
            "per_stream_pending",
            "max_pending",
            "max_streams",
            "resume_grace",
            "idle_timeout",
        }
    )

    def __init__(self, **options: Any) -> None:
        fleet = sorted(self.FLEET_ONLY.intersection(options))
        if fleet:
            raise TypeError(f"StreamReceiver does not take the hub options {fleet}")
        inspect.signature(ReceiverHub).bind(**options)
        self._options = options

    def _new_hub(self) -> ReceiverHub:
        return ReceiverHub(
            solver_slots=self.SOLVER_SLOTS,
            per_stream_pending=self.SOLVER_SLOTS,
            max_pending=None,
            max_streams=1,
            **self._options,
        )

    async def run(self, transport: Transport) -> StreamResult:
        """Drain the transport until end-of-stream; return everything landed.

        Raises :class:`~repro.stream.protocol.StreamProtocolError` on
        malformed chunks, sequence gaps, duplicate tiles, or a stream that
        ends mid-frame.  A receiver instance can be reused: each call runs
        on a fresh single-stream hub, starting from a clean slate.
        """
        hub = self._new_hub()
        try:
            results = await hub.attach(transport, expected_streams=1)
        finally:
            await hub.close()
        if not results:
            raise StreamProtocolError(
                "transport closed before any stream arrived"
            )
        return results[0]


async def receive_stream(transport: Transport, **options: Any) -> StreamResult:
    """One-shot convenience: ``StreamReceiver(**options).run(transport)``."""
    return await StreamReceiver(**options).run(transport)
