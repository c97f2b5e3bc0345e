"""Deterministic fault injection for streaming transports.

:class:`LossyTransport` wraps any :class:`~repro.stream.transport.Transport`
and subjects the sender's byte slices to seeded drop / truncate / duplicate /
reorder faults — the adversary the loss-resilience layer is built against,
and the harness the fault-injection suite drives.  Every decision comes from
one :func:`repro.utils.rng.new_rng` generator, so a ``(seed, rates)`` pair
replays the exact same fault pattern on every run, and the transport records
*which* send indices it hit so tests can assert the receiver's loss metadata
matches the injected loss exactly.

The session-durability layer adds three more adversaries, each recording
exactly what it did so recovery tests can assert the healed stream's
counters equal the injected faults:

* :class:`GilbertElliottTransport` — the classic two-state Markov burst-loss
  channel (a *good* state that rarely drops and a *bad* state that mostly
  does), the model NACK-driven selective repeat is measured against;
* :class:`StallingTransport` — delivers normally until a scripted send
  index, then silently holds every slice until :meth:`~StallingTransport.release`
  (or close) — what a wedged middlebox looks like to the receiver's frame
  deadlines;
* :class:`DisconnectingTransport` — kills the channel at a scripted send
  index (closing the inner transport so the peer sees EOF), the adversary
  the reconnect-with-resume path heals.

Because the camera node sends exactly one chunk per ``send`` call, the fault
granularity is the chunk: a dropped slice is a lost chunk, a truncated slice
is a corrupted one, and the recorded send indices line up one-to-one with
chunk sequence numbers.

Reordering needs a *next* slice to swap with, so the transport holds each
slice for one send: the fault decision for slice ``k`` is applied when slice
``k + 1`` arrives, and ``close()`` flushes the final held slice **intact** —
the stream-end chunk always survives, mirroring a real channel where the
sender would retransmit its terminal control message until acknowledged.
``protect_first=True`` (default) likewise exempts slice 0, the stream header,
without which no receiver could do anything at all.
"""

from __future__ import annotations

from repro.stream.transport import Transport, TransportClosedError
from repro.utils.rng import derive_seed, new_rng


class LossyTransport:
    """A transport wrapper injecting seeded chunk-level faults.

    Parameters
    ----------
    inner:
        The transport actually carrying the surviving slices.
    seed:
        Base seed; the fault generator is derived via
        :func:`repro.utils.rng.derive_seed` so it cannot couple with any
        other randomness in an experiment.
    drop_rate, truncate_rate, duplicate_rate, reorder_rate:
        Per-slice fault probabilities; one uniform draw per slice picks at
        most one fault, so the rates must sum to at most 1.
    protect_first:
        Deliver slice 0 (the stream header) intact regardless of the draw.

    Attributes
    ----------
    dropped, truncated, duplicated, reordered:
        Send indices (0-based, in the order the sender called ``send``) each
        fault actually hit — the ground truth the fault-injection tests
        compare receiver-side loss metadata against.
    """

    def __init__(
        self,
        inner: Transport,
        *,
        seed: int,
        drop_rate: float = 0.0,
        truncate_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        protect_first: bool = True,
    ) -> None:
        rates = (drop_rate, truncate_rate, duplicate_rate, reorder_rate)
        if any(rate < 0.0 for rate in rates) or sum(rates) > 1.0:
            raise ValueError(
                "fault rates must be non-negative and sum to at most 1, got "
                f"drop={drop_rate}, truncate={truncate_rate}, "
                f"duplicate={duplicate_rate}, reorder={reorder_rate}"
            )
        self.inner = inner
        self.drop_rate = float(drop_rate)
        self.truncate_rate = float(truncate_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.reorder_rate = float(reorder_rate)
        self.protect_first = bool(protect_first)
        self._rng = new_rng(derive_seed(seed, "lossy-transport"))
        self._held: tuple[int, bytes] | None = None
        self.n_sends = 0
        self.dropped: list[int] = []
        self.truncated: list[int] = []
        self.duplicated: list[int] = []
        self.reordered: list[int] = []

    async def _flush_held(self, incoming: tuple[int, bytes] | None) -> None:
        """Apply the fault draw to the held slice and deliver the outcome.

        ``incoming`` is the slice that triggered the flush (``None`` on
        close); a *reorder* delivers it first and the held slice after,
        consuming both.
        """
        if self._held is None:
            if incoming is not None:
                self._held = incoming
            return
        index, data = self._held
        self._held = incoming
        if self.protect_first and index == 0:
            await self.inner.send(data)
            return
        draw = float(self._rng.random())
        if draw < self.drop_rate:
            self.dropped.append(index)
            return
        draw -= self.drop_rate
        if draw < self.truncate_rate:
            if len(data) > 1:
                self.truncated.append(index)
                cut = int(self._rng.integers(1, len(data)))
                await self.inner.send(data[:cut])
            else:
                await self.inner.send(data)
            return
        draw -= self.truncate_rate
        if draw < self.duplicate_rate:
            self.duplicated.append(index)
            await self.inner.send(data)
            await self.inner.send(data)
            return
        draw -= self.duplicate_rate
        if draw < self.reorder_rate and incoming is not None:
            self.reordered.append(index)
            self._held = None
            await self.inner.send(incoming[1])
            await self.inner.send(data)
            return
        await self.inner.send(data)

    async def send(self, data: bytes) -> None:
        """Hold this slice and deliver its predecessor through the fault draw."""
        incoming = (self.n_sends, bytes(data))
        self.n_sends += 1
        await self._flush_held(incoming)

    async def recv(self) -> bytes | None:
        """Pass-through to the inner transport (feedback path is unfaulted)."""
        return await self.inner.recv()

    async def close(self) -> None:
        """Deliver the final held slice intact, then close the inner transport."""
        held, self._held = self._held, None
        if held is not None:
            await self.inner.send(held[1])
        await self.inner.close()


class GilbertElliottTransport:
    """Seeded two-state Markov burst-loss channel (Gilbert–Elliott model).

    The channel is in a *good* or *bad* state; each send first draws the
    state transition (``p_good_to_bad`` / ``p_bad_to_good``), then drops the
    slice with the state's loss probability (``loss_good`` / ``loss_bad``).
    Runs of the bad state produce the correlated loss bursts that defeat
    single-parity repair — the regime NACK-driven selective repeat exists
    for.  Like :class:`LossyTransport`, each slice is held for one send so
    ``close()`` can always deliver the final slice (the stream-end chunk)
    intact, and slice 0 (the stream header) is exempt by default.

    Attributes
    ----------
    dropped:
        Send indices the channel swallowed — the injected ground truth.
    state_trace:
        The state ("good"/"bad") each send index was judged under.
    """

    def __init__(
        self,
        inner: Transport,
        *,
        seed: int,
        p_good_to_bad: float = 0.05,
        p_bad_to_good: float = 0.4,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        protect_first: bool = True,
    ) -> None:
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        self.inner = inner
        self.p_good_to_bad = float(p_good_to_bad)
        self.p_bad_to_good = float(p_bad_to_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self.protect_first = bool(protect_first)
        self._rng = new_rng(derive_seed(seed, "gilbert-elliott-transport"))
        self._bad = False
        self._held: tuple[int, bytes] | None = None
        self.n_sends = 0
        self.dropped: list[int] = []
        self.state_trace: list[str] = []

    @property
    def n_bursts(self) -> int:
        """Distinct loss bursts (runs of consecutive dropped indices)."""
        bursts = 0
        previous = None
        for index in self.dropped:
            if previous is None or index != previous + 1:
                bursts += 1
            previous = index
        return bursts

    async def _flush_held(self, incoming: tuple[int, bytes] | None) -> None:
        if self._held is None:
            if incoming is not None:
                self._held = incoming
            return
        index, data = self._held
        self._held = incoming
        # Walk the Markov chain once per judged slice, whether or not the
        # outcome can drop it — the state sequence must not depend on
        # protect_first.
        if self._bad:
            if float(self._rng.random()) < self.p_bad_to_good:
                self._bad = False
        elif float(self._rng.random()) < self.p_good_to_bad:
            self._bad = True
        self.state_trace.append("bad" if self._bad else "good")
        loss = self.loss_bad if self._bad else self.loss_good
        if self.protect_first and index == 0:
            await self.inner.send(data)
            return
        if float(self._rng.random()) < loss:
            self.dropped.append(index)
            return
        await self.inner.send(data)

    async def send(self, data: bytes) -> None:
        """Hold this slice and deliver its predecessor through the channel."""
        incoming = (self.n_sends, bytes(data))
        self.n_sends += 1
        await self._flush_held(incoming)

    async def recv(self) -> bytes | None:
        """Pass-through to the inner transport (feedback path is unfaulted)."""
        return await self.inner.recv()

    async def close(self) -> None:
        """Deliver the final held slice intact, then close the inner transport."""
        held, self._held = self._held, None
        if held is not None:
            await self.inner.send(held[1])
        await self.inner.close()


class StallingTransport:
    """A transport that wedges at a scripted send index.

    The first ``stall_after`` slices flow normally; every later slice is
    silently parked in :attr:`stalled` (the sender's ``send`` returns as if
    delivered — exactly what a wedged middlebox or a full kernel buffer
    behind a dead peer looks like).  :meth:`release` delivers the parked
    slices in order and un-wedges the transport; ``close()`` releases
    whatever is still held so no bytes are silently lost.

    Attributes
    ----------
    stalled:
        Send indices parked while wedged (ground truth for deadline tests).
    n_released:
        Slices delivered by :meth:`release`/``close`` after being parked.
    """

    def __init__(self, inner: Transport, *, stall_after: int) -> None:
        if stall_after < 0:
            raise ValueError(f"stall_after must be >= 0, got {stall_after}")
        self.inner = inner
        self.stall_after = int(stall_after)
        self._parked: list[bytes] = []
        self._wedged = False
        self.n_sends = 0
        self.stalled: list[int] = []
        self.n_released = 0

    async def send(self, data: bytes) -> None:
        """Deliver, or silently park once the stall index is reached."""
        index = self.n_sends
        self.n_sends += 1
        if self._wedged or index >= self.stall_after:
            self._wedged = True
            self.stalled.append(index)
            self._parked.append(bytes(data))
            return
        await self.inner.send(data)

    async def release(self) -> int:
        """Deliver every parked slice in order and un-wedge; returns the count."""
        parked, self._parked = self._parked, []
        self._wedged = False
        for data in parked:
            await self.inner.send(data)
        self.n_released += len(parked)
        return len(parked)

    async def recv(self) -> bytes | None:
        """Pass-through to the inner transport (feedback path is unfaulted)."""
        return await self.inner.recv()

    async def close(self) -> None:
        """Release anything still parked, then close the inner transport."""
        await self.release()
        await self.inner.close()


class DisconnectingTransport:
    """A transport that dies at a scripted send index.

    Send ``disconnect_after`` raises
    :class:`~repro.stream.transport.TransportClosedError` (as do all later
    sends) after closing the inner transport, so the receiving peer sees a
    real EOF at the same moment — the mid-stream kill the
    reconnect-with-resume path is tested against.

    Attributes
    ----------
    disconnect_send:
        The send index the cut landed on (``None`` until it happens).
    n_refused:
        Sends refused after the cut (the sender retrying into a dead pipe).
    """

    def __init__(self, inner: Transport, *, disconnect_after: int) -> None:
        if disconnect_after < 1:
            raise ValueError(
                f"disconnect_after must be >= 1, got {disconnect_after}"
            )
        self.inner = inner
        self.disconnect_after = int(disconnect_after)
        self.n_sends = 0
        self.disconnect_send: int | None = None
        self.n_refused = 0

    @property
    def disconnected(self) -> bool:
        """True once the scripted cut has happened."""
        return self.disconnect_send is not None

    async def send(self, data: bytes) -> None:
        """Deliver until the scripted cut; dead pipe afterwards."""
        index = self.n_sends
        self.n_sends += 1
        if self.disconnected:
            self.n_refused += 1
            raise TransportClosedError(
                "transport was disconnected mid-stream (scripted fault)"
            )
        if index >= self.disconnect_after:
            self.disconnect_send = index
            await self.inner.close()
            raise TransportClosedError(
                f"transport disconnected at send {index} (scripted fault)"
            )
        await self.inner.send(data)

    async def recv(self) -> bytes | None:
        """Pass-through until the cut; EOF afterwards."""
        if self.disconnected:
            return None
        return await self.inner.recv()

    async def close(self) -> None:
        """Close the inner transport (idempotent after a cut)."""
        await self.inner.close()
