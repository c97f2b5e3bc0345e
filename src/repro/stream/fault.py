"""Deterministic fault injection for streaming transports.

:class:`LossyTransport` wraps any :class:`~repro.stream.transport.Transport`
and subjects the sender's byte slices to seeded drop / truncate / duplicate /
reorder faults — the adversary the loss-resilience layer is built against,
and the harness the fault-injection suite drives.  Every decision comes from
one :func:`repro.utils.rng.new_rng` generator, so a ``(seed, rates)`` pair
replays the exact same fault pattern on every run, and the transport records
*which* send indices it hit so tests can assert the receiver's loss metadata
matches the injected loss exactly.

The session-durability layer adds two more adversaries, each recording
exactly what it did so recovery tests can assert the healed stream's
counters equal the injected faults:

* :class:`GilbertElliottTransport` — the classic two-state Markov burst-loss
  channel (a *good* state that never drops and a *bad* state that always
  does), the model NACK-driven selective repeat is measured against;
* :class:`DisconnectingTransport` — kills the channel at a scripted send
  index (closing the inner transport so the peer sees EOF), the adversary
  the reconnect-with-resume path heals.

Because the camera node sends exactly one chunk per ``send`` call, the fault
granularity is the chunk: a dropped slice is a lost chunk, a truncated slice
is a corrupted one, and the recorded send indices line up one-to-one with
chunk sequence numbers.

The two loss channels share one hold-one-slice engine.  Reordering needs a
*next* slice to swap with, so each slice is held for one send: the fault
decision for slice ``k`` is applied when slice ``k + 1`` arrives, and
``close()`` flushes the final held slice **intact** — the stream-end chunk
always survives, mirroring a real channel where the sender would retransmit
its terminal control message until acknowledged.  Slice 0, the stream
header, is likewise always delivered, since without it no receiver could do
anything at all.
"""

from __future__ import annotations

from repro.stream.transport import Transport, TransportClosedError
from repro.utils.rng import derive_seed, new_rng


class _HoldOneSlice:
    """The loss channels' shared engine: hold one slice, judge it on the next.

    Subclasses supply :meth:`_decide`, the per-slice fault decision, and may
    override :meth:`_advance`, which runs for every judged slice (slice 0
    included) before the header exemption.

    Attributes
    ----------
    dropped:
        Send indices (0-based, in the order the sender called ``send``) the
        channel swallowed — the injected ground truth.
    """

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self._held: tuple[int, bytes] | None = None
        self.n_sends = 0
        self.dropped: list[int] = []

    def _advance(self) -> None:
        """Per-slice channel state step, run before the header exemption."""

    def _decide(
        self, index: int, data: bytes, incoming: bytes
    ) -> tuple[tuple[bytes, ...], bool]:
        """The slices delivered for held slice ``index`` (never slice 0).

        Returns them in delivery order, and whether they consume
        ``incoming``, the slice that arrived behind it (a reorder).
        """
        raise NotImplementedError

    async def send(self, data: bytes) -> None:
        """Hold this slice and deliver its predecessor through the channel."""
        incoming = (self.n_sends, bytes(data))
        self.n_sends += 1
        held, self._held = self._held, incoming
        if held is None:
            return
        index, judged = held
        self._advance()
        if index == 0:
            await self.inner.send(judged)
            return
        slices, consumed = self._decide(index, judged, incoming[1])
        if consumed:
            self._held = None
        for delivered in slices:
            await self.inner.send(delivered)

    async def recv(self) -> bytes | None:
        """Pass-through to the inner transport (feedback path is unfaulted)."""
        return await self.inner.recv()

    async def close(self) -> None:
        """Deliver the final held slice intact, then close the inner transport."""
        held, self._held = self._held, None
        if held is not None:
            await self.inner.send(held[1])
        await self.inner.close()


class LossyTransport(_HoldOneSlice):
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
        Per-slice fault probabilities; one uniform draw per slice after the
        header picks at most one fault, so the rates must sum to at most 1.

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
    ) -> None:
        rates = (drop_rate, truncate_rate, duplicate_rate, reorder_rate)
        if any(rate < 0.0 for rate in rates) or sum(rates) > 1.0:
            raise ValueError(
                "fault rates must be non-negative and sum to at most 1, got "
                f"drop={drop_rate}, truncate={truncate_rate}, "
                f"duplicate={duplicate_rate}, reorder={reorder_rate}"
            )
        super().__init__(inner)
        self.drop_rate = float(drop_rate)
        self.truncate_rate = float(truncate_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.reorder_rate = float(reorder_rate)
        self._rng = new_rng(derive_seed(seed, "lossy-transport"))
        self.truncated: list[int] = []
        self.duplicated: list[int] = []
        self.reordered: list[int] = []

    def _decide(
        self, index: int, data: bytes, incoming: bytes
    ) -> tuple[tuple[bytes, ...], bool]:
        draw = float(self._rng.random())
        if draw < self.drop_rate:
            self.dropped.append(index)
            return (), False
        draw -= self.drop_rate
        if draw < self.truncate_rate:
            if len(data) <= 1:
                return (data,), False
            self.truncated.append(index)
            cut = int(self._rng.integers(1, len(data)))
            return (data[:cut],), False
        draw -= self.truncate_rate
        if draw < self.duplicate_rate:
            self.duplicated.append(index)
            return (data, data), False
        draw -= self.duplicate_rate
        if draw < self.reorder_rate:
            self.reordered.append(index)
            return (incoming, data), True
        return (data,), False


class GilbertElliottTransport(_HoldOneSlice):
    """Seeded two-state Markov burst-loss channel (Gilbert–Elliott model).

    The channel is in a *good* or *bad* state; every slice first walks the
    state chain (:attr:`P_GOOD_TO_BAD` / :attr:`P_BAD_TO_GOOD`), then, past
    the header, is dropped with the state's loss probability
    (:attr:`LOSS_GOOD` / :attr:`LOSS_BAD`).  Runs of the bad state produce
    the correlated loss bursts that defeat single-parity repair — the regime
    NACK-driven selective repeat exists for.

    Attributes
    ----------
    dropped:
        Send indices the channel swallowed — the injected ground truth.
    state_trace:
        The state ("good"/"bad") each send index was judged under.
    """

    P_GOOD_TO_BAD = 0.05
    P_BAD_TO_GOOD = 0.4
    LOSS_GOOD = 0.0
    LOSS_BAD = 1.0

    def __init__(self, inner: Transport, *, seed: int) -> None:
        super().__init__(inner)
        self._rng = new_rng(derive_seed(seed, "gilbert-elliott-transport"))
        self._bad = False
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

    def _advance(self) -> None:
        # The chain walks for the header too, so the state sequence does not
        # depend on which slices can be dropped.
        if self._bad:
            if float(self._rng.random()) < self.P_BAD_TO_GOOD:
                self._bad = False
        elif float(self._rng.random()) < self.P_GOOD_TO_BAD:
            self._bad = True
        self.state_trace.append("bad" if self._bad else "good")

    def _decide(
        self, index: int, data: bytes, incoming: bytes
    ) -> tuple[tuple[bytes, ...], bool]:
        loss = self.LOSS_BAD if self._bad else self.LOSS_GOOD
        if float(self._rng.random()) < loss:
            self.dropped.append(index)
            return (), False
        return (data,), False


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
