"""Byte transports for the streaming pipeline: loopback and TCP.

A transport is anything with three coroutines::

    await transport.send(data)   # may *block* — that is the backpressure
    data = await transport.recv()  # next byte slice, or None at end-of-stream
    await transport.close()      # sender side: flush and signal EOF

Transports carry opaque byte slices; chunk boundaries are the protocol
layer's job (:class:`repro.stream.protocol.ChunkDecoder` reassembles them),
so a TCP segment split mid-header is handled identically to a loopback queue
item.

Backpressure is the design point: :class:`LoopbackTransport` is a *bounded*
in-memory pipe whose ``send`` suspends the producer once ``max_buffered``
slices are in flight — a slow receiver therefore stalls the camera node's
capture loop instead of growing an unbounded queue, and the recorded
``high_watermark`` lets tests assert the bound was honoured.
:class:`TcpTransport` gets the same property from the kernel socket buffers
via ``StreamWriter.drain``.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable
from typing import Protocol

from repro.utils.validation import check_positive


class Transport(Protocol):
    """Structural type of a streaming byte channel (see module docstring)."""

    async def send(self, data: bytes) -> None:
        """Ship one byte slice; may suspend — that is the backpressure."""

    async def recv(self) -> bytes | None:
        """Next byte slice, or ``None`` at end-of-stream."""

    async def close(self) -> None:
        """Sender side: flush and signal end-of-stream."""


class TransportClosedError(ConnectionError):
    """``send`` was called on a transport whose channel is already closed."""


class LoopbackTransport:
    """A bounded in-memory byte pipe between a node and a receiver.

    Parameters
    ----------
    max_buffered:
        Maximum byte slices in flight.  ``send`` suspends (backpressure)
        while the pipe is full; the peak occupancy ever reached is recorded
        as :attr:`high_watermark`.
    """

    def __init__(self, max_buffered: int = 8) -> None:
        check_positive("max_buffered", max_buffered)
        self.max_buffered = int(max_buffered)
        self._queue: asyncio.Queue[bytes | None] = asyncio.Queue(
            maxsize=self.max_buffered
        )
        self._closed = False
        self._eof_sent = False
        self._eof_received = False
        self.high_watermark = 0
        self.bytes_sent = 0
        self.send_count = 0
        self.stall_count = 0

    async def send(self, data: bytes) -> None:
        """Enqueue one byte slice, waiting while the pipe is full."""
        if self._closed:
            raise TransportClosedError("loopback transport is closed")
        if self._queue.full():
            self.stall_count += 1
        await self._queue.put(bytes(data))
        self.high_watermark = max(self.high_watermark, self._queue.qsize())
        self.bytes_sent += len(data)
        self.send_count += 1

    async def recv(self) -> bytes | None:
        """Dequeue the next byte slice; ``None`` signals end-of-stream."""
        if self._eof_received:
            return None
        item = await self._queue.get()
        if item is None:
            self._eof_received = True
        return item

    async def close(self) -> None:
        """Signal end-of-stream to the receiver (idempotent)."""
        if not self._eof_sent:
            self._eof_sent = True
            self._closed = True
            await self._queue.put(None)


class DuplexTransport:
    """Two independent one-way pipes presented as one bidirectional channel.

    ``send``/``close`` drive the *forward* pipe, ``recv`` drains the
    *backward* one.  A :class:`LoopbackTransport` on its own cannot carry
    receiver→node feedback — its single queue would deliver control chunks
    straight back to whoever sent into it — so the loopback feedback path is
    a *pair* of these wrappers over two queues, one per direction (see
    :func:`loopback_duplex_pair`).  TCP needs no wrapper: a socket is
    naturally duplex.
    """

    def __init__(self, forward: Transport, backward: Transport) -> None:
        self.forward = forward
        self.backward = backward

    async def send(self, data: bytes) -> None:
        """Ship one byte slice down the forward pipe."""
        await self.forward.send(data)

    async def recv(self) -> bytes | None:
        """Next byte slice from the backward pipe (the peer's sends)."""
        return await self.backward.recv()

    async def close(self) -> None:
        """Close the forward pipe (the direction this side writes)."""
        await self.forward.close()


def loopback_duplex_pair(
    max_buffered: int = 8,
) -> tuple[DuplexTransport, DuplexTransport]:
    """Two connected in-memory duplex endpoints: ``(node_end, receiver_end)``.

    What one end sends, the other receives, in both directions — the
    loopback twin of a TCP socket pair, and the channel shape the
    closed-loop feedback path needs.  Each direction is its own bounded
    :class:`LoopbackTransport`, so forward data and backward control traffic
    backpressure independently.
    """
    forward = LoopbackTransport(max_buffered=max_buffered)
    backward = LoopbackTransport(max_buffered=max_buffered)
    return (
        DuplexTransport(forward, backward),
        DuplexTransport(backward, forward),
    )


class TcpTransport:
    """A transport over an established ``asyncio`` TCP stream pair.

    ``send`` writes and awaits ``drain()``, so the OS socket buffers provide
    the same producer-stalling backpressure the loopback queue models
    explicitly; ``recv`` returns whatever segment the kernel delivers.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.bytes_sent = 0

    async def send(self, data: bytes) -> None:
        """Write one byte slice and wait for the socket to accept it."""
        if self._writer.is_closing():
            raise TransportClosedError("TCP transport is closed")
        self._writer.write(data)
        await self._writer.drain()
        self.bytes_sent += len(data)

    async def recv(self) -> bytes | None:
        """Read the next TCP segment (up to 64 KiB); ``None`` at end-of-stream."""
        data = await self._reader.read(65536)
        return data if data else None

    async def close(self) -> None:
        """Close the write side, flushing pending data."""
        if not self._writer.is_closing():
            self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - platform races
            pass


async def connect_tcp(host: str, port: int) -> TcpTransport:
    """Open a client connection and wrap it as a :class:`TcpTransport`."""
    reader, writer = await asyncio.open_connection(host, port)
    return TcpTransport(reader, writer)


async def serve_tcp(
    handler: Callable[[TcpTransport], Awaitable[None]],
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[asyncio.AbstractServer, int]:
    """Start a TCP server that hands each connection to ``handler``.

    Returns the server object and the bound port (useful with ``port=0``,
    which lets the OS pick a free one — how the tests avoid collisions).
    """

    async def on_connect(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await handler(TcpTransport(reader, writer))

    server = await asyncio.start_server(on_connect, host=host, port=port)
    bound_port = int(server.sockets[0].getsockname()[1])
    return server, bound_port
