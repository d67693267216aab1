"""Abstract transport layer for the campaign work protocol.

The coordinator (:mod:`repro.dist.net`) never touches sockets: it
speaks to :class:`Connection` objects produced by a
:class:`Transport`, in the style of pycyphal's abstract-transport
layering.  Three implementations:

* :class:`TcpTransport` -- real asyncio TCP, one NDJSON frame per
  line, shared limits from :mod:`repro.net_common`.  Listening on
  port 0 announces the bound address (``work.listening host=H
  port=P``) so wrappers can discover it.
* :class:`LoopbackTransport` -- in-process queue pairs, so CI can run
  a 3-"host" campaign in one event loop with no sockets at all.
  Frames still cross as encoded bytes, so framing bugs (truncation,
  oversize, malformed JSON) are expressible: tests inject them with
  :meth:`LoopbackConnection.send_raw`.
* :class:`FaultyTransport` -- wraps either of the above and injects
  drops, delays, duplicates, and severs scripted by a seeded
  :class:`~repro.dist.faults.FaultPlan` (the ``net_*`` fields), so
  the farm's chaos cells of the identity matrix
  (``tests/dist/test_identity_matrix.py``) are deterministic.

All three share one contract: ``send`` raises
:class:`ConnectionLost` when the peer is gone, ``recv`` returns the
parsed frame, ``None`` on clean close *or* mid-frame EOF, and raises
:class:`~repro.net_common.FrameError` on framing violations
(``recoverable`` says whether the stream survives).
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod
from typing import Any, Awaitable, Callable

from repro.net_common import MAX_LINE, FrameError, announce, decode_frame, encode_frame, read_frame
from repro.dist.faults import FaultPlan


class ConnectionLost(Exception):
    """The peer is unreachable: send failed, the socket reset, or an
    injected sever cut the wire.  Clients recover by reconnecting."""


Handler = Callable[["Connection"], Awaitable[None]]


class Connection(ABC):
    """One bidirectional NDJSON frame stream."""

    #: The connecting side's self-chosen label (worker id); servers
    #: see it only through the protocol's ``hello``, but transports
    #: key fault injection on it.
    label: str = ""

    @abstractmethod
    async def send(self, obj: Any) -> None:
        """Encode and send one frame; :class:`ConnectionLost` if the
        peer is gone."""

    @abstractmethod
    async def recv(self) -> Any:
        """The next parsed frame; ``None`` on clean close or a frame
        truncated by disconnection; :class:`FrameError` on violations."""

    @abstractmethod
    async def close(self) -> None:
        """Close both directions; idempotent."""


class Transport(ABC):
    """A way to get :class:`Connection` objects: servers ``listen``,
    clients ``connect``."""

    @abstractmethod
    async def listen(self, handler: Handler) -> str:
        """Start accepting; ``handler(conn)`` runs per connection.
        Returns the connectable address."""

    @abstractmethod
    async def connect(self, address: str, label: str = "") -> Connection:
        """Open a connection; :class:`ConnectionLost` if nobody is
        listening."""

    @abstractmethod
    async def close(self) -> None:
        """Stop listening and drop server-side handler tasks."""


# -- TCP ---------------------------------------------------------------


class TcpConnection(Connection):
    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        label: str = "",
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.label = label

    async def send(self, obj: Any) -> None:
        try:
            self._writer.write(encode_frame(obj))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ConnectionLost(str(exc)) from None

    async def recv(self) -> Any:
        try:
            line = await read_frame(self._reader)
        except (ConnectionError, OSError) as exc:
            raise ConnectionLost(str(exc)) from None
        if line is None:
            return None
        return decode_frame(line)

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TcpTransport(Transport):
    """Real sockets.  ``listen`` binds ``host:port`` (port 0 picks an
    ephemeral port and announces it on stdout); ``connect`` parses
    ``"host:port"`` addresses."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, *, quiet: bool = False
    ) -> None:
        self.host = host
        self.port = port
        self.quiet = quiet
        self._server: asyncio.base_events.Server | None = None

    async def listen(self, handler: Handler) -> str:
        async def accept(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            try:
                await handler(TcpConnection(reader, writer))
            except asyncio.CancelledError:
                # Event-loop teardown mid-recv; the stream protocol's
                # done-callback would log this as noise otherwise.
                pass

        self._server = await asyncio.start_server(
            accept, self.host, self.port, limit=MAX_LINE
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.port = port
        if not self.quiet:
            announce("work", host, port)
        return f"{host}:{port}"

    async def connect(self, address: str, label: str = "") -> Connection:
        host, _, port = address.rpartition(":")
        if not port.isdigit():
            raise ValueError(
                f"malformed address {address!r}: expected host:port"
            )
        try:
            reader, writer = await asyncio.open_connection(
                host or "127.0.0.1", int(port), limit=MAX_LINE
            )
        except (ConnectionError, OSError) as exc:
            raise ConnectionLost(f"cannot reach {address}: {exc}") from None
        return TcpConnection(reader, writer, label)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


# -- loopback ----------------------------------------------------------


class LoopbackConnection(Connection):
    """One end of an in-process pipe pair.  Frames cross as encoded
    bytes so wire-level corruption is testable via :meth:`send_raw`."""

    def __init__(
        self,
        out_q: "asyncio.Queue[bytes | None]",
        in_q: "asyncio.Queue[bytes | None]",
        label: str = "",
    ) -> None:
        self._out = out_q
        self._in = in_q
        self._closed = False
        self.label = label

    async def send(self, obj: Any) -> None:
        self.send_raw(encode_frame(obj))

    def send_raw(self, data: bytes) -> None:
        """Inject raw bytes as one delivery unit -- the test backdoor
        for malformed / truncated / oversized frames."""
        if self._closed:
            raise ConnectionLost("loopback connection closed")
        self._out.put_nowait(data)

    async def recv(self) -> Any:
        if self._closed:
            return None
        raw = await self._in.get()
        if raw is None:
            # Peer closed; leave the sentinel visible to any racing
            # reader by treating ourselves as closed too.
            self._closed = True
            return None
        if len(raw) > MAX_LINE:
            raise FrameError(
                "oversized-frame",
                f"frame exceeds the {MAX_LINE}-byte line limit",
                recoverable=False,
            )
        if not raw.endswith(b"\n"):
            return None  # truncated mid-frame: the peer died writing
        return decode_frame(raw)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._out.put_nowait(None)  # EOF for the peer
        self._in.put_nowait(None)  # unblock our own pending recv


class LoopbackTransport(Transport):
    """In-process transport: ``connect`` hands the server's handler
    the other end of a queue pair on the same event loop.  The
    address is cosmetic."""

    def __init__(self) -> None:
        self._handler: Handler | None = None
        self._tasks: list[asyncio.Task] = []
        self._closed = False

    async def listen(self, handler: Handler) -> str:
        self._handler = handler
        self._closed = False
        return "loopback:0"

    async def connect(self, address: str = "", label: str = "") -> Connection:
        if self._handler is None or self._closed:
            raise ConnectionLost("nobody is listening on the loopback")
        c2s: asyncio.Queue[bytes | None] = asyncio.Queue()
        s2c: asyncio.Queue[bytes | None] = asyncio.Queue()
        client = LoopbackConnection(c2s, s2c, label)
        server_end = LoopbackConnection(s2c, c2s, label)
        self._tasks.append(asyncio.ensure_future(self._handler(server_end)))
        return client

    async def close(self) -> None:
        self._closed = True
        self._handler = None
        # Let handlers finish their current frame, then cancel
        # whatever is still blocked on a recv.
        await asyncio.sleep(0)
        for task in self._tasks:
            if not task.done():
                task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()


# -- fault injection ---------------------------------------------------


class FaultyConnection(Connection):
    """Client-side fault wrapper: consults the plan per outbound
    frame.  Ordinals persist across reconnects via shared per-label
    state on the owning :class:`FaultyTransport`."""

    def __init__(
        self, inner: Connection, plan: FaultPlan, label: str, state: dict
    ) -> None:
        self._inner = inner
        self.plan = plan
        self.label = label
        self._state = state  # {"connection": n, "frames": n, "completes": n}
        self._connection = state["connection"]
        state["connection"] += 1

    async def send(self, obj: Any) -> None:
        frame_n = self._state["frames"]
        self._state["frames"] += 1
        is_complete = isinstance(obj, dict) and obj.get("op") == "complete"
        complete_n = self._state["completes"]
        if is_complete:
            self._state["completes"] += 1
        if self.plan.net_severs(self.label, self._connection, frame_n):
            await self._inner.close()
            raise ConnectionLost("injected sever")
        delay = self.plan.net_delay_for(self.label)
        if delay:
            await asyncio.sleep(delay)
        if is_complete and self.plan.net_drops_complete(self.label, complete_n):
            return  # vanished in flight; the ack timeout finds out
        await self._inner.send(obj)
        if is_complete and self.plan.net_duplicates_complete(
            self.label, complete_n
        ):
            await self._inner.send(obj)

    async def recv(self) -> Any:
        return await self._inner.recv()

    async def close(self) -> None:
        await self._inner.close()


class FaultyTransport(Transport):
    """Wraps any transport; client connections made through it get
    the plan's ``net_*`` faults injected deterministically."""

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._state: dict[str, dict] = {}

    def _label_state(self, label: str) -> dict:
        return self._state.setdefault(
            label, {"connection": 0, "frames": 0, "completes": 0}
        )

    async def listen(self, handler: Handler) -> str:
        return await self.inner.listen(handler)

    async def connect(self, address: str = "", label: str = "") -> Connection:
        conn = await self.inner.connect(address, label)
        return FaultyConnection(conn, self.plan, label, self._label_state(label))

    async def close(self) -> None:
        await self.inner.close()
