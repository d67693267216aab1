"""The ``repro serve-crc`` front end: NDJSON request/response.

One JSON object per line in, one per line out -- the lowest-common-
denominator framing every language can speak with a socket and a JSON
parser.  Two transports share one protocol engine:

* **TCP** (default): an asyncio server on a loopback (or given) host;
  many concurrent connections, each a request/response stream.  The
  bound address is announced on stdout as
  ``service.listening host=H port=P`` so wrappers can bind port 0 and
  discover the ephemeral port.
* **stdio** (``--stdio``): requests on stdin, responses on stdout --
  the CI-pipeline shape (``printf '...' | repro serve-crc --stdio``).
  Logs go to stderr; stdout carries only protocol lines.

:class:`CrcService` is the transport-independent engine: a
``dict -> dict`` request handler over :class:`~repro.service.session.CrcSession`
and :class:`~repro.service.advice.AdviceStore`, instrumented through
:mod:`repro.obs` (``service.request.<op>`` counters,
``service.latency.<op>`` log2 latency histograms,
``service.request.error``, per-request parse/compute/respond trace
spans, and a Prometheus-text ``GET /metrics`` answered on the TCP
port itself).
:class:`ServiceServer` adds the event-loop plumbing and the graceful
SIGTERM/SIGINT drain (finish in-flight requests within
``drain_grace`` seconds, emit ``service.drain``/``service.stop`` plus
a final ``metrics.snapshot`` event, exit 0) in the style of the
campaign pool's shutdown machinery.

Wire format, error codes, and examples: docs/SERVICE.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import threading
import time
import warnings
from typing import Any, Callable

from repro import net_common
from repro.crc.catalog import CATALOG, get_spec
from repro.net_common import FrameError
from repro.obs.events import NULL_EVENTS, NullEventLog
from repro.obs.metrics import NULL_METRICS, NullMetrics
from repro.obs.prom import CONTENT_TYPE, render_prometheus
from repro.obs.trace import NULL_TRACE, NullTracer
from repro.service.advice import AdviceStore
from repro.service.session import CrcSession, residue_value

#: Protocol identifier reported by ``ping``; bump on wire changes.
PROTOCOL = "repro-crc-service/1"


class ProtocolError(Exception):
    """A malformed or unserviceable request.

    ``code`` is the machine-readable discriminant carried in the
    error response (docs/SERVICE.md lists the vocabulary); the
    message is for humans.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _parse_poly_field(text: Any, notation: str) -> int:
    """A request's polynomial field -> full encoding, via the CLI's
    notation rules (paper implicit-+1 / full / auto heuristic)."""
    from repro.cli import parse_poly

    if isinstance(text, int):
        text = str(text)
    if not isinstance(text, str):
        raise ProtocolError("bad-poly", "poly must be a string or integer")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ambiguity warning -> response field instead
            return parse_poly(text, notation)
    except argparse.ArgumentTypeError as exc:
        raise ProtocolError("bad-poly", str(exc)) from None


class CrcService:
    """Transport-independent NDJSON protocol engine.

    ``handle(dict) -> dict`` serves one request; ``handle_line`` wraps
    it with JSON parsing, ``id`` passthrough, and the guarantee that
    *every* input line produces exactly one response line (errors
    become ``{"ok": false, "error": {...}}``, never exceptions).

    ``compute_on_miss=False`` turns ``hd`` cache misses into
    ``uncached`` errors instead of running the exact (MITM) search --
    the configuration for latency-bounded serving.
    """

    def __init__(
        self,
        store: AdviceStore | None = None,
        *,
        metrics: NullMetrics = NULL_METRICS,
        tracer: NullTracer = NULL_TRACE,
        compute_on_miss: bool = True,
    ) -> None:
        self.store = store if store is not None else AdviceStore(path=None)
        self.metrics = metrics
        self.tracer = tracer
        self.compute_on_miss = compute_on_miss
        self._sessions: dict[tuple[str, str], CrcSession] = {}
        self._ops: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
            "ping": self._op_ping,
            "checksum": self._op_checksum,
            "verify": self._op_verify,
            "advise": self._op_advise,
            "hd": self._op_hd,
            "metrics": self._op_metrics,
        }

    # -- field extraction ---------------------------------------------

    def _spec(self, req: dict[str, Any]):
        name = req.get("spec")
        if not isinstance(name, str):
            raise ProtocolError("bad-field", "missing string field 'spec'")
        try:
            return get_spec(name)
        except KeyError:
            raise ProtocolError(
                "unknown-spec",
                f"unknown spec {name!r}; known: {', '.join(sorted(CATALOG))}",
            ) from None

    @staticmethod
    def _hex_field(req: dict[str, Any], name: str) -> bytes:
        value = req.get(name)
        if not isinstance(value, str):
            raise ProtocolError("bad-field", f"missing hex string field {name!r}")
        try:
            return bytes.fromhex(value)
        except ValueError:
            raise ProtocolError(
                "bad-field", f"field {name!r} is not an even-length hex string"
            ) from None

    @staticmethod
    def _int_field(
        req: dict[str, Any], name: str, *, minimum: int = 1
    ) -> int:
        value = req.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError("bad-field", f"missing integer field {name!r}")
        if value < minimum:
            raise ProtocolError("bad-field", f"field {name!r} must be >= {minimum}")
        return value

    def _session(self, spec, backend: str) -> CrcSession:
        """A reusable (reset) session per (spec, backend) -- keeps the
        kernel lookup out of the per-request path."""
        key = (spec.name, backend)
        session = self._sessions.get(key)
        if session is None:
            try:
                session = self._sessions[key] = CrcSession(spec, backend)
            except (KeyError, ValueError) as exc:
                raise ProtocolError("bad-field", str(exc)) from None
        return session.reset()

    # -- operations ----------------------------------------------------

    def _op_ping(self, req: dict[str, Any]) -> dict[str, Any]:
        from repro import __version__

        return {
            "protocol": PROTOCOL,
            "version": __version__,
            "ops": sorted(self._ops),
        }

    def _op_checksum(self, req: dict[str, Any]) -> dict[str, Any]:
        spec = self._spec(req)
        data = self._hex_field(req, "data")
        backend = req.get("backend", "auto")
        session = self._session(spec, backend)
        value = session.add(data).value
        return {
            "spec": spec.name,
            "crc": f"{value:#0{spec.width // 4 + 2}x}",
            "width": spec.width,
            "length_bytes": len(data),
            "backend": session.backend,
        }

    def _op_verify(self, req: dict[str, Any]) -> dict[str, Any]:
        spec = self._spec(req)
        if "frame" in req:
            frame = self._hex_field(req, "frame")
            session = self._session(spec, req.get("backend", "auto"))
            try:
                expected = residue_value(spec)
            except ValueError as exc:
                raise ProtocolError("bad-field", str(exc)) from None
            session.add(frame)
            return {
                "spec": spec.name,
                "mode": "residue",
                "valid": session.value == expected,
                "residue": f"{expected:#x}",
                "length_bytes": len(frame),
            }
        if "crc" in req:
            data = self._hex_field(req, "data")
            claim = req["crc"]
            if isinstance(claim, str):
                try:
                    claim = int(claim, 0)
                except ValueError:
                    raise ProtocolError(
                        "bad-field", "field 'crc' is not an integer"
                    ) from None
            if isinstance(claim, bool) or not isinstance(claim, int):
                raise ProtocolError("bad-field", "field 'crc' is not an integer")
            session = self._session(spec, req.get("backend", "auto"))
            value = session.add(data).value
            return {
                "spec": spec.name,
                "mode": "recompute",
                "valid": value == claim,
                "crc": f"{value:#0{spec.width // 4 + 2}x}",
                "length_bytes": len(data),
            }
        raise ProtocolError(
            "bad-field",
            "verify needs either 'frame' (message+FCS, residue check) "
            "or 'data'+'crc' (recompute and compare)",
        )

    def _op_advise(self, req: dict[str, Any]) -> dict[str, Any]:
        length = self._int_field(req, "length")
        hd = None
        if req.get("hd") is not None:
            hd = self._int_field(req, "hd", minimum=2)
        width: int | None = 32
        if "width" in req:
            width = req["width"]
            if width is not None:
                width = self._int_field(req, "width", minimum=1)
        limit = 5
        if "limit" in req:
            limit = self._int_field(req, "limit")
        return self.store.advise(length, hd=hd, width=width, limit=limit)

    def _op_metrics(self, req: dict[str, Any]) -> dict[str, Any]:
        """The live registry snapshot -- the same numbers the
        Prometheus ``GET /metrics`` rendering exposes, as JSON."""
        return {
            "enabled": self.metrics.enabled,
            "metrics": self.metrics.snapshot(),
        }

    def _op_hd(self, req: dict[str, Any]) -> dict[str, Any]:
        g = _parse_poly_field(req.get("poly"), req.get("notation", "auto"))
        length = self._int_field(req, "length")
        try:
            result = self.store.hd(g, length, compute=self.compute_on_miss)
        except KeyError as exc:
            raise ProtocolError("uncached", exc.args[0]) from None
        result.update(poly=f"{g:#x}", length=length)
        return result

    # -- protocol ------------------------------------------------------

    def handle(self, request: Any) -> dict[str, Any]:
        """Serve one already-parsed request object."""
        if not isinstance(request, dict):
            return self._error("bad-request", "request must be a JSON object")
        op = request.get("op")
        if not isinstance(op, str):
            return self._error(
                "bad-request", "missing string field 'op'", request
            )
        fn = self._ops.get(op)
        if fn is None:
            return self._error(
                "unknown-op",
                f"unknown op {op!r}; known: {', '.join(sorted(self._ops))}",
                request,
            )
        try:
            with self.metrics.time(f"service.latency.{op}"):
                body = fn(request)
        except ProtocolError as exc:
            return self._error(exc.code, str(exc), request)
        except Exception as exc:  # never leak a traceback onto the wire
            return self._error(
                "internal", f"{type(exc).__name__}: {exc}", request
            )
        self.metrics.inc(f"service.request.{op}")
        response = {"ok": True, "op": op}
        response.update(body)
        self._attach_id(response, request)
        return response

    def handle_line(self, line: str) -> str:
        """One NDJSON request line -> one NDJSON response line.

        When a tracer is attached, each line is served under a
        ``request`` span with ``request.parse`` / ``request.compute``
        / ``request.respond`` children -- the per-request waterfall.
        """
        with self.tracer.span("request") as req_span:
            with self.tracer.span("request.parse"):
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    request = None
                    parse_error = f"not JSON: {exc}"
                else:
                    parse_error = None
            if parse_error is not None:
                req_span.annotate(op="bad-json")
                with self.tracer.span("request.respond"):
                    return json.dumps(
                        self._error("bad-json", parse_error),
                        separators=(",", ":"),
                    )
            with self.tracer.span("request.compute"):
                response = self.handle(request)
            req_span.annotate(
                op=response.get("op", "error"), ok=response.get("ok", False)
            )
            with self.tracer.span("request.respond"):
                return json.dumps(response, separators=(",", ":"))

    def _error(
        self, code: str, message: str, request: Any = None
    ) -> dict[str, Any]:
        self.metrics.inc("service.request.error")
        self.metrics.inc(f"service.error.{code}")
        response: dict[str, Any] = {
            "ok": False,
            "error": {"code": code, "message": message},
        }
        self._attach_id(response, request)
        return response

    @staticmethod
    def _attach_id(response: dict[str, Any], request: Any) -> None:
        if isinstance(request, dict) and "id" in request:
            try:
                json.dumps(request["id"])
            except (TypeError, ValueError):  # pragma: no cover - parsed JSON
                return
            response["id"] = request["id"]


class ServiceServer:
    """Event-loop plumbing around a :class:`CrcService`: TCP or stdio
    transport, signal-driven graceful drain, lifecycle events.

    Lifecycle events (when an :class:`~repro.obs.events.EventLog` is
    attached): ``service.start`` (transport, address), ``service.drain``
    (signal name, in-flight count), ``service.stop`` (requests served),
    and a final ``metrics.snapshot`` when a real registry is installed.
    """

    def __init__(
        self,
        service: CrcService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_grace: float = 5.0,
        events: NullEventLog = NULL_EVENTS,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.drain_grace = drain_grace
        self.events = events
        self.log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
        self.requests_served = 0
        self._inflight = 0
        self._draining: asyncio.Event | None = None
        self._drain_signal: str | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- shared machinery ----------------------------------------------

    def _install_signals(self, loop: asyncio.AbstractEventLoop) -> None:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, self._begin_drain, signal.Signals(sig).name
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                signal.signal(
                    sig,
                    lambda signum, frame: self._begin_drain(
                        signal.Signals(signum).name
                    ),
                )

    def _begin_drain(self, signame: str) -> None:
        if self._draining is None or self._draining.is_set():
            return
        self._drain_signal = signame
        self.events.emit(
            "service.drain", signal=signame, inflight=self._inflight
        )
        self.log(f"service.drain signal={signame} inflight={self._inflight}")
        self._draining.set()

    async def _await_quiesce(self) -> None:
        """Wait (up to ``drain_grace``) for in-flight requests and
        draining connections to wind down on their own.

        The settle floor matters: a connection accepted just before
        the signal may not have started its handler task yet, so an
        instant "no connections registered" reading would declare
        quiescence with a request still on the wire.  Waiting out at
        least one ``DRAIN_LINGER`` lets every accepted handler run,
        register, and finish its last-chance read.
        """
        deadline = time.monotonic() + self.drain_grace
        settle = time.monotonic() + self.DRAIN_LINGER + 0.05
        while time.monotonic() < deadline:
            if (
                time.monotonic() >= settle
                and not self._inflight
                and not self._writers
            ):
                return
            await asyncio.sleep(0.02)

    def _stop(self) -> None:
        self.events.emit(
            "service.stop",
            requests=self.requests_served,
            drained=self._drain_signal,
        )
        snapshot = self.service.metrics.snapshot()
        if snapshot is not None:
            self.events.emit("metrics.snapshot", metrics=snapshot)
        self.log(f"service.stop requests={self.requests_served}")

    def _serve_line(self, line: str) -> str:
        self._inflight += 1
        try:
            return self.service.handle_line(line)
        finally:
            self._inflight -= 1
            self.requests_served += 1

    # -- TCP transport -------------------------------------------------

    #: Drain-linger and line-limit live in :mod:`repro.net_common`,
    #: shared with the campaign work server's wire layer.
    DRAIN_LINGER = net_common.DRAIN_LINGER

    async def _next_line(
        self, reader: asyncio.StreamReader
    ) -> bytes | None:
        """The connection's next request line; ``None`` at EOF or once
        a drain has given in-flight data its last chance to arrive."""
        return await net_common.next_line(
            reader, self._draining, linger=self.DRAIN_LINGER
        )

    async def _serve_http(
        self,
        request_line: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer one plain-HTTP request on the NDJSON port and close.

        ``GET /metrics`` renders the live registry in Prometheus text
        format 0.0.4 -- the same numbers the ``metrics`` NDJSON verb
        snapshots, so a scraper needs no second protocol.  Anything
        else 404s.  One request per connection (``Connection: close``):
        scrape traffic should not hold NDJSON slots open.
        """
        try:
            while True:  # drain the request headers, bounded by drain grace
                header = await asyncio.wait_for(reader.readline(), 1.0)
                if not header or header in (b"\r\n", b"\n"):
                    break
        except asyncio.TimeoutError:
            pass
        parts = request_line.split()
        path = parts[1] if len(parts) >= 2 else ""
        if path.split("?")[0] == "/metrics":
            status = "200 OK"
            body = render_prometheus(self.service.metrics).encode()
            self.service.metrics.inc("service.request.scrape")
        else:
            status = "404 Not Found"
            body = b"only /metrics is served over HTTP\n"
        writer.write(
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        first = True
        try:
            while True:
                try:
                    line = await self._next_line(reader)
                except FrameError as exc:
                    # An oversized line poisons the stream: answer with
                    # the coded error the NDJSON vocabulary already has
                    # and close, rather than dying with a traceback.
                    self.service.metrics.inc("service.request.error")
                    self.service.metrics.inc(f"service.error.{exc.code}")
                    writer.write(
                        net_common.encode_frame(
                            {
                                "ok": False,
                                "error": {"code": exc.code, "message": str(exc)},
                            }
                        )
                    )
                    await writer.drain()
                    return
                if line is None:
                    return
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                if first and text.startswith(("GET ", "HEAD ")):
                    # A scraper, not an NDJSON peer: answer the one
                    # HTTP request and close the connection.
                    await self._serve_http(text, reader, writer)
                    return
                first = False
                writer.write(self._serve_line(text).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def serve_tcp(self) -> int:
        self._draining = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=net_common.MAX_LINE,
        )
        host, port = server.sockets[0].getsockname()[:2]
        # Signals first: the moment the address is announced, a wrapper
        # may send SIGTERM, which must already mean "drain", not "die".
        self._install_signals(asyncio.get_running_loop())
        # The discovery line wrappers parse (bind port 0, read this):
        net_common.announce("service", host, port)
        self.events.emit(
            "service.start", transport="tcp", host=host, port=port
        )
        await self._draining.wait()
        server.close()
        await server.wait_closed()
        await self._await_quiesce()
        for writer in list(self._writers):
            writer.close()
        # Let cancelled/EOF'd connection handlers unwind.
        await asyncio.sleep(0)
        self._stop()
        return 0

    # -- stdio transport -----------------------------------------------

    async def serve_stdio(self) -> int:
        """Requests on stdin, responses on stdout, logs on stderr.

        Stdin is read on a dedicated daemon thread: a plain blocking
        read neither ties up the event loop nor -- unlike an executor
        job, whose pool joins at interpreter exit -- keeps the process
        alive when the peer never closes the pipe.
        """
        self._draining = asyncio.Event()
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue[str | None] = asyncio.Queue()

        def pump() -> None:
            for raw in sys.stdin:
                loop.call_soon_threadsafe(queue.put_nowait, raw)
            loop.call_soon_threadsafe(queue.put_nowait, None)

        self._install_signals(loop)
        threading.Thread(target=pump, daemon=True, name="stdin-pump").start()
        self.events.emit("service.start", transport="stdio")
        drain_wait = asyncio.ensure_future(self._draining.wait())
        while True:
            get = asyncio.ensure_future(queue.get())
            done, _ = await asyncio.wait(
                {get, drain_wait}, return_when=asyncio.FIRST_COMPLETED
            )
            if get not in done:
                get.cancel()
                break
            line = get.result()
            if line is None or self._draining.is_set():
                break
            if line.strip():
                print(self._serve_line(line.strip()), flush=True)
        drain_wait.cancel()
        self._stop()
        return 0

    def run(self, *, stdio: bool = False) -> int:
        """Serve until EOF (stdio) or a drain signal; returns the
        process exit code (0 for a clean or drained stop)."""
        return asyncio.run(self.serve_stdio() if stdio else self.serve_tcp())
