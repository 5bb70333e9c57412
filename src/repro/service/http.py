"""HTTP handler kit shared by the node (``repro serve``) and the gateway.

:class:`JSONRequestHandler` owns everything the two servers have in common:
the ``/v1`` path split, bounded body draining, JSON parsing, the JSON error
envelope, the per-request span and timing choke point, and the probe and
discovery routes (``healthz``, ``readyz``, ``scenarios``, ``codecs``,
``metrics``).  A server's handler subclasses it and keeps only its own
routes, its metric families (:meth:`~JSONRequestHandler._record`), its
readiness rule, and the replies for its own exception types
(:meth:`~JSONRequestHandler._error_reply`).

The envelope contract: every outcome answers JSON — client errors
(:class:`HTTPError`) with their status, server-specific failures through the
subclass hook, anything else a last-resort 500 — never an HTML traceback,
and never a silently dropped keep-alive connection.

:class:`JSONServer` is the server both run on: its serve loop stops as soon
as :meth:`~JSONServer.shutdown` is called, instead of at the next poll.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..chaos.plan import maybe_fail
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics

__all__ = [
    "API_VERSION",
    "HTTPError",
    "JSONRequestHandler",
    "JSONServer",
    "MAX_BODY_BYTES",
    "MAX_WAIT_SECONDS",
    "parse_deadline",
    "parse_wait",
    "retry_after",
]

#: Current (only) version of the HTTP API; the path prefix is ``/v1``.
API_VERSION = "v1"

#: Upper bound on ``?wait=`` so a client cannot pin a handler thread forever.
MAX_WAIT_SECONDS = 300.0

#: Upper bound on request bodies (a campaign spec is a few KiB; anything in
#: the tens of MiB is a mistake or abuse and must not balloon the heap).
MAX_BODY_BYTES = 16 * 1024 * 1024


class HTTPError(Exception):
    """A client error the handler turns into a JSON error response.

    ``close`` forces ``Connection: close``: raised when the request body
    could not be (fully) drained, so the keep-alive byte stream is no longer
    trustworthy for a next request.
    """

    def __init__(self, status: int, message: str, close: bool = False):
        super().__init__(message)
        self.status = status
        self.message = message
        self.close = close


def parse_deadline(body: dict) -> float | None:
    """Validate an optional ``deadline_s`` submission field (seconds > 0)."""
    value = body.get("deadline_s")
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
        raise ValueError('"deadline_s" must be a positive number of seconds')
    return float(value)


def parse_wait(query_string: str) -> float | None:
    """Parse ``?wait=<seconds>``, clamped to ``[0, MAX_WAIT_SECONDS]``.

    Invalid values are a client error (400).
    """
    query = parse_qs(query_string)
    if "wait" not in query:
        return None
    try:
        wait_seconds = float(query["wait"][0])
    except (TypeError, ValueError):
        raise HTTPError(400, f'invalid "wait" value {query["wait"][0]!r}') from None
    if math.isnan(wait_seconds):
        raise HTTPError(400, '"wait" must not be NaN')
    return min(max(wait_seconds, 0.0), MAX_WAIT_SECONDS)


def retry_after(seconds: float) -> dict[str, str]:
    """The ``Retry-After`` header for a 429: the integer-ceiled form of the
    hint (the header grammar wants whole seconds); JSON bodies carry the
    precise float for clients that parse it."""
    return {"Retry-After": str(max(1, math.ceil(seconds)))}


#: The selector ``socketserver`` serves with: poll where available.
_ServeSelector = getattr(selectors, "PollSelector", selectors.SelectSelector)


class JSONServer(ThreadingHTTPServer):
    """Threaded HTTP server whose :meth:`shutdown` wakes the serve loop at once.

    ``BaseServer.shutdown`` only raises a flag that ``serve_forever`` checks
    between polls, so every teardown waited out up to one poll interval
    (0.5 s by default).  This serve loop also watches a wake-up socket that
    :meth:`shutdown` writes to.  :meth:`shutdown` on a server that is not
    serving returns at once instead of blocking forever.
    """

    daemon_threads = True

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_writer.setblocking(False)
        self._stop_requested = False
        self._idle = threading.Event()
        self._idle.set()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._idle.clear()
        try:
            with _ServeSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while not self._stop_requested:
                    ready = selector.select(poll_interval)
                    if self._stop_requested:
                        break
                    for key, _ in ready:
                        if key.fileobj is self:
                            self._handle_request_noblock()
                        else:
                            self._wake_reader.recv(64)
                    self.service_actions()
        finally:
            self._stop_requested = False
            self._idle.set()

    def shutdown(self) -> None:
        """Stop the serve loop and wait until it has exited."""
        self._stop_requested = True
        try:
            self._wake_writer.send(b"\0")
        except OSError:
            pass  # closed, or already holding an unread wake-up
        self._idle.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()

    def stop_listening(self) -> None:
        """Stop serving (if serving) and close the listening socket."""
        self.shutdown()
        self.server_close()


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Base handler: one JSON envelope, one span and timing point per request.

    Subclasses set the class attributes below, implement :meth:`_record`
    and :meth:`_not_ready_reason`, and add routes by overriding
    :meth:`_get` and :meth:`_post`.  The server must expose ``verbose``,
    ``draining`` and ``registry``.
    """

    protocol_version = "HTTP/1.1"
    #: Name of the span every request runs inside.
    span_name: str
    #: ``"METHOD /v1/..."`` route patterns; anything else labels ``unrouted``.
    routes: frozenset[str]
    #: Path roots whose second segment is an identifier -> its placeholder.
    id_roots: dict[str, str]
    #: Names the responder in the last-resort 500 envelope.
    error_subject = "server"
    #: Chaos failpoint fired before every route (``None``: no failpoint).
    chaos_point: str | None = None

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self, status: int, payload: dict, extra_headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        self._send_body(
            status, body, "application/json; charset=utf-8", extra_headers
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self._observed_status = status  # feeds the request metrics/span
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    @staticmethod
    def _split_path(url) -> list[str]:
        """Path segments with the ``/v1`` prefix stripped.

        Any path outside ``/v1`` maps into an unrouted namespace, so no
        handler matches and it answers 404.
        """
        parts = [part for part in url.path.split("/") if part]
        if parts and parts[0] == API_VERSION:
            return parts[1:]
        return ["", *parts]

    def _route_label(self, parts: list[str]) -> str:
        """Map a request to its route *pattern* so metric labels stay bounded.

        Identifiers collapse to their placeholder (``<id>``, ``<digest>``);
        anything that matches no declared route (bad paths, probes,
        scanners) collapses to one ``unrouted`` label instead of minting a
        series per attacker-chosen path.
        """
        normalized = list(parts)
        if len(normalized) >= 2 and normalized[0] in self.id_roots:
            normalized[1] = self.id_roots[normalized[0]]
        candidate = "/v1/" + "/".join(normalized)
        if f"{self.command} {candidate}" in self.routes:
            return candidate
        return "unrouted"

    def _drain_body(self) -> bytes:
        """Always consume the request body: on a keep-alive connection,
        unread bytes would be parsed as the next request line."""
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            # The body length is unknowable, so the body cannot be drained;
            # answer 400 and drop the (now unparseable) connection.
            raise HTTPError(
                400, f"invalid Content-Length header {raw_length!r}", close=True
            ) from None
        if length < 0:
            raise HTTPError(
                400, f"invalid Content-Length header {raw_length!r}", close=True
            )
        if length > MAX_BODY_BYTES:
            raise HTTPError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}",
                close=True,
            )
        return self.rfile.read(length) if length else b""

    @staticmethod
    def _parse_json_body(raw: bytes) -> dict:
        if not raw:
            raise HTTPError(400, "empty request body; expected a JSON object")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise HTTPError(400, f"invalid JSON body: {error}") from None
        if not isinstance(body, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return body

    def _handle(self, route) -> None:
        """Run one route with the error envelope every response path shares.

        It is also the observability choke point: every request is timed
        into the server's metric families (:meth:`_record`) under its route
        *pattern*, and runs inside a :attr:`span_name` span — joined to the
        caller's trace when the request carried an ``X-Repro-Trace`` header,
        freshly minted otherwise — so work the route starts becomes its
        child.
        """
        url = urlsplit(self.path)
        parts = self._split_path(url)
        route_label = self._route_label(parts)
        self._observed_status = 0  # 0 = connection died before a response
        request_span = obs_trace.start_span(
            self.span_name,
            attrs={"method": self.command, "route": route_label, "path": url.path},
            parent=obs_trace.parse_traceparent(
                self.headers.get(obs_trace.TRACE_HEADER)
            ),
        )
        started = time.perf_counter()
        try:
            with obs_trace.activate(request_span):
                self._dispatch_route(route, url, parts)
        finally:
            status = self._observed_status
            request_span.set_attr("status", status)
            request_span.finish(status="error" if status >= 500 or status == 0 else "ok")
            self._record(route_label, status, time.perf_counter() - started)

    def _dispatch_route(self, route, url, parts: list[str]) -> None:
        """Guarantee a JSON response (or a deliberately closed connection).

        Expected client errors (:class:`HTTPError`) answer their status;
        server-specific exceptions answer what :meth:`_error_reply` says;
        handler bugs and unserializable results are a 500; a client that
        disconnected mid-response is swallowed — nobody is left to answer.
        """
        try:
            if self.chaos_point is not None:
                maybe_fail(self.chaos_point)
            route(url, parts)
        except HTTPError as error:
            if error.close:
                self.close_connection = True
            self._send_json(error.status, {"error": error.message})
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away; nothing to send
        except Exception as error:  # noqa: BLE001 - last-resort envelope
            reply = self._error_reply(error)
            if reply is not None:
                self._send_json(*reply)
                return
            # The response may be half-written and the request half-read;
            # answer on a best-effort basis and retire the connection.
            self.close_connection = True
            try:
                self._send_json(
                    500,
                    {
                        "error": f"internal {self.error_subject} error: "
                        f"{type(error).__name__}: {error}"
                    },
                )
            except (BrokenPipeError, ConnectionResetError, OSError, ValueError, TypeError):
                pass

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #

    def _record(self, route_label: str, status: int, seconds: float) -> None:
        """Count and time one finished request in the server's metrics."""
        raise NotImplementedError

    def _error_reply(self, error: Exception) -> tuple[int, dict, dict | None] | None:
        """``(status, payload, headers)`` for a server-specific exception,
        or ``None`` (the default) to answer the last-resort 500."""

    def _not_ready_reason(self) -> str | None:
        """Why the server is not ready for new work (``None``: ready)."""
        raise NotImplementedError

    def _get(self, url, parts: list[str]) -> None:
        """Server-specific ``GET`` routes."""
        raise HTTPError(404, f"no such endpoint {url.path!r}")

    def _post(self, url, parts: list[str], raw: bytes) -> None:
        """Server-specific ``POST`` routes (``raw`` is the drained body)."""
        raise HTTPError(404, f"no such endpoint {url.path!r}")

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle(self._route_post)

    def _route_get(self, url, parts: list[str]) -> None:
        if parts == ["healthz"]:
            # Liveness: answers 200 for as long as the process can serve at
            # all — registries and orchestrators use it to tell "slow" from
            # "gone".
            self._send_json(200, {"status": "alive"})
        elif parts == ["readyz"]:
            # Readiness, distinct from liveness: 503 once a graceful drain
            # has begun (the server answers, but new work should go
            # elsewhere) or while the server says it cannot take work.
            reason = "draining" if self.server.draining else self._not_ready_reason()
            if reason is None:
                self._send_json(200, {"ready": True})
            else:
                self._send_json(503, {"ready": False, "reason": reason})
        elif parts == ["scenarios"]:
            self._send_json(200, {"scenarios": self.server.registry.describe()})
        elif parts == ["codecs"]:
            from .. import codecs

            self._send_json(
                200, {"api_version": API_VERSION, "codecs": codecs.describe_codecs()}
            )
        elif parts == ["metrics"]:
            self._send_metrics(url.query)
        else:
            self._get(url, parts)

    def _route_post(self, url, parts: list[str]) -> None:
        self._post(url, parts, self._drain_body())

    def _send_metrics(self, query_string: str) -> None:
        """``GET /v1/metrics``: Prometheus text by default, ``?format=json``."""
        query = parse_qs(query_string)
        fmt = query.get("format", ["prometheus"])[0]
        registry = get_metrics()
        if fmt == "json":
            self._send_json(200, registry.to_jsonable())
        elif fmt in ("prometheus", "text"):
            self._send_text(
                200,
                registry.render_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            raise HTTPError(
                400, f'invalid "format" {fmt!r}; one of ["json", "prometheus"]'
            )
