"""JSON-over-HTTP front end (stdlib ``http.server``, no dependencies).

Endpoints::

    GET  /health            liveness + model count
    GET  /models            registry listing
    POST /models            ingest {"xml": "..."} or {"sample": "kernel6"}
                            (optional "label"); idempotent by content.
                            Models failing static analysis return 422
                            with structured ``diagnostics``
    POST /evaluate          {"requests": [{...}, ...]} → per-request
                            results + batch stats (see repro.service)
    GET  /stats             service-lifetime counters
    GET  /metrics           Prometheus text exposition by default;
                            ``?format=json`` (or ``Accept:
                            application/json``) returns the same
                            registry content as structured JSON

Every response body is JSON except the Prometheus exposition.  Client
errors (malformed JSON, unknown fields, unknown refs) return 400 with
``{"error": ...}``; unknown paths return 404; unsupported methods
return 501 — all with JSON bodies, never ``http.server``'s stock HTML
error pages.  Evaluation *failures* are not HTTP errors — they come
back as per-request ``{"status": "error"}`` entries in a 200 batch,
exactly like the sweep engine captures per-job failures.

A handler that raises after computing part of a response still yields a
well-formed ``500 {"error": ...}`` reply — and if the failure happens
*after* the response headers already went out, the connection is closed
instead of double-sending (the one case no status code can fix).

The server is a ``ThreadingHTTPServer`` speaking HTTP/1.1 with
keep-alive: a client's sequential requests share one connection (and
one handler thread) instead of paying a TCP set-up each, and an idle
connection closes when the socket timeout fires.  A reply that ends its
connection (408, protocol errors, a request body left unread) says so
with ``Connection: close``; ``server_close()`` hangs up every
connection still open, so a stopped server looks dead to its callers.
Batches from different connections genuinely execute concurrently (the
service only owns the simulated-backend executor exclusively), and a
:class:`~repro.service.admission.RequestGateway` in front of
``/evaluate`` bounds how many are in flight.  The admission contract on
the wire:

* overflow and rate-limit rejections → ``429`` JSON with a
  ``Retry-After`` header,
* a draining server → ``503`` JSON with ``Retry-After``,
* a client whose declared ``Content-Length`` never arrives (lying
  length, stalled send) → ``408`` JSON once the socket timeout fires,
  instead of parking the handler thread forever.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.errors import AnalysisError, ProphetError
from repro.service.admission import AdmissionRejected, RequestGateway
from repro.service.request import requests_from_payload
from repro.service.service import EvaluationService

#: Largest accepted request body; a batch of thousands of requests fits
#: comfortably, while an accidental model-XML-as-body upload of
#: hundreds of MB is refused instead of buffered.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Prometheus text exposition content type.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default per-connection socket timeout (seconds).
DEFAULT_SOCKET_TIMEOUT = 30.0


class RequestTimeoutError(ProphetError):
    """The declared request body never (fully) arrived."""


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto an :class:`EvaluationService`."""

    server_version = "ProphetService/1.0"
    protocol_version = "HTTP/1.1"  # keep-alive
    service: EvaluationService  # injected by make_server
    gateway: RequestGateway | None = None  # injected by make_server
    quiet = True
    # socketserver applies this as the connection's socket timeout in
    # setup(); without it a client that declares Content-Length N and
    # sends fewer bytes parks rfile.read() — and its handler thread —
    # forever.  It also closes a keep-alive connection left idle.
    timeout = DEFAULT_SOCKET_TIMEOUT

    def setup(self) -> None:
        super().setup()
        self.service.metrics.counter(
            "http_connections_total",
            "HTTP connections accepted (keep-alive requests share "
            "one).").inc()

    def handle_one_request(self) -> None:
        # Per-request state: on a persistent connection the previous
        # request's flags must not leak into this one.
        self._response_sent = False
        self._body_read = False
        try:
            super().handle_one_request()
        except ConnectionError:
            # The peer hung up between requests (a client dropping its
            # pooled connection): the connection's end, not an error.
            self.close_connection = True

    # -- routing -------------------------------------------------------------

    #: path → handler attribute name, per method.  Route labels on the
    #: request metrics come from this table, so label cardinality is
    #: bounded by the API surface, not by client-supplied paths.
    ROUTES = {
        "GET": {"/health": "_get_health",
                "/models": "_get_models",
                "/stats": "_get_stats",
                "/metrics": "_get_metrics"},
        "POST": {"/models": "_post_models",
                 "/evaluate": "_post_evaluate"},
    }

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        route = "unknown"
        status = 500
        try:
            path = urlsplit(self.path).path
            handler_name = self.ROUTES[method].get(path)
            if handler_name is None:
                status = 404
                self._reply(404, {"error": f"unknown path {path!r}"})
                return
            route = path
            try:
                status = getattr(self, handler_name)()
            except AdmissionRejected as exc:
                status = exc.status
                self._reply(status, {"error": str(exc),
                                     "retry_after": exc.retry_after},
                            headers=_retry_after_header(exc.retry_after))
            except RequestTimeoutError as exc:
                status = 408
                # The connection's byte stream is desynchronized (we
                # read fewer body bytes than declared); keep-alive
                # would misparse the remainder as a new request line.
                self.close_connection = True
                self._reply(408, {"error": str(exc)})
            except AnalysisError as exc:
                # The model parses and validates but the static
                # analyzer proved it broken (deadlock, bad peer):
                # semantically unprocessable, with machine-readable
                # diagnostics — the same schema `prophet lint
                # --format json` emits.
                status = 422
                self._reply(422, {
                    "error": str(exc),
                    "diagnostics": [d.to_payload()
                                    for d in exc.diagnostics]})
            except ProphetError as exc:
                status = 400
                self._reply(400, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 — must survive
                status = 500
                if self._response_sent:
                    # Headers are gone; the only honest move is to
                    # drop the connection rather than append a second
                    # response the client would misparse.
                    self.close_connection = True
                else:
                    self._reply(
                        500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            self._observe(method, route, status,
                          time.perf_counter() - start)

    def _observe(self, method: str, route: str, status: int,
                 elapsed: float) -> None:
        try:
            registry = self.service.metrics
            registry.counter(
                "http_requests_total", "HTTP requests served.",
                labelnames=("method", "route", "status"),
            ).labels(method, route, status).inc()
            registry.histogram(
                "http_request_seconds", "HTTP request wall time.",
                obs.LATENCY_BUCKETS_S, labelnames=("route",),
            ).labels(route).observe(elapsed)
        except Exception:  # noqa: BLE001 — metrics never break serving
            pass

    # -- handlers (each returns the HTTP status it sent) ---------------------

    def _get_health(self) -> int:
        return self._reply(200, {"status": "ok",
                                 "instance": self.service.instance_id,
                                 "models": len(self.service.registry)})

    def _get_models(self) -> int:
        return self._reply(200, {"models": [
            record.to_payload()
            for record in self.service.registry.records()]})

    def _get_stats(self) -> int:
        return self._reply(200, self.service.stats())

    def _get_metrics(self) -> int:
        registries = self.service.metric_registries()
        if self._wants_json():
            return self._reply(200, obs.export_json(*registries))
        text = obs.render_prometheus(*registries)
        return self._reply_raw(200, text.encode("utf-8"),
                               PROMETHEUS_CONTENT_TYPE)

    def _wants_json(self) -> bool:
        query = parse_qs(urlsplit(self.path).query)
        fmt = (query.get("format") or [""])[0].lower()
        if fmt:
            if fmt not in ("json", "prometheus", "text"):
                raise ProphetError(
                    f"unknown metrics format {fmt!r} "
                    "(expected 'json', 'prometheus', or 'text')")
            return fmt == "json"
        accept = self.headers.get("Accept") or ""
        return "application/json" in accept

    def _post_models(self) -> int:
        body = self._read_json()
        label = body.get("label")
        if label is not None and not isinstance(label, str):
            raise ProphetError(f"label must be a string, got {label!r}")
        if "xml" in body:
            record = self.service.ingest_xml(body["xml"], label)
        elif "sample" in body:
            record = self.service.ingest_sample(body["sample"], label)
        else:
            raise ProphetError(
                "ingest body needs either 'xml' (a model document) or "
                "'sample' (a built-in model kind)")
        return self._reply(200, {"model": record.to_payload()})

    def _post_evaluate(self) -> int:
        body = self._read_json()
        requests = requests_from_payload(body.get("requests"))
        if self.gateway is not None:
            response = self.gateway.submit(
                requests, client_id=self.headers.get("X-Client-Id"))
        else:
            response = self.service.submit(requests)
        return self._reply(200, response.to_payload())

    # -- plumbing ------------------------------------------------------------

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ProphetError("Content-Length is not an integer") from None
        if length <= 0:
            raise ProphetError("request body is empty")
        if length > MAX_BODY_BYTES:
            raise ProphetError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise RequestTimeoutError(
                f"timed out waiting for the declared {length}-byte "
                f"body (socket timeout {self.timeout:g}s)") from None
        if len(raw) < length:
            raise RequestTimeoutError(
                f"request body ended after {len(raw)} of the declared "
                f"{length} bytes")
        self._body_read = True
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProphetError(f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ProphetError("request body must be a JSON object")
        return body

    def _reply(self, status: int, payload: dict,
               headers: dict[str, str] | None = None) -> int:
        return self._reply_raw(status, json.dumps(payload).encode("utf-8"),
                               "application/json", headers=headers)

    def _reply_raw(self, status: int, data: bytes,
                   content_type: str,
                   headers: dict[str, str] | None = None) -> int:
        self._response_sent = True
        if self._body_left_unread():
            # The unread bytes would be parsed as the next request.
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        # Status line, headers and body leave in one write (not
        # end_headers() + a body write): a reader never sees a status
        # line without its body, and on a persistent connection the
        # body never waits for the peer's delayed ACK of the headers.
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        self.wfile.write(head + b"\r\n" + data if head else data)
        return status

    def _body_left_unread(self) -> bool:
        """Whether request-body bytes still sit on the connection."""
        if self.close_connection or self._body_read:
            return False
        declared = self.headers.get("Content-Length", "0").strip()
        return declared != "0" or "Transfer-Encoding" in self.headers

    def send_error(self, code, message=None, explain=None):  # noqa: D102
        # http.server calls this for protocol-level failures we never
        # routed (unsupported method → 501, bad request line → 400).
        # Keep the wire contract: every error body is JSON.
        if getattr(self, "_response_sent", False):
            self.close_connection = True
            return
        detail = message or self.responses.get(code, ("", ""))[0]
        body = {"error": f"{detail}" if detail else f"HTTP {code}"}
        self.close_connection = True
        try:
            self._reply(code, body)
        except OSError:
            pass

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)


def _retry_after_header(retry_after: float) -> dict[str, str]:
    """``Retry-After`` as HTTP requires it: whole seconds, >= 1."""
    return {"Retry-After": str(max(1, math.ceil(retry_after)))}


class ServiceHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` that knows its admission gateway.

    ``drain()`` is the graceful half of shutdown: stop admitting
    (new ``/evaluate`` posts get ``503`` + ``Retry-After``), then wait
    for every in-flight batch to finish.  ``shutdown()`` — stopping the
    accept loop — remains the caller's move afterwards.

    The server tracks its accepted connections: ``server_close()``
    hangs up every one still open, so keep-alive callers see a closed
    server as dead (and fail over) instead of being answered by
    handler threads that outlive it.
    """

    gateway: RequestGateway | None = None

    def __init__(self, *args, **kwargs) -> None:
        # Set before binding: a failed bind calls server_close().
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer hung up first

    def drain(self, timeout: float | None = None) -> bool:
        if self.gateway is None:
            return True
        return self.gateway.drain(timeout)


def make_server(service: EvaluationService, host: str = "127.0.0.1",
                port: int = 0, *,
                queue_depth: int = 64,
                window_s: float = 0.0,
                rate_limit: float = 0.0,
                burst: float | None = None,
                socket_timeout: float = DEFAULT_SOCKET_TIMEOUT,
                retry_after_s: float = 1.0) -> ServiceHTTPServer:
    """A ready-to-run HTTP server bound to ``host:port`` (0 = ephemeral).

    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``drain()`` + ``shutdown()`` + ``server_close()`` to stop (tests
    run it on a thread; ``prophet serve`` runs it in the foreground).

    ``queue_depth`` bounds concurrently admitted batches, ``window_s``
    opens a cross-connection coalescing window (0 = off),
    ``rate_limit``/``burst`` configure the per-client token bucket
    (0 = off), and ``socket_timeout`` is the per-connection socket
    timeout backing the 408 contract.
    """
    gateway = RequestGateway(service, queue_depth=queue_depth,
                             window_s=window_s, rate_limit=rate_limit,
                             burst=burst, retry_after_s=retry_after_s)
    handler = type("BoundServiceRequestHandler", (ServiceRequestHandler,),
                   {"service": service, "gateway": gateway,
                    "timeout": socket_timeout})
    server = ServiceHTTPServer((host, port), handler)
    server.gateway = gateway
    return server


__all__ = ["DEFAULT_SOCKET_TIMEOUT", "MAX_BODY_BYTES",
           "PROMETHEUS_CONTENT_TYPE", "RequestTimeoutError",
           "ServiceHTTPServer", "ServiceRequestHandler", "make_server"]
