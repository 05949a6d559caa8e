"""A thin JSON client for the evaluation service (stdlib ``http.client``).

``prophet submit`` and the tests drive the HTTP API through this class;
it exists so wire concerns (encoding, connections, error mapping) live
in one place and every caller gets identical behaviour.
Server-reported errors (status ≥ 400 with an ``error`` payload) raise
:class:`ServiceClientError` with the server's message, the HTTP status
on ``.status``, and — for admission rejections (429/503) — the
server's ``Retry-After`` hint on ``.retry_after`` so callers can back
off precisely.

Connections are persistent (HTTP/1.1 keep-alive).  A client keeps a
small lock-guarded pool of them: each call borrows one for its round
trip and hands it back, so a caller making sequential calls reuses one
warm connection, and concurrent callers sharing a client (the shard
router's handler threads and hedge pool share one per replica) each
get their own.  At most :data:`POOL_SIZE` idle connections are kept;
the server closes one left idle past its socket timeout.  Reusing a
connection the server has already closed fails before any response
byte arrives; the client then redials once, inside the call — that
never reaches the retry policy or counts as a transport failure.
Every other transport failure (refused, reset mid-response, timed out,
a torn body) raises :class:`ServiceClientError` with ``status=None``.

A ``client_id`` identifies the caller to the server's per-client rate
limiter (sent as ``X-Client-Id`` on every request); omit it to share
the server's anonymous bucket.

Retries are opt-in (``max_retries=``): admission rejections (429/503)
and transport failures are retried with capped exponential backoff and
deterministic jitter, honouring the server's ``Retry-After`` hint as
the floor of each delay.  Anything else (400s, 500) is a real error
and raises immediately.  Evaluations are idempotent on the server
(content-addressed result cache), so a retried submit can only repeat
work, never corrupt it.  The backoff law is the shared
:class:`~repro.sweep.resilient.RetryPolicy` — the same object the
sweep dispatcher and the shard router use, so ``Retry-After`` from
*any* replica is honoured identically everywhere (pass
``retry_policy=`` to share one configured instance).

Router-annotated results carry ``replica`` / ``degraded`` markers
straight through to callers.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import weakref
from typing import NamedTuple, Sequence
from urllib.parse import urlsplit

from repro.errors import ProphetError
from repro.service.request import EvaluationRequest
from repro.sweep.resilient import RetryPolicy

#: HTTP statuses worth retrying: the server said "later", not "no".
RETRYABLE_STATUSES = (429, 503)

#: Idle keep-alive connections one client keeps; a call made while
#: more callers than this are in flight closes its connection after.
POOL_SIZE = 8

#: What reusing a connection the server already closed raises before
#: any response byte arrives (``RemoteDisconnected`` is a
#: ``ConnectionResetError``).
_STALE_CONNECTION_ERRORS = (ConnectionResetError, BrokenPipeError)


class ServiceClientError(ProphetError):
    """The service refused a request or could not be reached.

    ``status`` is the HTTP status code (None for transport failures);
    ``retry_after`` is the server's back-off hint in seconds (None
    unless the server sent a ``Retry-After`` header); ``attempts`` is
    how many tries the client made before giving up (1 without
    retries).
    """

    def __init__(self, message: str, status: int | None = None,
                 retry_after: float | None = None,
                 attempts: int = 1) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.attempts = attempts


class WireRequest(NamedTuple):
    """One HTTP request as :meth:`ServiceClient._call_once` sends it."""

    method: str
    path: str
    body: bytes | None
    headers: dict[str, str]


class ServiceClient:
    """Talks to one evaluation service at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 60.0,
                 client_id: str | None = None,
                 max_retries: int = 0,
                 retry_base_s: float = 0.25,
                 retry_max_s: float = 8.0,
                 retry_jitter: float = 0.25,
                 retry_seed: int = 0,
                 retry_policy: RetryPolicy | None = None) -> None:
        if max_retries < 0:
            raise ServiceClientError(
                f"max_retries must be >= 0, got {max_retries!r}")
        if retry_policy is None:
            retry_policy = RetryPolicy(max_retries=max_retries,
                                       base_delay_s=retry_base_s,
                                       max_delay_s=retry_max_s,
                                       jitter=retry_jitter,
                                       seed=retry_seed)
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ServiceClientError(
                f"service URL must be http(s)://host[:port], got "
                f"{base_url!r}")
        self._address = (parts.hostname, parts.port)
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        self._path_prefix = parts.path
        self.timeout = timeout
        self.client_id = client_id
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(retry_policy.seed)
        self._sleep = time.sleep  # injectable for tests
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        # A client dropped without close() still hangs up its idle
        # connections, instead of leaving them to socket finalizers.
        weakref.finalize(self, _close_all, self._idle)

    @property
    def max_retries(self) -> int:
        return self.retry_policy.max_retries

    def close(self) -> None:
        """Close the idle pooled connections (calls still work after)."""
        with self._idle_lock:
            idle = list(self._idle)
            self._idle.clear()
        _close_all(idle)

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        return self._get("/health")

    def stats(self) -> dict:
        return self._get("/stats")

    def metrics(self) -> dict:
        """The service's metric registries as structured JSON."""
        return self._get("/metrics?format=json")

    def metrics_text(self) -> str:
        """The service's metrics in Prometheus text exposition format."""
        return self._fetch(self._request("GET", "/metrics")).decode("utf-8")

    def list_models(self) -> list[dict]:
        return self._get("/models")["models"]

    def ingest_xml(self, xml: str, label: str | None = None) -> dict:
        body: dict = {"xml": xml}
        if label:
            body["label"] = label
        return self._post("/models", body)["model"]

    def ingest_sample(self, kind: str, label: str | None = None) -> dict:
        body: dict = {"sample": kind}
        if label:
            body["label"] = label
        return self._post("/models", body)["model"]

    def evaluate(self, requests: Sequence[EvaluationRequest | dict]
                 ) -> dict:
        """Submit a batch; returns ``{"results": [...], "stats": {...}}``."""
        payload = [request.to_payload()
                   if isinstance(request, EvaluationRequest) else request
                   for request in requests]
        return self._post("/evaluate", {"requests": payload})

    # -- wire ----------------------------------------------------------------

    def _headers(self, extra: dict[str, str] | None = None
                 ) -> dict[str, str]:
        headers = dict(extra or {})
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        return headers

    def _request(self, method: str, path: str,
                 body: bytes | None = None) -> WireRequest:
        headers = self._headers({"Content-Type": "application/json"}
                                if body is not None else None)
        return WireRequest(method, self._path_prefix + path, body, headers)

    def _get(self, path: str) -> dict:
        return self._call(self._request("GET", path))

    def _post(self, path: str, body: dict) -> dict:
        return self._call(self._request(
            "POST", path, json.dumps(body).encode("utf-8")))

    def _call(self, request: WireRequest) -> dict:
        """One logical call: ``_call_once`` plus the opt-in retry loop.

        Retryable = the server said "later" (429/503) or could not be
        reached at all; each delay is capped exponential backoff with
        deterministic jitter, floored at the server's ``Retry-After``
        hint when one was sent.
        """
        attempt = 1
        while True:
            try:
                return self._call_once(request)
            except ServiceClientError as exc:
                retryable = (exc.status in RETRYABLE_STATUSES
                             or exc.status is None)
                if not retryable or attempt > self.max_retries:
                    if attempt > 1:
                        exc = ServiceClientError(
                            f"{exc} (gave up after {attempt} "
                            "attempt(s))", status=exc.status,
                            retry_after=exc.retry_after,
                            attempts=attempt)
                    raise exc from None
                self._sleep(self.retry_policy.backoff_s(
                    attempt, self._retry_rng, floor_s=exc.retry_after))
                attempt += 1

    def _call_once(self, request: WireRequest) -> dict:
        """One wire round trip, its JSON body decoded."""
        return json.loads(self._fetch(request).decode("utf-8"))

    def _fetch(self, request: WireRequest) -> bytes:
        """One round trip on a pooled connection; the response body.

        An error status raises :class:`ServiceClientError` with the
        server's message; a transport failure raises one with
        ``status=None``.  The connection goes back to the pool only
        after a complete response.
        """
        connection = self._borrow()
        try:
            response = self._send(connection, request)
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # HTTPException covers a peer dying mid-response
            # (IncompleteRead, BadStatusLine) — a transport failure like
            # any other, so retries and the shard router's failover
            # treat it as one.
            connection.close()
            raise ServiceClientError(
                f"cannot reach service at {self.base_url}: {exc}"
            ) from exc
        self._give_back(connection)
        if response.status >= 300:
            raise _status_error(response.status, response.headers, body)
        return body

    @staticmethod
    def _send(connection: http.client.HTTPConnection,
              request: WireRequest) -> http.client.HTTPResponse:
        """Send ``request`` and read the response head.

        A reused connection the server closed while it sat idle fails
        before any response byte arrives; it is redialled once.  A
        fresh connection failing the same way is a real failure.
        """
        reused = connection.sock is not None
        while True:
            try:
                connection.request(request.method, request.path,
                                   body=request.body,
                                   headers=request.headers)
                return connection.getresponse()
            except _STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
                connection.close()  # the next request() dials afresh
                reused = False

    def _borrow(self) -> http.client.HTTPConnection:
        with self._idle_lock:
            if self._idle:
                return self._idle.pop()  # the most recently used
        host, port = self._address
        return self._connection_class(host, port, timeout=self.timeout)

    def _give_back(self, connection: http.client.HTTPConnection) -> None:
        with self._idle_lock:
            if len(self._idle) < POOL_SIZE:
                self._idle.append(connection)
                return
        connection.close()


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


def _status_error(status: int, headers: http.client.HTTPMessage,
                  body: bytes) -> ServiceClientError:
    """The :class:`ServiceClientError` an error response maps to."""
    try:
        message = json.loads(body.decode("utf-8"))["error"]
    except (ValueError, KeyError, TypeError):  # non-JSON error body
        message = f"HTTP {status}"
    retry_after = None
    header = headers.get("Retry-After")
    if header is not None:
        try:
            retry_after = float(header)
        except ValueError:
            pass  # HTTP-date form; callers fall back to status
    return ServiceClientError(f"service error ({status}): {message}",
                              status=status, retry_after=retry_after)


__all__ = ["POOL_SIZE", "RETRYABLE_STATUSES", "ServiceClient",
           "ServiceClientError"]
