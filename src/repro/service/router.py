"""Shard router: one front end over a replicated serving fleet.

``prophet route`` runs this in front of N ``prophet serve`` replicas.
The router owns a **shard map** — a consistent-hash ring over the
replicas' ids, keyed by each request's structural model hash — and
forwards every ``/evaluate`` batch to the owning replica, so repeat
traffic for a model keeps landing where that model's results are
already cache-hot.  Ingest is different: ``POST /models`` is
**broadcast** to every replica (models are small and ingest is rare),
which is what makes failover trivially correct — any replica can serve
any request, the shard map only decides who serves it *fast*.

Failure handling is layered:

* **Active probing** — a background thread GETs every replica's
  ``/health`` each ``probe_interval_s`` and flips its health state.
* **Passive circuit breaking** — ``circuit_threshold`` consecutive
  transport errors open a replica's circuit for ``circuit_reset_s``;
  an open circuit is skipped without waiting for the next probe.
* **Failover** — a batch whose primary is dead (or rejects) walks the
  shard's replica chain: secondary (with ``replication_factor`` 2),
  then any healthy replica, then — in degraded mode — the router's own
  local evaluation service, whose results carry ``degraded: true``.
  Only when *every* rung fails does a request come back as a
  per-request error entry in a 200 batch (207 in spirit: partial
  results instead of a blanket 502).
* **Hedged reads** — a batch the router has served successfully before
  is cache-warm on its owners; with two healthy owners (so only with
  ``replication_factor`` 2) the router fires the secondary after
  ``hedge_delay_s`` and takes whichever answers first (results are
  deterministic, so either answer is *the* answer).  A non-owner's
  cache is cold for the shard, so it is never hedged to.

Admission rejections (429/503) from any replica are honoured through
the one shared :class:`~repro.sweep.resilient.RetryPolicy`: the
rejecting replica's ``Retry-After`` floors the backoff before the next
rung of the chain is tried — the same backoff law the client and the
sweep dispatcher use.

Every forwarded result is annotated with the serving ``replica`` id
(and ``degraded``/``hedged`` markers where they apply); the payload
keys themselves stay byte-identical to a direct single-service run.

Each replica's :class:`~repro.service.client.ServiceClient` keeps a
pool of keep-alive connections shared by the router's handler threads
and its hedge pool, so a forward reuses a warm connection instead of
dialling one.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.errors import ProphetError
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.httpd import (
    ServiceHTTPServer,
    ServiceRequestHandler,
)
from repro.service.request import EvaluationRequest
from repro.service.service import EvaluationService
from repro.sweep.resilient import RetryPolicy

#: Virtual nodes per replica on the hash ring (smooths the key split).
VNODES = 64

#: Consecutive transport failures that open a replica's circuit.
DEFAULT_CIRCUIT_THRESHOLD = 3

#: Seconds an opened circuit stays open before a half-open retry.
DEFAULT_CIRCUIT_RESET_S = 5.0

#: Seconds between active health probes.
DEFAULT_PROBE_INTERVAL_S = 5.0

#: Head start the primary gets before a hedge fires at the secondary.
DEFAULT_HEDGE_DELAY_S = 0.05

#: Cache-warm batch signatures remembered for hedging decisions.
_WARM_LIMIT = 4096


class RouterError(ProphetError):
    """The router cannot satisfy a request on any rung of the chain."""


def _ring_hash(text: str) -> int:
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class ShardMap:
    """Consistent-hash ring: shard key → ordered owning replicas.

    Each replica contributes :data:`VNODES` points; ``owners(key, n)``
    walks the ring clockwise from the key's hash collecting the first
    ``n`` *distinct* replicas — the stable primary/secondary order the
    router fails over along.  Adding or removing one replica only
    remaps the key ranges adjacent to its points.
    """

    def __init__(self, replica_ids: Sequence[str]) -> None:
        if not replica_ids:
            raise RouterError("a shard map needs at least one replica")
        if len(set(replica_ids)) != len(replica_ids):
            raise RouterError(
                f"duplicate replica ids in {list(replica_ids)!r}")
        self.replica_ids = tuple(replica_ids)
        points = []
        for replica_id in replica_ids:
            for vnode in range(VNODES):
                points.append((_ring_hash(f"{replica_id}#{vnode}"),
                               replica_id))
        points.sort()
        self._hashes = [point[0] for point in points]
        self._owners = [point[1] for point in points]

    def owners(self, key: str, count: int = 1) -> list[str]:
        """The first ``count`` distinct replicas owning ``key``."""
        count = min(count, len(self.replica_ids))
        start = bisect.bisect_right(self._hashes, _ring_hash(key))
        owners: list[str] = []
        for step in range(len(self._owners)):
            owner = self._owners[(start + step) % len(self._owners)]
            if owner not in owners:
                owners.append(owner)
                if len(owners) == count:
                    break
        return owners

    def spread(self, keys: Sequence[str]) -> dict[str, int]:
        """How many of ``keys`` each replica primaries (diagnostics)."""
        counts = {replica_id: 0 for replica_id in self.replica_ids}
        for key in keys:
            counts[self.owners(key)[0]] += 1
        return counts


@dataclass
class ReplicaState:
    """One fleet member, as the router sees it."""

    replica_id: str
    base_url: str
    client: ServiceClient
    probe_client: ServiceClient
    healthy: bool = True
    consecutive_failures: int = 0
    circuit_open_until: float = 0.0
    last_probe_ok: float | None = None
    instance: str | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    def available(self, now: float) -> bool:
        with self.lock:
            return self.healthy and now >= self.circuit_open_until

    def to_payload(self) -> dict:
        with self.lock:
            return {
                "replica": self.replica_id,
                "url": self.base_url,
                "healthy": self.healthy,
                "instance": self.instance,
                "consecutive_failures": self.consecutive_failures,
                "circuit_open": time.monotonic()
                < self.circuit_open_until,
            }


class ShardRouter:
    """Routes evaluate/ingest traffic across a replicated fleet."""

    def __init__(self, replica_urls: Sequence[str], *,
                 replication_factor: int = 1,
                 local_service: EvaluationService | None = None,
                 probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
                 probe_timeout_s: float = 2.0,
                 circuit_threshold: int = DEFAULT_CIRCUIT_THRESHOLD,
                 circuit_reset_s: float = DEFAULT_CIRCUIT_RESET_S,
                 hedge_delay_s: float = DEFAULT_HEDGE_DELAY_S,
                 hedging: bool = True,
                 request_timeout_s: float = 60.0,
                 retry_policy: RetryPolicy | None = None) -> None:
        if not replica_urls:
            raise RouterError("a router needs at least one replica URL")
        if not 1 <= replication_factor <= 2:
            raise RouterError(
                f"replication_factor must be 1 or 2, got "
                f"{replication_factor!r}")
        self.replication_factor = replication_factor
        self.local_service = local_service
        self.probe_interval_s = probe_interval_s
        self.circuit_threshold = circuit_threshold
        self.circuit_reset_s = circuit_reset_s
        self.hedge_delay_s = hedge_delay_s
        self.hedging = hedging
        self.retry_policy = retry_policy or RetryPolicy(
            max_retries=0, base_delay_s=0.05, max_delay_s=1.0)
        self._retry_rng = random.Random(self.retry_policy.seed)
        self.replicas: dict[str, ReplicaState] = {}
        for index, url in enumerate(replica_urls):
            replica_id = f"r{index}"
            self.replicas[replica_id] = ReplicaState(
                replica_id=replica_id, base_url=url.rstrip("/"),
                client=ServiceClient(url, timeout=request_timeout_s,
                                     client_id="router"),
                probe_client=ServiceClient(url, timeout=probe_timeout_s,
                                           client_id="router"))
        self.shard_map = ShardMap(list(self.replicas))
        self.instance_id = "router"
        self.metrics = obs.MetricsRegistry()
        self._labels: dict[str, str] = {}   # learned label → hash
        self._warm: dict[str, None] = {}    # LRU-ish warm signatures
        self._warm_lock = threading.Lock()
        self._probe_stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        self._hedge_pool = None

    # -- health ---------------------------------------------------------------

    def start_probing(self) -> None:
        """Run active health probes on a daemon thread until close()."""
        if self._probe_thread is not None:
            return
        self.probe()  # synchronous first pass: start with real states

        def loop() -> None:
            while not self._probe_stop.wait(self.probe_interval_s):
                try:
                    self.probe()
                except Exception:  # noqa: BLE001 — probes never die
                    pass

        self._probe_thread = threading.Thread(
            target=loop, name="router-probe", daemon=True)
        self._probe_thread.start()

    def probe(self) -> dict[str, bool]:
        """One active probe round; returns replica → healthy."""
        verdict: dict[str, bool] = {}
        for replica in self.replicas.values():
            try:
                health = replica.probe_client.health()
                ok = health.get("status") == "ok"
            except ServiceClientError:
                ok = False
                health = {}
            with replica.lock:
                replica.healthy = ok
                if ok:
                    replica.consecutive_failures = 0
                    replica.circuit_open_until = 0.0
                    replica.last_probe_ok = time.monotonic()
                    replica.instance = health.get("instance")
            self._probe_metric(replica.replica_id, ok)
            verdict[replica.replica_id] = ok
        return verdict

    def _probe_metric(self, replica_id: str, ok: bool) -> None:
        self.metrics.counter(
            "router_probes_total", "Active health probes, by outcome.",
            labelnames=("replica", "outcome"),
        ).labels(replica_id, "ok" if ok else "fail").inc()
        self.metrics.gauge(
            "router_replica_healthy",
            "1 while the replica answers health probes.",
            labelnames=("replica",),
        ).labels(replica_id).set(1.0 if ok else 0.0)

    def _record_failure(self, replica: ReplicaState,
                        transport: bool) -> None:
        """Passive circuit breaking on forwarding errors."""
        if not transport:
            return  # a 4xx/429 is the replica *answering*, not dying
        with replica.lock:
            replica.consecutive_failures += 1
            if replica.consecutive_failures >= self.circuit_threshold:
                replica.healthy = False
                replica.circuit_open_until = (time.monotonic()
                                              + self.circuit_reset_s)
                self.metrics.counter(
                    "router_circuit_opens_total",
                    "Circuits opened after consecutive transport "
                    "failures.", labelnames=("replica",),
                ).labels(replica.replica_id).inc()

    def _record_success(self, replica: ReplicaState) -> None:
        with replica.lock:
            replica.healthy = True
            replica.consecutive_failures = 0
            replica.circuit_open_until = 0.0

    # -- shard keys -----------------------------------------------------------

    def shard_key(self, model_ref: str) -> str:
        """The routing key for a model reference.

        A full structural hash routes as itself; a label the router
        learned at ingest routes as its hash (so label and hash traffic
        for one model share a shard); anything else hashes as an opaque
        string — stable, and correct regardless, because ingest is
        broadcast.
        """
        ref = model_ref or ""
        if len(ref) == 64 and all(c in "0123456789abcdef" for c in ref):
            return ref
        learned = self._labels.get(ref)
        if learned is not None:
            return learned
        if self.local_service is not None:
            try:
                return self.local_service.registry.resolve(ref)
            except ProphetError:
                pass
        return hashlib.sha256(ref.encode("utf-8")).hexdigest()

    def _chain(self, key: str) -> list[ReplicaState]:
        """Failover order for ``key``: owners first, then the rest."""
        owner_ids = self.shard_map.owners(key, self.replication_factor)
        rest = [replica_id for replica_id in self.replicas
                if replica_id not in owner_ids]
        return [self.replicas[replica_id]
                for replica_id in owner_ids + rest]

    # -- evaluate -------------------------------------------------------------

    def submit(self, requests: Sequence[EvaluationRequest],
               client_id: str | None = None) -> dict:
        """Route a batch; returns the ``/evaluate`` response payload.

        Requests are grouped by owning primary, each group forwarded
        (with failover) independently, and results reassembled in
        request order.  A group that fails every rung comes back as
        per-request error entries — partial results, never a 502.
        """
        del client_id  # replicas see the router as one client
        start = time.perf_counter()
        groups: dict[str, list[tuple[int, EvaluationRequest]]] = {}
        for position, request in enumerate(requests):
            primary = self.shard_map.owners(
                self.shard_key(request.model_ref), 1)[0]
            groups.setdefault(primary, []).append((position, request))
        results: dict[int, dict] = {}
        stats_list: list[dict] = []
        degraded_any = False
        for primary, members in sorted(groups.items()):
            payload = [request.to_payload()
                       for _position, request in members]
            outcome = self._submit_group(primary, members[0][1],
                                         payload)
            degraded_any = degraded_any or outcome.get("degraded", False)
            if outcome.get("stats"):
                stats_list.append(outcome["stats"])
            for (position, _request), result in zip(
                    members, outcome["results"]):
                results[position] = result
        self.metrics.histogram(
            "router_submit_seconds",
            "Wall time of one routed batch, end to end.",
            obs.LATENCY_BUCKETS_S).observe(time.perf_counter() - start)
        return {
            "results": [results[position]
                        for position in range(len(requests))],
            "stats": _merge_stats(stats_list, shards=len(groups),
                                  degraded=degraded_any),
        }

    def _submit_group(self, primary: str, sample: EvaluationRequest,
                      payload: list[dict]) -> dict:
        """One shard group through the failover chain."""
        signature = _batch_signature(payload)
        chain = self._chain(self.shard_key(sample.model_ref))
        now = time.monotonic()
        owners = [replica for replica in chain[:self.replication_factor]
                  if replica.available(now)]
        if self.hedging and len(owners) == 2 \
                and self._is_warm(signature):
            response = self._hedged(owners[0], owners[1], payload)
            if response is not None:
                return response
        attempt = 0
        errors: list[str] = []
        for replica in chain:
            if not replica.available(time.monotonic()):
                continue
            attempt += 1
            try:
                response = replica.client.evaluate(payload)
            except ServiceClientError as exc:
                transport = exc.status is None or exc.status >= 500
                self._record_failure(replica, transport)
                self._forward_metric(replica.replica_id, "fail")
                errors.append(f"{replica.replica_id}: {exc}")
                if exc.status in (429, 503):
                    # The replica answered "later" — honour its hint
                    # through the shared policy before the next rung.
                    time.sleep(self.retry_policy.backoff_s(
                        attempt, self._retry_rng,
                        floor_s=exc.retry_after))
                continue
            self._record_success(replica)
            self._forward_metric(replica.replica_id, "ok")
            if attempt > 1 or replica.replica_id != primary:
                self.metrics.counter(
                    "router_failovers_total",
                    "Shard groups served away from their primary.",
                ).inc()
            self._mark_warm(signature)
            return _annotate(response, replica.replica_id)
        return self._degraded(payload, errors)

    def _degraded(self, payload: list[dict],
                  errors: list[str]) -> dict:
        """Last rung: compute locally, marked, or per-request errors."""
        if self.local_service is not None:
            from repro.service.request import request_from_payload
            response = self.local_service.submit(
                [request_from_payload(entry)
                 for entry in payload]).to_payload()
            self.metrics.counter(
                "router_degraded_total",
                "Batches recomputed locally with no replica "
                "reachable.").inc()
            annotated = _annotate(response, "local", degraded=True)
            annotated["degraded"] = True
            return annotated
        detail = "; ".join(errors) or "no replica available"
        self.metrics.counter(
            "router_unserved_total",
            "Shard groups failed on every rung of the chain.").inc()
        return {
            "results": [{"status": "error",
                         "error": f"no replica could serve this "
                                  f"request ({detail})"}
                        for _entry in payload],
            "stats": {},
            "degraded": True,
        }

    def _hedged(self, first: ReplicaState, second: ReplicaState,
                payload: list[dict]) -> dict | None:
        """Fire ``first``, then ``second`` after the hedge delay; the
        earliest success wins.  None means both lost (caller falls back
        to the sequential chain, which also handles bookkeeping)."""
        import concurrent.futures
        if self._hedge_pool is None:
            self._hedge_pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="router-hedge")
        outcome: dict = {}
        done = threading.Event()

        def call(replica: ReplicaState, wait_s: float) -> None:
            if wait_s and done.wait(wait_s):
                return  # the primary already answered; stay home
            try:
                response = replica.client.evaluate(payload)
            except ServiceClientError:
                self._record_failure(replica, True)
                return
            self._record_success(replica)
            if not done.is_set():
                outcome.setdefault("response", response)
                outcome.setdefault("replica", replica.replica_id)
                done.set()

        futures = [self._hedge_pool.submit(call, first, 0.0),
                   self._hedge_pool.submit(call, second,
                                           self.hedge_delay_s)]
        done.wait(max(first.client.timeout, second.client.timeout) + 1)
        for future in futures:
            if done.is_set():
                break
            future.result()
        if "response" not in outcome:
            return None
        hedged_won = outcome["replica"] == second.replica_id
        self.metrics.counter(
            "router_hedges_total",
            "Hedged warm reads, by which attempt answered first.",
            labelnames=("winner",),
        ).labels("hedge" if hedged_won else "primary").inc()
        self._forward_metric(outcome["replica"], "ok")
        return _annotate(outcome["response"], outcome["replica"],
                         hedged=True)

    def _forward_metric(self, replica_id: str, outcome: str) -> None:
        self.metrics.counter(
            "router_forwards_total",
            "Batches forwarded to replicas, by outcome.",
            labelnames=("replica", "outcome"),
        ).labels(replica_id, outcome).inc()

    def _is_warm(self, signature: str) -> bool:
        with self._warm_lock:
            return signature in self._warm

    def _mark_warm(self, signature: str) -> None:
        with self._warm_lock:
            self._warm[signature] = None
            while len(self._warm) > _WARM_LIMIT:
                self._warm.pop(next(iter(self._warm)))

    # -- ingest ---------------------------------------------------------------

    def ingest(self, body: dict) -> dict:
        """Broadcast an ingest to every replica (and the local spare).

        Any replica can then serve any request — the property every
        failover rung rests on.  Succeeds if at least one replica (or
        the local service) stored the model; unreachable replicas are
        reported and will be healed by their next re-ingest (the
        operation is idempotent by content address).
        """
        record: dict | None = None
        failed: list[str] = []
        for replica in self.replicas.values():
            try:
                if "xml" in body:
                    stored = replica.client.ingest_xml(
                        body["xml"], body.get("label"))
                else:
                    stored = replica.client.ingest_sample(
                        body["sample"], body.get("label"))
            except ServiceClientError as exc:
                transport = exc.status is None or exc.status >= 500
                self._record_failure(replica, transport)
                failed.append(replica.replica_id)
                if exc.status is not None and exc.status < 500:
                    # The model itself is bad (422/400): every replica
                    # would say the same; surface it as-is.
                    raise
                continue
            self._record_success(replica)
            record = stored
        if self.local_service is not None:
            if "xml" in body:
                local = self.local_service.ingest_xml(
                    body["xml"], body.get("label"))
            else:
                local = self.local_service.ingest_sample(
                    body["sample"], body.get("label"))
            record = record or local.to_payload()
        if record is None:
            raise RouterError(
                "ingest failed on every replica "
                f"({', '.join(failed) or 'none configured'})")
        for label in record.get("labels") or []:
            self._labels[label] = record["ref"]
        self.metrics.counter(
            "router_ingest_total",
            "Ingest broadcasts accepted by at least one replica.").inc()
        return {"model": record, "replicas_failed": failed}

    # -- introspection --------------------------------------------------------

    def health(self) -> dict:
        now = time.monotonic()
        healthy = sum(1 for replica in self.replicas.values()
                      if replica.available(now))
        status = "ok" if healthy == len(self.replicas) else (
            "degraded" if healthy or self.local_service else "down")
        return {
            "status": status,
            "role": "router",
            "instance": self.instance_id,
            "replicas": {replica_id: replica.to_payload()
                         for replica_id, replica
                         in self.replicas.items()},
            "replication_factor": self.replication_factor,
            "local_fallback": self.local_service is not None,
        }

    def stats(self) -> dict:
        return {
            "instance": self.instance_id,
            "role": "router",
            "replicas": {replica_id: replica.to_payload()
                         for replica_id, replica
                         in self.replicas.items()},
            "replication_factor": self.replication_factor,
            "labels_learned": len(self._labels),
            "warm_signatures": len(self._warm),
        }

    def metric_registries(self) -> tuple:
        return (self.metrics, obs.global_registry())

    def close(self) -> None:
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5)
            self._probe_thread = None
        if self._hedge_pool is not None:
            self._hedge_pool.shutdown(wait=False)
            self._hedge_pool = None
        for replica in self.replicas.values():
            replica.client.close()
            replica.probe_client.close()


def _batch_signature(payload: list[dict]) -> str:
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True).encode("utf-8")).hexdigest()


def _annotate(response: dict, replica_id: str, *,
              degraded: bool = False, hedged: bool = False) -> dict:
    """Stamp fleet metadata on each result (payload keys untouched)."""
    for result in response.get("results") or []:
        result["replica"] = replica_id
        if degraded:
            result["degraded"] = True
        if hedged:
            result["hedged"] = True
    return response


def _merge_stats(stats_list: list[dict], *, shards: int,
                 degraded: bool) -> dict:
    merged: dict = {"shards": shards, "degraded": degraded}
    for name in ("requests", "unique_jobs", "coalesced",
                 "cache_hits", "cache_misses", "plan_errors"):
        values = [stats.get(name) for stats in stats_list
                  if isinstance(stats.get(name), (int, float))]
        if values:
            merged[name] = sum(values)
    return merged


# -- HTTP front end -----------------------------------------------------------


class RouterRequestHandler(ServiceRequestHandler):
    """The service handler's plumbing, routed onto a ShardRouter.

    ``service`` *is* the router here: ``_observe`` and ``_get_metrics``
    only need ``.metrics`` / ``.metric_registries()``, which the router
    provides, so the dispatch/error/reply machinery is shared verbatim.
    """

    server_version = "ProphetRouter/1.0"
    router: ShardRouter  # injected by make_router_server

    def _get_health(self) -> int:
        return self._reply(200, self.router.health())

    def _get_stats(self) -> int:
        return self._reply(200, self.router.stats())

    def _get_models(self) -> int:
        last_error: ServiceClientError | None = None
        for replica in self.router.replicas.values():
            if not replica.available(time.monotonic()):
                continue
            try:
                return self._reply(
                    200, {"models": replica.client.list_models()})
            except ServiceClientError as exc:
                last_error = exc
                self.router._record_failure(
                    replica, exc.status is None or exc.status >= 500)
        if self.router.local_service is not None:
            return self._reply(200, {"models": [
                record.to_payload() for record
                in self.router.local_service.registry.records()]})
        raise RouterError(
            f"no replica could list models ({last_error})")

    def _post_models(self) -> int:
        body = self._read_json()
        if "xml" not in body and "sample" not in body:
            raise ProphetError(
                "ingest body needs either 'xml' (a model document) or "
                "'sample' (a built-in model kind)")
        return self._reply(200, self.router.ingest(body))

    def _post_evaluate(self) -> int:
        from repro.service.request import requests_from_payload
        body = self._read_json()
        requests = requests_from_payload(body.get("requests"))
        return self._reply(200, self.router.submit(
            requests, client_id=self.headers.get("X-Client-Id")))


def make_router_server(router: ShardRouter, host: str = "127.0.0.1",
                       port: int = 0, *,
                       socket_timeout: float = 30.0
                       ) -> ServiceHTTPServer:
    """A ready-to-run router HTTP server (0 = ephemeral port).

    Starts the router's active probe thread; callers own the server
    lifecycle and should ``router.close()`` after ``shutdown()``.
    """
    handler = type("BoundRouterRequestHandler", (RouterRequestHandler,),
                   {"service": router, "router": router,
                    "gateway": None, "timeout": socket_timeout})
    server = ServiceHTTPServer((host, port), handler)
    router.start_probing()
    return server


__all__ = [
    "DEFAULT_CIRCUIT_RESET_S", "DEFAULT_CIRCUIT_THRESHOLD",
    "DEFAULT_HEDGE_DELAY_S", "DEFAULT_PROBE_INTERVAL_S",
    "ReplicaState", "RouterError", "RouterRequestHandler", "ShardMap",
    "ShardRouter", "VNODES", "make_router_server",
]
