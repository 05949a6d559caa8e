"""Concurrent load generator for the serving tier (``prophet bench``).

Measures the serving path the way a client sees it: real HTTP over a
loopback socket against a :func:`repro.service.httpd.make_server`
instance, several client threads at once.  Three phases:

1. **Latency under contention** — worker threads post *fast* batches
   (cache-warm simulated points plus analytic points, which never touch
   the executor) while a heavy thread posts cache-missing simulated
   batches through a deliberately slow executor.  Fast batches must not
   wait behind a slow simulation batch.  The one-batch-at-a-time
   baseline this was once measured against is a recorded number
   (``BENCH_estimator.json``'s history), not a mode of the service.
2. **Identity** — every fast response is byte-compared (on the
   deterministic payload keys) against a serial reference captured
   during warm-up.  Any mismatch raises; concurrency must never change
   a payload.
3. **Overload** — a tiny-queue server with a slow executor takes more
   concurrent posts than it admits; the surplus must come back as
   ``429`` + ``Retry-After`` well within the socket timeout, not hang.

The latency run also records how many connections the server accepted
(``http_connections_total``) against its client threads and batches:
with keep-alive every client's batches share one connection, which the
``loadgen-smoke`` CI leg asserts.

Timing numbers are reported, never asserted; the identity, malformed-
response, and overload contracts are hard (a violation raises, failing
``prophet bench`` and the ``loadgen-smoke`` CI leg).
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.httpd import make_server
from repro.service.request import EvaluationRequest
from repro.service.service import (EvaluationService,
                                   RESULT_PAYLOAD_KEYS)

#: Model (registry sample kind) the workload evaluates.
WORKLOAD_MODEL = "kernel6"


class SlowExecutor:
    """A serial executor with a fixed pre-batch delay.

    Stands in for "a slow simulation batch" deterministically: payloads
    are the real serial executor's (identity checks still hold), but
    every dispatch holds the service's executor-ownership lock for at
    least ``delay_s``.  What the loadgen measures is how much of that
    delay leaks into *other* connections' fast batches.
    """

    name = "slow-serial"

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def run(self, jobs):
        from repro.sweep.runner import SerialExecutor
        if not jobs:
            return []
        time.sleep(self.delay_s)
        return SerialExecutor().run(jobs)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of ``samples``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _canonical(result: dict) -> str:
    """The deterministic face of one per-request result."""
    return json.dumps({key: result.get(key)
                       for key in RESULT_PAYLOAD_KEYS}, sort_keys=True)


def _fast_batches(ref: str) -> list[list[EvaluationRequest]]:
    """The fast-class request batches (cache-warm sim + analytic)."""
    return [
        [EvaluationRequest(model_ref=ref, backend="codegen",
                           params={"processes": p}, seed=0)
         for p in (1, 2)],
        [EvaluationRequest(model_ref=ref, backend="analytic",
                           params={"processes": p})
         for p in (1, 2, 4)],
        [EvaluationRequest(model_ref=ref, backend="interp",
                           params={"processes": 2}, seed=0),
         EvaluationRequest(model_ref=ref, backend="analytic",
                           params={"processes": 8})],
    ]


def _heavy_batch(ref: str, seed: int) -> list[EvaluationRequest]:
    """A cache-missing simulated batch (unique seed each round)."""
    return [EvaluationRequest(model_ref=ref, backend="codegen",
                              params={"processes": 2}, seed=seed)]


def _build_service(root: Path,
                   delay_s: float) -> tuple[EvaluationService, str]:
    service = EvaluationService(
        root / "registry", cache=root / "cache",
        executor=SlowExecutor(delay_s))
    record = service.ingest_sample(WORKLOAD_MODEL)
    return service, record.ref


def _measure_phase(root: Path, *, delay_s: float, workers: int,
                   rounds: int) -> dict:
    """The latency run; returns its stats dict."""
    service, ref = _build_service(root, delay_s)
    batches = _fast_batches(ref)

    # Warm-up doubles as the serial reference (request canonical JSON →
    # result canonical JSON): the cache fills (fast batches become pure
    # hits) and every expected payload is recorded before any
    # concurrency exists.
    reference: dict[str, str] = {}
    for batch in batches:
        response = service.submit(batch)
        for request, result in zip(batch, response.results):
            key = json.dumps(request.to_payload(), sort_keys=True)
            reference[key] = _canonical(result)

    server = make_server(service)
    host, port = server.server_address[:2]
    server_thread = threading.Thread(target=server.serve_forever,
                                     daemon=True)
    server_thread.start()

    latencies: list[float] = []
    heavy_batches = 0
    problems: list[str] = []
    stop_heavy = threading.Event()
    lock = threading.Lock()

    def fast_worker(worker_index: int) -> None:
        client = ServiceClient(f"http://{host}:{port}",
                               client_id=f"fast-{worker_index}")
        for round_index in range(rounds):
            batch = batches[(worker_index + round_index) % len(batches)]
            start = time.perf_counter()
            try:
                payload = client.evaluate(batch)
            except ServiceClientError as exc:
                with lock:
                    problems.append(f"fast request failed: {exc}")
                continue
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)
                results = payload.get("results")
                if not isinstance(results, list) \
                        or len(results) != len(batch):
                    problems.append("malformed response shape")
                    continue
                for request, result in zip(batch, results):
                    key = json.dumps(request.to_payload(),
                                     sort_keys=True)
                    if reference.get(key) != _canonical(result):
                        problems.append(
                            f"payload diverged from serial reference "
                            f"for {key}")

    def heavy_worker() -> None:
        nonlocal heavy_batches
        client = ServiceClient(f"http://{host}:{port}",
                               client_id="heavy")
        seed = 1_000
        while not stop_heavy.is_set():
            seed += 1
            try:
                client.evaluate(_heavy_batch(ref, seed))
                heavy_batches += 1
            except ServiceClientError as exc:
                with lock:
                    problems.append(f"heavy request failed: {exc}")

    threads = [threading.Thread(target=fast_worker, args=(i,))
               for i in range(workers)]
    heavy = threading.Thread(target=heavy_worker)
    wall_start = time.perf_counter()
    heavy.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    stop_heavy.set()
    heavy.join()
    server.shutdown()
    server.server_close()
    server_thread.join()
    service.close()
    connections = service.metrics.counter(
        "http_connections_total", "HTTP connections accepted.").value

    if problems:
        raise RuntimeError(
            f"loadgen latency phase: {len(problems)} problem(s); "
            f"first: {problems[0]}")
    requests_served = sum(len(batches[i % len(batches)])
                          for i in range(rounds)) * workers
    return {
        "batches": len(latencies),
        "heavy_batches": heavy_batches,
        "clients": workers + 1,
        "connections": int(connections),
        "requests": requests_served,
        "wall_s": round(wall, 4),
        "throughput_rps": round(requests_served / wall, 1),
        "p50_ms": round(percentile(latencies, 50) * 1e3, 2),
        "p99_ms": round(percentile(latencies, 99) * 1e3, 2),
        "max_ms": round(max(latencies) * 1e3, 2),
    }


def _overload_phase(root: Path, *, delay_s: float,
                    socket_timeout: float) -> dict:
    """Overfill a queue_depth-1 server; surplus must 429 fast."""
    service, ref = _build_service(root / "overload", delay_s)
    server = make_server(service, queue_depth=1,
                         socket_timeout=socket_timeout,
                         retry_after_s=1.0)
    host, port = server.server_address[:2]
    server_thread = threading.Thread(target=server.serve_forever,
                                     daemon=True)
    server_thread.start()

    attempts = 6
    outcomes: list[dict] = []
    lock = threading.Lock()
    ready = threading.Barrier(attempts)

    def poster(index: int) -> None:
        client = ServiceClient(f"http://{host}:{port}",
                               client_id=f"burst-{index}")
        ready.wait()
        start = time.perf_counter()
        try:
            client.evaluate(_heavy_batch(ref, 5_000 + index))
            outcome = {"status": 200}
        except ServiceClientError as exc:
            outcome = {"status": exc.status,
                       "retry_after": exc.retry_after}
        outcome["latency_s"] = time.perf_counter() - start
        with lock:
            outcomes.append(outcome)

    threads = [threading.Thread(target=poster, args=(i,))
               for i in range(attempts)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.shutdown()
    server.server_close()
    server_thread.join()
    service.close()

    rejected = [o for o in outcomes if o["status"] == 429]
    admitted = [o for o in outcomes if o["status"] == 200]
    unexpected = [o for o in outcomes
                  if o["status"] not in (200, 429)]
    if unexpected:
        raise RuntimeError(
            f"overload probe saw unexpected statuses: {unexpected}")
    if not rejected:
        raise RuntimeError(
            "overload probe admitted every request; the bounded "
            "queue is not shedding load")
    slowest_reject = max(o["latency_s"] for o in rejected)
    if slowest_reject >= socket_timeout:
        raise RuntimeError(
            f"a 429 took {slowest_reject:.2f}s — longer than the "
            f"{socket_timeout:g}s socket timeout; rejection must be "
            "immediate")
    if any(o.get("retry_after") is None for o in rejected):
        raise RuntimeError("a 429 arrived without Retry-After")
    return {
        "attempts": attempts,
        "queue_depth": 1,
        "admitted": len(admitted),
        "rejected_429": len(rejected),
        "slowest_reject_ms": round(slowest_reject * 1e3, 1),
        "socket_timeout_s": socket_timeout,
        "retry_after_present": True,
    }


def run_loadgen(smoke: bool = False, root: str | Path | None = None,
                workers: int | None = None,
                rounds: int | None = None) -> dict:
    """Run all three phases; returns the benchmark entry dict.

    ``root`` is a scratch directory (a temp dir is created when None);
    the latency and overload runs build their own registry/cache
    underneath it.
    """
    import tempfile
    if workers is None:
        workers = 3 if smoke else 4
    if rounds is None:
        rounds = 6 if smoke else 24
    delay_s = 0.05 if smoke else 0.15

    with tempfile.TemporaryDirectory() as scratch:
        base = Path(root) if root is not None else Path(scratch)
        concurrent = _measure_phase(
            base / "concurrent", delay_s=delay_s, workers=workers,
            rounds=rounds)
        overload = _overload_phase(
            base, delay_s=delay_s,
            socket_timeout=5.0 if smoke else 10.0)

    return {
        "description": "HTTP loadgen: fast cache-warm/analytic batches "
                       "from concurrent clients racing a heavy "
                       "cache-missing simulated stream (executor delay "
                       f"{delay_s:g}s); plus a queue_depth-1 overload "
                       "probe",
        "workers": workers,
        "rounds_per_worker": rounds,
        "heavy_executor_delay_s": delay_s,
        "concurrent": concurrent,
        "identity_ok": True,   # _measure_phase raises otherwise
        "malformed_responses": 0,  # ditto
        "overload": overload,
    }


__all__ = ["SlowExecutor", "WORKLOAD_MODEL", "percentile",
           "run_loadgen"]
