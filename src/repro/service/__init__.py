"""The evaluation service: registry, batching, and a JSON-over-HTTP API.

This package turns the one-shot translator into infrastructure — the
ROADMAP's scale axis.  Instead of one CLI invocation per question, a
long-lived process holds

* :mod:`repro.service.registry` — a content-addressed persistent store
  of parsed models (ingest XML once, evaluate forever);
* :mod:`repro.service.request` — validated evaluation requests
  ``{model_ref, backend, params, network, seed}``;
* :mod:`repro.service.batcher` — duplicate coalescing and
  (model, backend) grouping, amortizing model preparation; plus
  :class:`BatchWindow`, which coalesces submissions across connections;
* :mod:`repro.service.service` — :class:`EvaluationService`, dispatching
  planned batches through the sweep executors with the shared
  content-addressed result cache; concurrent batches only contend on
  the simulated-backend executor;
* :mod:`repro.service.admission` — the :class:`RequestGateway` in front
  of the service: bounded in-flight queue (429 on overflow), per-client
  token-bucket rate limits, and graceful drain for shutdown;
* :mod:`repro.service.httpd` / :mod:`repro.service.client` — the HTTP
  front end (stdlib only) and its client, used by ``prophet serve`` and
  ``prophet submit``;
* :mod:`repro.service.loadgen` — an in-process concurrent load
  generator measuring p50/p99 latency and throughput (``prophet bench``
  and the CI smoke leg);
* :mod:`repro.service.router` — the sharded-fleet front end
  (``prophet route``): a consistent-hash shard map over replicas,
  active health probes + passive circuit breaking, failover with
  ``degraded``-marked local recompute, and hedged warm reads;
* :mod:`repro.service.fleet` — an in-process fleet launcher (N replicas
  + router on threads) for tests and benchmarks.

Quickstart (in-process)::

    from repro.service import EvaluationRequest, EvaluationService

    service = EvaluationService("registry-dir", cache="cache-dir")
    record = service.ingest_sample("kernel6")
    batch = service.submit([
        EvaluationRequest(model_ref=record.ref, backend=backend,
                          params={"processes": p})
        for backend in ("analytic", "codegen")
        for p in (1, 2, 4, 8)])
    for result in batch.results:
        print(result["backend"], result["predicted_time"])

Or over HTTP: ``prophet serve --registry registry-dir`` in one shell,
``prophet submit --url http://127.0.0.1:8350 --sample kernel6
--backends analytic,codegen --processes 1,2,4,8`` in another.

The names below load on first use, so a replica loads no router, fleet
launcher or client.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.admission": (
        "AdmissionQueue", "AdmissionRejected", "ClientRateLimiter",
        "DrainingError", "QueueFullError", "RateLimitedError",
        "RequestGateway", "TokenBucket",
    ),
    "repro.service.batcher": ("BatchPlan", "BatchWindow", "plan_batch"),
    "repro.service.client": ("ServiceClient", "ServiceClientError"),
    "repro.service.fleet": ("Fleet",),
    "repro.service.httpd": (
        "RequestTimeoutError", "ServiceHTTPServer", "make_server",
    ),
    "repro.service.router": (
        "RouterError", "ShardMap", "ShardRouter", "make_router_server",
    ),
    "repro.service.registry": (
        "ModelRecord", "ModelRegistry", "RegistryError",
    ),
    "repro.service.request": (
        "EvaluationRequest", "RequestError", "request_from_payload",
        "requests_from_payload",
    ),
    "repro.service.service": ("BatchResponse", "EvaluationService"),
})
