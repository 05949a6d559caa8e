"""The long-lived evaluation service: registry + batcher + sweep engine.

:class:`EvaluationService` is the process-resident object the HTTP
front end and the CLI both drive.  One instance owns

* a :class:`~repro.service.registry.ModelRegistry` (persistent models),
* an optional shared :class:`~repro.sweep.cache.ResultCache`
  (persistent results, shared with ``prophet sweep``),
* an executor choice (serial, or a process pool for wide batches).

``submit`` is the whole API: a list of
:class:`~repro.service.request.EvaluationRequest` in, one response per
request out, in order.  Responses are deterministic functions of the
request content (cache/coalescing metadata is reported alongside, never
mixed into the payload), so a client can byte-compare results across
submissions, executors, and service restarts.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.analysis import analysis_cache_stats
from repro.estimator.backends import (plan_cache_stats,
                                      prepared_cache_stats)
from repro.service.batcher import plan_batch
from repro.service.registry import ModelRecord, ModelRegistry
from repro.service.request import EvaluationRequest
from repro.sweep.cache import CacheStats, ResultCache
from repro.sweep.runner import run_jobs, validate_fault_knobs

#: Keys of a successful per-request result payload (the deterministic
#: part a client may byte-compare; metadata keys sit next to them).
RESULT_PAYLOAD_KEYS = ("predicted_time", "events", "trace_records",
                       "backend")


@dataclass
class BatchResponse:
    """Everything one ``submit`` call produced."""

    results: list[dict]              # one per request, in request order
    stats: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return all(r.get("status") == "ok" for r in self.results)

    def to_payload(self) -> dict:
        return {"results": self.results, "stats": self.stats}


class EvaluationService:
    """Serves batched model evaluations against a persistent registry."""

    def __init__(self, registry: ModelRegistry | str | Path,
                 cache: ResultCache | str | Path | None = None,
                 executor: str = "serial",
                 max_workers: int | None = None,
                 job_timeout: float | None = None,
                 max_retries: int = 0,
                 fault_plan=None,
                 instance_id: str | None = None,
                 durable: bool = False) -> None:
        self.registry = (registry if isinstance(registry, ModelRegistry)
                         else ModelRegistry(registry, durable=durable))
        self.cache = (cache if isinstance(cache, (ResultCache, type(None)))
                      else ResultCache(cache, durable=durable))
        # Replica identity: surfaced on /health and (via the router) on
        # every result, so a client can tell which fleet member served
        # it.  Defaults to a pid-derived name for ad-hoc processes.
        self.instance_id = instance_id or f"svc-{os.getpid()}"
        # "process" forks a pool per batch (the sweep runner's model):
        # workers receive the batch's model table once via the pool
        # initializer, so they never touch registry locks, and small
        # batches short-circuit the pool entirely.  "process-persistent"
        # reuses one pool across batches (workers lazy-fetch models they
        # have not seen and memoize them for every later batch).
        self.executor = executor
        self.max_workers = max_workers
        # Fault-tolerance knobs, forwarded to run_jobs per batch: a
        # per-job wall-clock deadline (pool executors), a transient
        # retry budget, and an optional fault plan (chaos tests only).
        # Checked here, so a bad value fails at start-up, not per batch.
        validate_fault_knobs(job_timeout, max_retries)
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        # Per-instance registry: several services can coexist in one
        # process (tests do this constantly), so lifetime counters like
        # batches_served must not share process-global state.  Layer
        # metrics (sim/estimator/sweep/cache) still land on the global
        # registry; ``metric_registries()`` exposes both for /metrics.
        self.metrics = obs.MetricsRegistry()
        # Concurrent batches share the memos and the result cache (all
        # thread-safe); only the *simulated-backend executor* is owned
        # exclusively.  run_jobs takes this lock around its executor
        # dispatch — and only when simulated work is pending — so a
        # batch of cache hits or analytic grid points never queues
        # behind another batch's slow simulation.
        self._dispatch_lock = threading.Lock()

    # -- ingest passthrough --------------------------------------------------

    def ingest_xml(self, text: str, label: str | None = None) -> ModelRecord:
        return self.registry.ingest_xml(text, label)

    def ingest_sample(self, kind: str,
                      label: str | None = None) -> ModelRecord:
        return self.registry.ingest_sample(kind, label)

    # -- evaluation ----------------------------------------------------------

    def submit(self, requests: Sequence[EvaluationRequest]
               ) -> BatchResponse:
        """Evaluate a batch; one response per request, in order.

        Safe to call from many threads at once: batches share the
        memos and the result cache, and only the simulated-backend
        executor dispatch is serialized (see ``_dispatch_lock``).
        """
        requests = list(requests)
        start = time.perf_counter()
        with obs.span("service.submit", requests=len(requests)):
            response = self._submit_body(requests)
        self.metrics.histogram(
            "service_submit_seconds",
            "Wall time of one submitted batch, end to end.",
            obs.LATENCY_BUCKETS_S).observe(time.perf_counter() - start)
        return response

    def _submit_body(self, requests: list[EvaluationRequest]
                     ) -> BatchResponse:
        plan = plan_batch(requests, self.registry)
        # Per-call accumulator: with batches running concurrently, a
        # global before/after snapshot would report other batches'
        # lookups as this one's.
        delta = CacheStats()
        sweep_result = run_jobs(plan.jobs, cache=self.cache,
                                executor=self.executor,
                                max_workers=self.max_workers,
                                dispatch_lock=self._dispatch_lock,
                                cache_stats=delta,
                                job_timeout=self.job_timeout,
                                max_retries=self.max_retries,
                                fault_plan=self.fault_plan)
        outcomes = list(sweep_result)  # index order == job order

        results: list[dict] = []
        seen_jobs: set[int] = set()
        for position, target in enumerate(plan.assignment):
            if target is None:
                results.append({"status": "error",
                                "error": plan.errors[position]})
                continue
            outcome = outcomes[target]
            coalesced = target in seen_jobs
            seen_jobs.add(target)
            if outcome.ok:
                results.append({
                    "status": "ok",
                    "predicted_time": outcome.predicted_time,
                    "events": outcome.events,
                    "trace_records": outcome.trace_records,
                    "backend": outcome.job.backend,
                    "model": outcome.job.model_hash,
                    "processes": outcome.job.params.processes,
                    "seed": outcome.job.seed,
                    "cached": outcome.cached,
                    "coalesced": coalesced,
                })
            else:
                # Failures keep their runner verdict ("error",
                # "timeout", "quarantined") so clients can distinguish
                # a hung evaluation from a broken model.
                results.append({"status": outcome.status,
                                "error": outcome.error,
                                "model": outcome.job.model_hash,
                                "backend": outcome.job.backend,
                                "coalesced": coalesced})

        self._counter("service_batches_total",
                      "Batches served by this service.").inc()
        self._counter("service_requests_total",
                      "Requests served by this service.").inc(
                          plan.request_count)
        self._counter("service_coalesced_total",
                      "Requests coalesced onto an identical sibling "
                      "within a batch.").inc(plan.coalesced_count)
        self._counter("service_plan_errors_total",
                      "Requests rejected at batch planning.").inc(
                          len(plan.errors))
        self.metrics.histogram(
            "service_batch_requests",
            "Requests per submitted batch.",
            obs.SIZE_BUCKETS).observe(plan.request_count)
        if plan.request_count:
            self.metrics.histogram(
                "service_coalesce_ratio",
                "Fraction of a batch's requests coalesced away.",
                obs.RATIO_BUCKETS).observe(
                    plan.coalesced_count / plan.request_count)
        stats = {
            "requests": plan.request_count,
            "unique_jobs": len(plan.jobs),
            "coalesced": plan.coalesced_count,
            "analytic_grid_groups": plan.analytic_grid_groups,
            "plan_errors": len(plan.errors),
            "cache_hits": delta.hits,
            "cache_misses": delta.misses,
            "executor": self.executor_name,
        }
        return BatchResponse(results=results, stats=stats)

    # -- introspection -------------------------------------------------------

    @property
    def executor_name(self) -> str:
        """A JSON-safe name for the executor (tests and the loadgen
        inject executor *objects*; stats payloads must stay JSON)."""
        if isinstance(self.executor, str):
            return self.executor
        return getattr(self.executor, "name",
                       type(self.executor).__name__)

    def _counter(self, name: str, help_text: str) -> obs.MetricFamily:
        return self.metrics.counter(name, help_text)

    # Lifetime counters read straight from the per-instance registry, so
    # /stats and /metrics can never disagree.

    @property
    def batches_served(self) -> int:
        return int(self._counter(
            "service_batches_total",
            "Batches served by this service.").value)

    @property
    def requests_served(self) -> int:
        return int(self._counter(
            "service_requests_total",
            "Requests served by this service.").value)

    @property
    def coalesced_total(self) -> int:
        return int(self._counter(
            "service_coalesced_total",
            "Requests coalesced onto an identical sibling "
            "within a batch.").value)

    def metric_registries(self) -> tuple:
        """Registries backing this service's ``/metrics`` payload.

        The per-instance registry first (service lifetime counters),
        then the process-global one (sim/estimator/sweep/cache layers).
        """
        return (self.metrics, obs.global_registry())

    def stats(self) -> dict:
        """Service-lifetime counters (the HTTP ``/stats`` payload)."""
        return {
            "instance": self.instance_id,
            "models": len(self.registry),
            "batches_served": self.batches_served,
            "requests_served": self.requests_served,
            "coalesced_total": self.coalesced_total,
            "cache": (self.cache.stats.snapshot().to_payload()
                      if self.cache is not None else None),
            # Pool workers keep their own memos in their own processes;
            # this process's counters would read as permanently cold
            # there, so only the serial executor reports them.
            "prepared_models": (prepared_cache_stats()
                                if self.executor == "serial" else None),
            # Analytic plans always run in this process (the grid path
            # never crosses the pool), so their memo is always honest.
            "analytic_plans": plan_cache_stats(),
            "executor": self.executor_name,
            # Static-analysis verdicts per stored model (warnings show
            # up here; errors never make it into the registry) plus the
            # in-process report memo.
            "analysis": {
                "reports": self.registry.analysis_summaries(),
                "memo": analysis_cache_stats(),
            },
        }

    def close(self) -> None:
        """Release executor resources.

        The persistent pool is module-shared; closing tears it down for
        this process (any concurrent user would simply re-create it on
        the next batch).
        """
        if self.executor == "process-persistent":
            from repro.sweep.runner import shutdown_shared_pool
            shutdown_shared_pool()


__all__ = ["BatchResponse", "EvaluationService", "RESULT_PAYLOAD_KEYS"]
