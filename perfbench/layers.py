"""Which public calls the traced run wraps, which layer each span belongs
to, and the per-layer metrics computed from the spans.

Each ``install_*`` function wraps the program's public functions and
methods for one process role:

* ``sweep`` — the process calling ``run_sweep`` (pool workers inherit
  the wrappers through fork);
* ``replica`` — a ``prophet serve`` process;
* ``router`` — the ``prophet route`` process;
* ``bench`` — the load generator's own ``ServiceClient`` calls.

Names are patched where the caller looks them up: a function imported
by name into another module (``run_jobs`` into ``repro.service.service``)
is wrapped in that module.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from perfbench.common import LEDGER_TOLERANCE, median
from perfbench.tracer import PARENT_HEADER, Span, SpanForest, Tracer, \
    current_span_id

#: Span name → ledger layer (roles refine a few, see :func:`layer_of`).
LAYER_OF_SPAN = {
    "root": "unattributed",
    "expand": "expand",
    "run_jobs": "sweep.runner",
    "execute_job": "sweep.runner",
    "executor.serial": "sweep.dispatch",
    "executor.pool": "sweep.dispatch",
    "evaluate_point": "estimator.backends",
    "evaluate_grid": "estimator.backends",
    "model_from_xml": "xmlio.parse",
    "assert_valid": "checker",
    "preflight.cfg": "analysis.preflight",
    "preflight.enumerate": "analysis.preflight",
    "preflight.match": "analysis.preflight",
    "prepare": "transform.prepare",
    "run_prepared": "estimator.run",
    "analytic.compile": "analytic.compile",
    "analytic.grid": "analytic.grid",
    "cache.get": "cache.get",
    "cache.put": "cache.put",
    "router.submit": "router.self",
    "router.ingest": "router.self",
    "gateway.submit": "admission",
    "service.submit": "service.submit",
    "plan_batch": "batcher.plan",
    "registry.resolve": "registry.resolve",
    "registry.ingest": "registry.ingest",
    "analysis.analyze": "analysis.ingest",
}


def layer_of(span: Span) -> str:
    if span.name.startswith("client."):
        return ("http.front_hop" if span.role == "bench"
                else "http.replica_hop")
    if span.name == "http.server":
        return "router.self" if span.role == "router" else "replica.http"
    return LAYER_OF_SPAN.get(span.name, span.name)


# -- installation -------------------------------------------------------------

def _install_evaluation(tracer: Tracer) -> None:
    """The sweep engine and estimator layers (every evaluating role)."""
    from repro.analysis import cfg, comm
    from repro.checker import ModelChecker
    from repro.estimator.analytic_plan import AnalyticPlan
    from repro.estimator.manager import PerformanceEstimator
    from repro.sweep import cache, runner
    from repro.xmlio import reader

    def expanded(jobs) -> dict:
        return {"points": len(jobs),
                "variants": len({job.model_hash for job in jobs})}

    def ran(result) -> dict:
        return {"events": result.events_processed,
                "ops": dict(result.trace_counts)}

    def prepare_mode(args, kwargs) -> dict:
        return {"mode": kwargs.get("mode", args[2] if len(args) > 2
                                   else "codegen")}

    tracer.wrap(runner, "expand", "expand", after=expanded)
    tracer.wrap(runner, "run_jobs", "run_jobs")
    tracer.wrap(runner, "execute_job", "execute_job")
    tracer.wrap(runner, "evaluate_point", "evaluate_point")
    tracer.wrap(runner, "evaluate_grid", "evaluate_grid")
    tracer.wrap(runner.SerialExecutor, "run", "executor.serial")
    tracer.wrap(runner.ProcessPoolExecutor, "run", "executor.pool")
    tracer.wrap(reader, "model_from_xml", "model_from_xml")
    tracer.wrap(ModelChecker, "assert_valid", "assert_valid")
    tracer.wrap(cfg, "build_model_cfg", "preflight.cfg")
    tracer.wrap(comm, "enumerate_traces", "preflight.enumerate")
    tracer.wrap(comm, "match_traces", "preflight.match")
    tracer.wrap(PerformanceEstimator, "prepare", "prepare",
                before=prepare_mode)
    tracer.wrap(PerformanceEstimator, "run_prepared", "run_prepared",
                after=ran)
    tracer.wrap(AnalyticPlan, "__init__", "analytic.compile")
    tracer.wrap(AnalyticPlan, "grid_makespans", "analytic.grid",
                before=lambda args, kwargs: {"points": len(args[1])})
    tracer.wrap(cache.ResultCache, "get", "cache.get",
                after=lambda payload: {"hit": payload is not None})
    tracer.wrap(cache.ResultCache, "put", "cache.put")


def _install_client(tracer: Tracer) -> None:
    """Client-side HTTP spans, with the span id sent to the callee."""
    from repro.service.client import ServiceClient
    tracer.wrap(ServiceClient, "evaluate", "client.evaluate")
    tracer.wrap(ServiceClient, "ingest_xml", "client.ingest")
    headers = ServiceClient._headers

    def with_parent(self, extra=None):
        result = headers(self, extra)
        parent = current_span_id()
        if parent is not None:
            result[PARENT_HEADER] = parent
        return result

    tracer.patch(ServiceClient, "_headers", with_parent)


def _install_server(tracer: Tracer) -> None:
    """Server-side handler spans, parented to the caller's span."""
    from repro.service.httpd import ServiceRequestHandler
    do_post = ServiceRequestHandler.do_POST

    def traced_post(handler) -> None:
        span, token = tracer.begin("http.server",
                                   handler.headers.get(PARENT_HEADER),
                                   remote=True, attrs={"path": handler.path})
        try:
            do_post(handler)
        finally:
            tracer.finish(span, token)

    tracer.patch(ServiceRequestHandler, "do_POST", traced_post)


def install_sweep(out_dir: Path) -> Tracer:
    tracer = Tracer("sweep", out_dir)
    _install_evaluation(tracer)
    tracer.capture_forks()
    return tracer


def install_replica(out_dir: Path) -> Tracer:
    import repro.analysis
    from repro.service import admission, registry, service
    tracer = Tracer("replica", out_dir)
    _install_evaluation(tracer)
    _install_server(tracer)
    tracer.wrap(admission.RequestGateway, "submit", "gateway.submit")
    tracer.wrap(service.EvaluationService, "submit", "service.submit")
    tracer.wrap(service, "plan_batch", "plan_batch")
    tracer.wrap(service, "run_jobs", "run_jobs")
    tracer.wrap(registry.ModelRegistry, "resolve", "registry.resolve")
    tracer.wrap(registry.ModelRegistry, "ingest_xml", "registry.ingest")
    tracer.wrap(repro.analysis, "analyze_model", "analysis.analyze")
    return tracer


def install_router(out_dir: Path) -> Tracer:
    from repro.service import router
    tracer = Tracer("router", out_dir)
    _install_server(tracer)
    _install_client(tracer)
    tracer.wrap(router.ShardRouter, "submit", "router.submit")
    tracer.wrap(router.ShardRouter, "ingest", "router.ingest")
    tracer.propagate_to_thread_pools()
    return tracer


def install_bench(out_dir: Path) -> Tracer:
    tracer = Tracer("bench", out_dir)
    _install_client(tracer)
    return tracer


INSTALLERS = {"replica": install_replica, "router": install_router}

#: Per-layer metrics the serving workload measures outside the spans
#: (router and service counters, the load generator's own record).
SERVE_COUNTERS = ("router.hedges", "router.failovers", "admission.rejected",
                  "batcher.coalesced", "loadgen.sent", "loadgen.completed",
                  "loadgen.late_p99_ms")


# -- metrics ------------------------------------------------------------------

def _p50_ms(values: list[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def layer_metrics(forest: SpanForest, variants: int) -> dict[str, float]:
    """Per-layer counts, self times and latencies from one traced run.

    Seconds are self times summed over every process (pool workers
    and servers included); ``*_ms_p50`` values are medians over the
    individual calls.  ``variants`` is the number of distinct models
    the workload evaluates (the useful share of parses and checks).
    """
    spans: dict[tuple[str, str], list[Span]] = defaultdict(list)
    for span in forest.spans:
        spans[span.name, span.role].append(span)
        spans[span.name, "*"].append(span)

    def named(name: str, role: str = "*") -> list[Span]:
        return spans.get((name, role), [])

    def self_s(*names: str) -> float:
        return sum(forest.self_s[span.id]
                   for name in names for span in named(name))

    def attr_sum(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in named(name))

    m: dict[str, float] = {}
    m["expand.s"] = self_s("expand")
    m["expand.variants"] = attr_sum("expand", "variants")
    for metric, name in (("xmlio.parse", "model_from_xml"),
                         ("checker", "assert_valid")):
        calls = len(named(name))
        m[f"{metric}.calls"] = calls
        m[f"{metric}.s"] = self_s(name)
        m[f"{metric}.useful_ratio"] = variants / calls if calls else 0.0
    m["analysis.preflight.calls"] = len(named("preflight.cfg"))
    m["analysis.preflight.s"] = self_s("preflight.cfg",
                                       "preflight.enumerate",
                                       "preflight.match")
    for mode in ("codegen", "interp"):
        prepared = [span for span in named("prepare")
                    if span.attrs.get("mode") == mode]
        m[f"transform.prepare.{mode}.calls"] = len(prepared)
        m[f"transform.prepare.{mode}.s"] = sum(forest.self_s[span.id]
                                               for span in prepared)
    m["analytic.compile.calls"] = len(named("analytic.compile"))
    m["analytic.compile.s"] = self_s("analytic.compile")
    m["analytic.grid.points"] = attr_sum("analytic.grid", "points")
    m["analytic.grid.s"] = self_s("analytic.grid")
    runs = named("run_prepared")
    run_s = self_s("run_prepared")
    events = attr_sum("run_prepared", "events")
    m["estimator.run.calls"] = len(runs)
    m["estimator.run.s"] = run_s
    m["estimator.run.events"] = events
    m["estimator.run.events_per_s"] = events / run_s if run_s else 0.0
    for kind in ("action", "send", "recv", "allreduce", "fork"):
        m[f"workload.ops.{kind}"] = sum(span.attrs.get("ops", {}).get(kind, 0)
                                        for span in runs)
    dispatch = named("executor.serial") + named("executor.pool")
    dispatch_s = sum(span.duration for span in dispatch)
    busy = sum(span.duration for span in named("execute_job"))
    workers = len({span.id.split(":")[0]
                   for span in named("execute_job", "worker")}) or 1
    m["sweep.dispatch.s"] = dispatch_s
    m["sweep.dispatch.busy_ratio"] = (busy / (workers * dispatch_s)
                                      if dispatch_s else 0.0)
    m["sweep.runner.self_s"] = self_s("run_jobs", "execute_job")
    for op in ("get", "put"):
        m[f"cache.{op}.calls"] = len(named(f"cache.{op}"))
        m[f"cache.{op}.s"] = self_s(f"cache.{op}")
    gets = named("cache.get")
    m["cache.hit_ratio"] = (sum(1 for span in gets if span.attrs.get("hit"))
                            / len(gets) if gets else 0.0)
    m["http.front_hop.ms_p50"] = _p50_ms(
        [forest.self_s[s.id] for s in named("client.evaluate", "bench")])
    m["http.replica_hop.ms_p50"] = _p50_ms(
        [forest.self_s[s.id] for s in named("client.evaluate", "router")])
    m["router.submit.ms_p50"] = _p50_ms(
        [span.duration for span in named("router.submit")])
    router_self: dict[str, float] = defaultdict(float)
    for span in named("router.submit") + named("http.server", "router"):
        router_self[forest.root_of[span.id].id] += forest.self_s[span.id]
    submitted = {forest.root_of[span.id].id
                 for span in named("router.submit")}
    m["router.self.ms_p50"] = _p50_ms(
        [router_self[root] for root in submitted])
    m["router.forwards"] = len(named("client.evaluate", "router"))
    m["admission.wait.ms_p50"] = _p50_ms(
        [forest.self_s[span.id] for span in named("gateway.submit")])
    m["batcher.plan.ms_p50"] = _p50_ms(
        [span.duration for span in named("plan_batch")])
    m["registry.resolve.calls"] = len(named("registry.resolve"))
    m["registry.ingest.calls"] = len(named("registry.ingest"))
    m["registry.ingest.ms_p50"] = _p50_ms(
        [span.duration for span in named("registry.ingest")])
    m["service.submit.ms_p50"] = _p50_ms(
        [span.duration for span in named("service.submit")])
    m["service.run_jobs.ms_p50"] = _p50_ms(
        [span.duration for span in named("run_jobs", "replica")])
    return m


def ledger_metrics(forest: SpanForest, wall_s: float
                   ) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """The ledger rows (weighted self seconds per layer), the accounting
    metrics — the unattributed share of the traced wall, and how far
    layers plus remainder miss it — and the error when they miss it by
    more than ``LEDGER_TOLERANCE``."""
    rows = forest.ledger(layer_of)
    miss = abs(sum(rows.values()) - wall_s) / wall_s
    errors = ([f"the ledger misses the traced wall by {miss:.1%}"]
              if miss > LEDGER_TOLERANCE else [])
    return rows, {
        "trace.unattributed_ratio": rows.get("unattributed", 0.0) / wall_s,
        "trace.ledger_error_ratio": miss,
    }, errors


def format_ledger(rows: dict[str, float], wall_s: float) -> str:
    lines = [f"{'layer':<22} {'seconds':>10} {'share':>7}"]
    for layer, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<22} {seconds:>10.4f} "
                     f"{seconds / wall_s:>7.1%}")
    lines.append(f"{'(sum)':<22} {sum(rows.values()):>10.4f} "
                 f"{sum(rows.values()) / wall_s:>7.1%}")
    lines.append(f"{'traced wall':<22} {wall_s:>10.4f}")
    return "\n".join(lines)
