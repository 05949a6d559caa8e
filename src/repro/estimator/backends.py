"""Uniform evaluation backends — one call, any representation.

The paper's workflow answers "what if" questions by evaluating the same
model under many system parameters and representations.  The estimator
exposes three evaluable representations with different call shapes
(:meth:`PerformanceEstimator.estimate` for the simulated paths,
:func:`repro.estimator.analytic.evaluate_analytically` for the hybrid
closed form).  This module normalizes them behind one function,
:func:`evaluate_point`, returning a plain-dict payload the sweep engine
can cache, compare, and export.

Backends:

* ``"codegen"`` — simulate the generated-Python representation (the
  paper's machine-efficient path);
* ``"interp"`` — simulate by direct UML-tree interpretation (the slow
  baseline);
* ``"analytic"`` — the closed-form hybrid bound (no event calendar).

A module-level prepared-model memo keyed by the model's structural hash
amortizes the transform cost when one process evaluates the same model
at many parameter points (exactly the sweep access pattern).  Every
entry point accepts a :class:`~repro.transform.algorithm.ModelIR` in
place of the model: the sweep runner lowers each model once and hands
that IR to every backend; a plain model gets a fresh IR per transform.

For the analytic backend the same idea goes one step further:
:func:`evaluate_grid` compiles the model's cost recursion once into an
:class:`~repro.estimator.analytic_plan.AnalyticPlan` (memoized by
structural hash, like the prepared-model memo) and replays it across an
entire grid of ``(SystemParameters, NetworkConfig, overrides)`` points
in one pass — NumPy-vectorized over the network axis where the control
flow allows, tight-loop plan replay where it doesn't.  Payloads are
byte-identical to per-point :func:`evaluate_point` calls.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro import obs
from repro.errors import EstimatorError
from repro.estimator.analytic_plan import AnalyticPlan, GridPoint
from repro.estimator.manager import PerformanceEstimator, PreparedModel
from repro.estimator.trace import validate_trace_tier
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.transform.algorithm import ModelIR, model_of
from repro.uml.hashing import model_structural_hash
from repro.uml.model import Model
from repro.util.lru import LRUMap

#: Names accepted by :func:`evaluate_point`, in canonical order.
BACKENDS: tuple[str, ...] = ("analytic", "codegen", "interp")

#: Simulated backends — those that run the event calendar.
SIMULATED_BACKENDS: tuple[str, ...] = ("codegen", "interp")

#: Bound on the prepared-model memo (models are small; this only guards
#: against unbounded growth in very long-lived processes).
_PREPARED_LIMIT = 64

#: (model structural hash, backend) → PreparedModel; process-local.
#: LRU-evicting: a long-lived service rotating through more models than
#: the limit loses only the coldest entry, never the whole working set.
_PREPARED: LRUMap[tuple[str, str], PreparedModel] = LRUMap(_PREPARED_LIMIT)

#: model structural hash → compiled AnalyticPlan; process-local, same
#: eviction story as the prepared-model memo.
_PLANS: LRUMap[str, AnalyticPlan] = LRUMap(_PREPARED_LIMIT)


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise EstimatorError(
            f"unknown evaluation backend {backend!r} "
            f"(expected one of {', '.join(BACKENDS)})")
    return backend


def clear_prepared_cache() -> None:
    """Drop the process-local prepared-model memo (tests use this)."""
    _PREPARED.clear()


def prepared_cache_stats() -> dict:
    """Counters of the prepared-model memo (service /stats payload)."""
    return _PREPARED.stats()


def clear_plan_cache() -> None:
    """Drop the process-local analytic-plan memo (tests/benchmarks)."""
    _PLANS.clear()


def plan_cache_stats() -> dict:
    """Counters of the analytic-plan memo (service /stats payload)."""
    return _PLANS.stats()


def _memo_outcomes(name: str, what: str):
    """Hit/miss counter pair for one of the process-local memos."""
    family = obs.counter(name, f"Lookups of the {what}, by outcome.",
                         labelnames=("outcome",))
    return family.labels("hit"), family.labels("miss")


def _prepared(model: Model | ModelIR, backend: str,
              model_hash: str | None = None) -> PreparedModel:
    key = (model_hash or model_structural_hash(model_of(model)), backend)
    hit, miss = _memo_outcomes("prepared_cache_total",
                               "prepared-model memo")
    prepared = _PREPARED.get(key)
    if prepared is None:
        miss.inc()
        prepared = PerformanceEstimator().prepare(model, mode=backend)
        _PREPARED.put(key, prepared)
    else:
        hit.inc()
    return prepared


def evaluate_point(model: Model | ModelIR, backend: str,
                   params: SystemParameters | None = None,
                   network: NetworkConfig | None = None,
                   seed: int = 0,
                   check: bool = True,
                   model_hash: str | None = None,
                   trace: str = "summary") -> dict:
    """Evaluate one (model, machine, backend, seed) point.

    Returns a deterministic, JSON-serializable payload::

        {"predicted_time": float,   # makespan in seconds
         "events": int,             # simulation events (0 for analytic)
         "trace_records": int,      # trace length (0 for analytic)
         "backend": str}

    Determinism matters: the sweep engine asserts that serial and
    parallel executions of the same grid produce byte-identical tables,
    and caches payloads by content key.  Pass ``model_hash`` when the
    caller already computed the structural hash (avoids re-hashing).

    ``trace`` selects the recording tier for the simulated backends
    (:data:`repro.estimator.trace.TRACE_TIERS`).  ``predicted_time``
    and ``events`` are byte-identical across tiers, and so is
    ``trace_records``: ``summary`` keeps per-kind counts instead of the
    records, so the two tiers share result-cache entries.  The payload
    shows counts only, so the default is ``summary``.
    """
    validate_backend(backend)
    validate_trace_tier(trace)
    if check:
        from repro.checker import ModelChecker
        ModelChecker().assert_valid(model_of(model))
    if backend == "analytic":
        from repro.estimator.analytic import evaluate_analytically
        with obs.span("estimator.run", backend=backend,
                      model=model_of(model).name):
            start = time.perf_counter()
            result = evaluate_analytically(model, params, network)
            obs.histogram(
                "estimator_evaluate_seconds",
                "Wall time of one backend evaluation.",
                obs.LATENCY_BUCKETS_S, labelnames=("backend",),
            ).labels(backend).observe(time.perf_counter() - start)
        obs.counter("estimator_runs_total",
                    "Completed estimator evaluations.",
                    labelnames=("backend",)).labels(backend).inc()
        return {
            "predicted_time": result.makespan,
            "events": 0,
            "trace_records": 0,
            "backend": backend,
        }
    estimator = PerformanceEstimator(params, network, seed, trace)
    prepared = _prepared(model, backend, model_hash)
    result = estimator.run_prepared(prepared)
    return {
        "predicted_time": result.total_time,
        "events": result.events_processed,
        "trace_records": result.trace_records,
        "backend": backend,
    }


def analytic_plan(model: Model | ModelIR,
                  model_hash: str | None = None) -> AnalyticPlan:
    """The memoized compiled plan for ``model`` (analytic backend).

    Keyed by the model's structural hash — like the prepared-model memo
    — so a sweep, the batch service, and direct callers all share one
    compilation per model structure per process.
    """
    key = model_hash or model_structural_hash(model_of(model))
    hit, miss = _memo_outcomes("plan_cache_total",
                               "compiled analytic-plan memo")
    plan = _PLANS.get(key)
    if plan is None:
        miss.inc()
        with obs.span("analytic.compile", model=model_of(model).name):
            start = time.perf_counter()
            plan = AnalyticPlan(model)
            obs.histogram(
                "estimator_prepare_seconds",
                "Wall time of one model transformation (prepare).",
                obs.LATENCY_BUCKETS_S, labelnames=("backend",),
            ).labels("analytic").observe(time.perf_counter() - start)
        _PLANS.put(key, plan)
    else:
        hit.inc()
    return plan


def evaluate_grid(model: Model | ModelIR, points: Sequence[GridPoint],
                  check: bool = True,
                  model_hash: str | None = None) -> list[dict]:
    """Evaluate a whole grid of analytic points in one pass.

    Compiles (or reuses) the model's :class:`AnalyticPlan` and replays
    it across ``points``, returning one payload per point, in order —
    each byte-identical to what ``evaluate_point(model, "analytic",
    point.params, point.network, point.seed)`` would return for the
    equivalent model variant (``point.overrides`` re-initialize declared
    variables exactly like :func:`repro.sweep.grid.apply_overrides`).

    The model is checked once, not once per point; any evaluation error
    raises (callers that need per-point error capture — the sweep
    runner — fall back to per-point evaluation to localize it).
    """
    if check:
        from repro.checker import ModelChecker
        ModelChecker().assert_valid(model_of(model))
    plan = analytic_plan(model, model_hash)
    obs.counter("analytic_grid_groups_total",
                "Grid-compiled analytic evaluations (one per "
                "model-structure group).").inc()
    obs.histogram("analytic_grid_group_points",
                  "Points evaluated by one grid-compiled replay.",
                  obs.SIZE_BUCKETS).observe(len(points))
    with obs.span("analytic.grid", model=plan.model.name,
                  points=len(points)):
        start = time.perf_counter()
        makespans = plan.grid_makespans(points)
        obs.histogram(
            "analytic_grid_seconds",
            "Wall time of one grid-compiled replay over a point group.",
            obs.LATENCY_BUCKETS_S).observe(time.perf_counter() - start)
    return [{
        "predicted_time": makespan,
        "events": 0,
        "trace_records": 0,
        "backend": "analytic",
    } for makespan in makespans]
