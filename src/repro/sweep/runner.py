"""Sweep execution: cache lookup, pluggable executors, error capture.

:func:`run_sweep` is the engine's entry point::

    from repro.sweep import ResultCache, make_spec, run_sweep

    spec = make_spec(model, processes=[1, 2, 4, 8],
                     backends=["analytic", "codegen"])
    result = run_sweep(spec, cache=ResultCache(".prophet-cache"),
                       executor="process")

Execution contract:

* jobs run in deterministic grid order (or are served from the cache);
  results always come back in that order, so serial and process-pool
  sweeps are byte-identical;
* one failing point never kills the sweep — the exception is captured
  as that job's result and every other point still runs;
* successful payloads are written to the content-addressed cache, so a
  repeated sweep is served from disk instead of re-simulated.

Dispatch is ship-once: a sweep's model XML travels to each pool worker
exactly one time (via the pool initializer) and jobs cross the pickle
boundary stripped of their XML, one future per job, two in flight per
worker (:class:`~repro.sweep.resilient.ResilientDispatcher` is the one
pool dispatch path).  A worker that still misses a model — possible on
the shared persistent pool, whose workers outlive any one sweep —
answers ``need_model`` and the dispatcher re-sends just that job with
the XML attached (the lazy-fetch fallback).

Front end once per model: a ``run_jobs`` call *resolves* each distinct
model it runs in this process at most once — parse, check, lower to
the :class:`~repro.transform.algorithm.ModelIR` — and the analytic
grid, the pre-flight and the serial executor all read that one
resolution (the IR feeds every backend's transform and the analyzer's
CFG).  A model that fails to resolve fails each of its jobs with the
same ``ExcType: message``.  Resolutions live only for the call; a
small process-local memo keyed by structural hash carries models
across calls (pool workers, the persistent pool, a service's batches),
and the prepared-model memo in :mod:`repro.estimator.backends`
likewise amortizes the transform.

``trace`` selects the estimator's recording tier for the simulated
backends (default ``"summary"`` — identical payloads to ``"full"``,
none of the per-record allocation).

Analytic jobs take a different road entirely: cache misses are grouped
by structural hash and dispatched through the grid-compiled plan path
(:func:`repro.estimator.backends.evaluate_grid`) in this process — the
whole group shares one compilation and one vectorized replay, and the
per-point payloads (and cache entries) are byte-identical to
``evaluate_point``'s.  Closed-form points are so cheap that shipping
them to a pool only pays pickling tax, which feeds the pool floor: a
fresh ``process`` pool is only forked when at least
:data:`MIN_POOL_JOBS` *simulated* jobs are pending (analytic jobs never
justify pool startup), otherwise the sweep silently runs serial.
"""

from __future__ import annotations

import concurrent.futures
import inspect
import os
import random
import threading
import time
from typing import Callable, Iterable, Sequence

from repro import faults, obs
from repro.errors import ProphetError
from repro.estimator.backends import (
    SIMULATED_BACKENDS,
    evaluate_grid,
    evaluate_point,
)
from repro.estimator.analytic_plan import GridPoint
from repro.estimator.trace import validate_trace_tier
from repro.sweep.cache import CacheStats, ResultCache
from repro.sweep.campaign import TERMINAL_STATUSES, Campaign, \
    campaign_fingerprint
from repro.sweep.grid import expand
from repro.sweep.resilient import ResilientDispatcher, RetryPolicy, \
    terminate_pool_workers
from repro.sweep.results import JobResult, SweepResult
from repro.sweep.spec import SweepJob, SweepSpec
from repro.transform.algorithm import ModelIR
from repro.util.lru import LRUMap

#: Payload keys every cached/executed result must carry; cache entries
#: missing any of them are treated as corrupt and re-run.
PAYLOAD_KEYS = ("predicted_time", "events", "trace_records")

#: Worker-local memo: model structural hash → resolved ModelIR (parsed,
#: checker-validated, lowered).  It carries models *across* calls — a
#: pool worker's successive jobs, the persistent pool's long-lived
#: workers, a service's successive batches.  Within one ``run_jobs``
#: call every model is resolved once whatever this memo holds (see
#: :func:`_job_model`).  LRU-evicting so a worker cycling through many
#: variants keeps its recent ones instead of dropping everything.
_WORKER_MODELS_LIMIT = 32
_WORKER_MODELS: LRUMap[str, ModelIR] = LRUMap(_WORKER_MODELS_LIMIT)

#: One ``run_jobs`` call's resolutions: structural hash → the model's
#: IR, or the error its resolution raised.
Resolutions = dict[str, "ModelIR | ProphetError"]

#: Worker-local model table: structural hash → XML, shipped once per
#: worker by the pool initializer instead of once per job.
_WORKER_XML: dict[str, str] = {}


def _pool_initializer(xml_by_hash: dict[str, str],
                      fault_payload: dict | None = None) -> None:
    """Install the sweep's model table (and any armed fault plan) in a
    fresh pool worker; marks the process as a worker so process-killing
    faults know they may actually fire here."""
    _WORKER_XML.clear()
    _WORKER_XML.update(xml_by_hash)
    faults.mark_worker()
    faults.install(faults.FaultPlan.from_payload(fault_payload)
                   if fault_payload is not None else None)


def clear_worker_memos() -> None:
    """Undo the pool initializer in this process: drop the model memo
    and shipped table, disarm fault injection, and unmark the worker
    flag (tests/benchmarks use this to measure genuinely cold runs —
    and to keep an in-process ``_pool_initializer`` call from letting a
    later kill fault take down the host process)."""
    _WORKER_MODELS.clear()
    _WORKER_XML.clear()
    faults.install(None)
    faults.unmark_worker()


def _resolve(xml: str) -> ModelIR:
    """A model's front end: parse, check, and lower to the IR that every
    backend and the pre-flight share."""
    from repro.checker import ModelChecker
    from repro.transform.algorithm import build_ir
    from repro.xmlio.reader import model_from_xml
    obs.counter("model_resolutions_total",
                "Models parsed, checked and lowered to IR by the sweep "
                "runner: at most one per distinct model per run_jobs "
                "call.").inc()
    model = model_from_xml(xml)
    ModelChecker().assert_valid(model)
    return build_ir(model)


def _job_model(job: SweepJob, models: Resolutions) -> ModelIR | None:
    """The resolved model for ``job``, or ``None`` if this process has
    neither the XML nor a memoized resolution (persistent-pool miss).

    ``models`` is the calling ``run_jobs``' own table: each model is
    resolved at most once per call, however many models the call holds,
    and an invalid one re-raises its first error for every job without
    being parsed again."""
    resolved = models.get(job.model_hash)
    if resolved is None:
        resolved = _WORKER_MODELS.get(job.model_hash)
        if resolved is None:
            xml = job.model_xml or _WORKER_XML.get(job.model_hash)
            if xml is None:
                return None
            try:
                resolved = _resolve(xml)
            except ProphetError as exc:
                resolved = exc
            else:
                _WORKER_MODELS.put(job.model_hash, resolved)
        models[job.model_hash] = resolved
    if isinstance(resolved, ProphetError):
        raise resolved.with_traceback(None)
    return resolved


def execute_job(job: SweepJob, trace: str = "full",
                models: Resolutions | None = None) -> dict:
    """Evaluate one point; never raises.

    Returns ``{"status": "ok", ...payload}``, ``{"status": "error",
    "error": "ExcType: message"}``, or ``{"status": "need_model"}`` when
    the job arrived without XML and this worker has no copy of the model
    (the runner then re-sends the job with the XML attached).
    ``{"status": "transient", "error": ...}`` marks a *retryable*
    failure — an injected :class:`~repro.faults.TransientFault` or a
    worker ``MemoryError`` — which the retry policy re-dispatches
    (executors without one report it as a plain error).
    ``models`` is the calling ``run_jobs``' resolution table (see
    :func:`_job_model`).  Module-level (not a closure) so the
    process-pool executor can pickle it.
    """
    try:
        faults.maybe_inject(job.index)
        ir = _job_model(job, {} if models is None else models)
        if ir is None:
            return {"status": "need_model",
                    "model_hash": job.model_hash}
        payload = evaluate_point(
            ir, job.backend, job.params, job.network, job.seed,
            check=False, model_hash=job.model_hash, trace=trace)
        return {"status": "ok", **payload}
    except (faults.TransientFault, MemoryError) as exc:
        return {"status": "transient",
                "error": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:  # noqa: BLE001 — per-job capture by design
        return {"status": "error",
                "error": f"{type(exc).__name__}: {exc}"}


#: Pre-flight budgets: per-rank program points / comm events the static
#: matcher may spend proving a failed job doomed; past them it claims
#: nothing and the job keeps the failure its run reported.
PREFLIGHT_OP_BUDGET = 50_000
PREFLIGHT_EVENT_CAP = 2_000

#: Pre-flight verdicts per (model hash, processes, eager threshold):
#: ``""`` for no proven failure, else the job's diagnostic.
_PREFLIGHT_MEMO: LRUMap = LRUMap(capacity=256)


def clear_preflight_memo() -> None:
    """Drop the pre-flight verdict memo (tests measure cold screens)."""
    _PREFLIGHT_MEMO.clear()


def _preflight_key(job: SweepJob) -> tuple:
    return (job.model_hash, job.params.processes,
            job.network.eager_threshold)


def _preflight_verdict(job: SweepJob, models: Resolutions,
                       cfgs: dict) -> str | None:
    """The diagnostic that explains ``job``'s failure, or ``None``.

    Only *proven* failures give one: an exact communication match that
    is guaranteed to deadlock, or an exact trace that reaches an
    out-of-range peer.  Ambiguous, inexact, or budget-exceeding
    analyses return ``None`` — the simulation's own error stands.  So
    does a model that fails to resolve: its executor reported the
    resolution error, exactly as with the pre-flight off.  ``cfgs``
    holds the call's CFGs by model hash, one per model whatever the
    process counts and eager thresholds asked of it.
    """
    key = _preflight_key(job)
    cached = _PREFLIGHT_MEMO.get(key)
    if cached is not None:
        return cached or None  # "" encodes a clean verdict
    obs.counter("sweep_preflight_verdicts_total",
                "Pre-flight verdicts computed (memo misses); only "
                "simulated jobs that did not end ok ask for one.").inc()
    try:
        from repro.analysis.cfg import build_model_cfg
        from repro.analysis.comm import enumerate_traces, match_traces
        cfg = cfgs.get(job.model_hash)
        if cfg is None:
            ir = _job_model(job, models)
            if ir is None:
                return None
            cfg = cfgs[job.model_hash] = build_model_cfg(ir)
        traces = enumerate_traces(cfg, job.params.processes,
                                  op_budget=PREFLIGHT_OP_BUDGET,
                                  event_cap=PREFLIGHT_EVENT_CAP)
        match = match_traces(traces, job.network.eager_threshold)
    except Exception:  # noqa: BLE001 — the verdict must never fail a sweep
        _PREFLIGHT_MEMO.put(key, "")
        return None
    verdict = ""
    if match.guaranteed_deadlock:
        site = match.blocked[0]
        verdict = (f"preflight: guaranteed deadlock at "
                   f"{job.params.processes} process(es) — rank "
                   f"{site.pid} blocked at {site.event.site()}: "
                   f"{site.why}")
    elif match.exact and match.range_errors:
        event, message = match.range_errors[0]
        verdict = (f"preflight: {message} at {event.site()} with "
                   f"{job.params.processes} process(es)")
    _PREFLIGHT_MEMO.put(key, verdict)
    return verdict or None


#: The pool floor: fewest pending *simulated* jobs that justify forking
#: a fresh process pool.  Below this, pool startup dwarfs the work (the
#: ``cold_sweep_3scenario_pool2`` benchmark measured 0.834× serial) and
#: ``run_jobs`` silently runs serial instead.  Analytic jobs never
#: count: they are grid-dispatched in-process.
MIN_POOL_JOBS = 16


def pool_dispatch(executor: str | object, simulated_jobs: int):
    """The executor actually used for a batch of pending jobs.

    Only the fresh-pool ``"process"`` executor is downgraded: the
    persistent pool amortizes its startup across batches, the serial
    executor has nothing to downgrade to, and custom executor objects
    (a ``ProcessPoolExecutor`` instance forces a pool) are the caller's
    explicit choice.
    """
    if executor == "process" and simulated_jobs < MIN_POOL_JOBS:
        return "serial"
    return executor


def _run_analytic_grid(jobs: Sequence[SweepJob], trace: str,
                       models: Resolutions
                       ) -> tuple[dict[int, dict], int]:
    """Evaluate analytic cache misses through the compiled grid path.

    Jobs are grouped by structural hash; each group compiles (or
    reuses) one :class:`~repro.estimator.analytic_plan.AnalyticPlan`
    and replays it across the group's parameter points in one pass.
    Any failure inside a group falls back to per-point
    :func:`execute_job` calls, which localizes the error to the points
    that actually fail and reproduces the classic error strings
    exactly.  Returns ``(outcomes by job index, group count)``.
    """
    outcomes: dict[int, dict] = {}
    groups: dict[str, list[SweepJob]] = {}
    for job in jobs:
        groups.setdefault(job.model_hash, []).append(job)
    for model_hash, group in groups.items():
        try:
            ir = _job_model(group[0], models)
            if ir is None:
                raise ProphetError(
                    f"model {model_hash[:12]} unavailable in this "
                    "process")
            points = [GridPoint(job.params, job.network, seed=job.seed)
                      for job in group]
            payloads = evaluate_grid(ir, points, check=False,
                                     model_hash=model_hash)
        except Exception:  # noqa: BLE001 — per-job capture by design
            for job in group:
                outcomes[job.index] = execute_job(job, trace, models)
            continue
        for job, payload in zip(group, payloads):
            outcomes[job.index] = {"status": "ok", **payload}
    return outcomes, len(groups)


def _job_seconds():
    return obs.histogram(
        "sweep_job_seconds",
        "Wall time of one sweep point evaluated in this process.",
        obs.LATENCY_BUCKETS_S, labelnames=("backend",))


class SerialExecutor:
    """Run jobs one after another in this process (the default).

    A :class:`~repro.sweep.resilient.RetryPolicy` arms in-process
    retries with backoff for transient outcomes; a
    :class:`~repro.faults.FaultPlan` is installed around the loop
    (process-killing faults degrade to transients here — there is no
    worker to kill).  Per-job deadlines need a killable worker and are
    therefore a pool-executor feature; serial runs ignore them.
    """

    name = "serial"

    def __init__(self, policy: RetryPolicy | None = None,
                 fault_plan: "faults.FaultPlan | None" = None) -> None:
        self.policy = policy or RetryPolicy()
        self.fault_plan = fault_plan
        self._rng = None

    def _run_one(self, job: SweepJob, trace: str,
                 models: Resolutions | None) -> dict:
        if self._rng is None:
            self._rng = random.Random(self.policy.seed)
        attempts = 0
        while True:
            attempts += 1
            outcome = execute_job(job, trace, models)
            if outcome.get("status") != "transient":
                break
            if attempts > self.policy.max_retries:
                outcome = {"status": "error",
                           "error": (f"{outcome.get('error')} (gave up "
                                     f"after {attempts} attempt(s))")}
                break
            obs.counter(
                "sweep_job_retries_total",
                "Job re-dispatches after transient failures or pool "
                "breaks.").inc()
            time.sleep(self.policy.backoff_s(attempts, self._rng))
        outcome.setdefault("attempts", attempts)
        return outcome

    def run(self, jobs: Sequence[SweepJob], trace: str = "full",
            on_outcome: Callable[[SweepJob, dict], None] | None = None,
            models: Resolutions | None = None) -> list[dict]:
        if not jobs:
            return []
        histogram = _job_seconds()
        outcomes = []
        installed_before = faults.installed()
        if self.fault_plan is not None:
            faults.install(self.fault_plan)
        try:
            for job in jobs:
                with obs.span("sweep.job", backend=job.backend,
                              index=job.index):
                    start = time.perf_counter()
                    outcome = self._run_one(job, trace, models)
                    histogram.labels(job.backend).observe(
                        time.perf_counter() - start)
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(job, outcome)
        finally:
            if self.fault_plan is not None:
                faults.install(installed_before)
        return outcomes


# -- shared persistent pool ---------------------------------------------------

#: Module-level pool reused across ``run_sweep`` calls (the
#: ``process-persistent`` executor).  Service/batcher traffic arrives as
#: many small batches; forking a pool per batch would dwarf the work.
#: Guarded by a lock: services run behind a threading HTTP server, and
#: an unsynchronized check-then-create would leak a whole worker pool.
_SHARED_POOL: concurrent.futures.ProcessPoolExecutor | None = None
_SHARED_POOL_WORKERS: int | None = None
_SHARED_POOL_LOCK = threading.Lock()


def _shared_pool(max_workers: int | None
                 ) -> concurrent.futures.ProcessPoolExecutor:
    global _SHARED_POOL, _SHARED_POOL_WORKERS
    with _SHARED_POOL_LOCK:
        if (_SHARED_POOL is not None
                and _SHARED_POOL_WORKERS != max_workers):
            _SHARED_POOL.shutdown()
            _SHARED_POOL = None
        if _SHARED_POOL is None:
            _SHARED_POOL = concurrent.futures.ProcessPoolExecutor(
                max_workers=max_workers)
            _SHARED_POOL_WORKERS = max_workers
        return _SHARED_POOL


def _recycle_shared_pool(pool) -> None:
    """Kill ``pool``'s workers and forget it if it is still the shared
    one (a replacement another thread already installed is left alone)."""
    global _SHARED_POOL, _SHARED_POOL_WORKERS
    with _SHARED_POOL_LOCK:
        if _SHARED_POOL is pool:
            _SHARED_POOL = None
            _SHARED_POOL_WORKERS = None
    terminate_pool_workers(pool)


def shutdown_shared_pool() -> None:
    """Tear down the persistent pool (tests; service shutdown)."""
    global _SHARED_POOL, _SHARED_POOL_WORKERS
    with _SHARED_POOL_LOCK:
        pool, _SHARED_POOL = _SHARED_POOL, None
        _SHARED_POOL_WORKERS = None
    if pool is not None:
        pool.shutdown()


class ProcessPoolExecutor:
    """Run jobs on a ``concurrent.futures`` process pool.

    Ship-once dispatch: the sweep's model table travels to each worker
    via the pool initializer, and jobs, stripped of their XML, go out
    one future each through the sliding window of
    :class:`~repro.sweep.resilient.ResilientDispatcher`, which also
    enforces any deadline, retry policy and quarantine.  Outcomes come
    back in job order regardless of completion order.

    With ``persistent=True`` the module-level shared pool is (re)used
    instead of forking a fresh one; its workers may predate this sweep,
    so any model they miss is fetched lazily via the ``need_model``
    round-trip and memoized for every later batch.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None,
                 persistent: bool = False,
                 job_timeout: float | None = None,
                 policy: RetryPolicy | None = None,
                 fault_plan: "faults.FaultPlan | None" = None) -> None:
        self.max_workers = max_workers
        self.persistent = persistent
        self.job_timeout = job_timeout
        self.policy = policy
        self.fault_plan = fault_plan
        if persistent and fault_plan is not None:
            raise ProphetError(
                "fault injection needs fresh pool workers (the plan "
                "ships via the pool initializer, which never runs for "
                "the persistent pool's existing workers); use the "
                "'process' executor")
        if persistent:
            self.name = "process-persistent"

    def run(self, jobs: Sequence[SweepJob], trace: str = "full",
            on_outcome: Callable[[SweepJob, dict], None] | None = None
            ) -> list[dict]:
        if not jobs:
            return []
        if self.persistent:
            # Its workers predate the batch: they rely purely on the
            # need_model lazy fetch.
            def acquire():
                return _shared_pool(self.max_workers)

            recycle = _recycle_shared_pool
        else:
            table = {job.model_hash: job.model_xml
                     for job in jobs if job.model_xml}
            payload = (self.fault_plan.to_payload()
                       if self.fault_plan is not None else None)

            def acquire():
                return concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_pool_initializer,
                    initargs=(table, payload))

            recycle = terminate_pool_workers
        # ``execute_job`` is looked up per call, not bound at import:
        # a caller that wraps the module-level name (a tracer) reaches
        # forked workers too.
        dispatcher = ResilientDispatcher(
            acquire=acquire, recycle=recycle, execute=execute_job,
            workers=self.max_workers or os.cpu_count() or 1,
            job_timeout=self.job_timeout, policy=self.policy,
            trace=trace, on_outcome=on_outcome)
        with obs.span("sweep.pool_dispatch", executor=self.name,
                      jobs=len(jobs)):
            start = time.perf_counter()
            try:
                outcomes = dispatcher.run(jobs)
            finally:
                pool = dispatcher.release()
                if pool is not None and not self.persistent:
                    pool.shutdown()
            obs.histogram(
                "sweep_pool_dispatch_seconds",
                "Wall time of one pool dispatch (ship + evaluate + "
                "collect).",
                obs.LATENCY_BUCKETS_S).observe(
                time.perf_counter() - start)
        return outcomes


def make_executor(executor: str | object,
                  max_workers: int | None = None,
                  job_timeout: float | None = None,
                  policy: RetryPolicy | None = None,
                  fault_plan: "faults.FaultPlan | None" = None):
    """Resolve an executor name (or pass an object with ``.run`` through).

    The fault-tolerance knobs configure the built-in executors; custom
    executor objects are the caller's explicit choice and are passed
    through untouched (their ``run`` may still accept ``trace`` and
    ``on_outcome``, detected per call).
    """
    if isinstance(executor, str):
        if executor == "serial":
            return SerialExecutor(policy=policy, fault_plan=fault_plan)
        if executor == "process":
            return ProcessPoolExecutor(max_workers,
                                       job_timeout=job_timeout,
                                       policy=policy,
                                       fault_plan=fault_plan)
        if executor == "process-persistent":
            return ProcessPoolExecutor(max_workers, persistent=True,
                                       job_timeout=job_timeout,
                                       policy=policy,
                                       fault_plan=fault_plan)
        raise ProphetError(
            f"unknown sweep executor {executor!r} (expected 'serial', "
            "'process', or 'process-persistent')")
    if not hasattr(executor, "run"):
        raise ProphetError(
            f"sweep executor must have a run(jobs) method, got "
            f"{type(executor).__name__}")
    return executor


def _run_with_trace(runner, jobs: Sequence[SweepJob], trace: str,
                    on_outcome: Callable[[SweepJob, dict], None],
                    models: Resolutions | None = None) -> list[dict]:
    """Call ``runner.run``, passing ``trace``/``on_outcome``/``models``
    only if accepted (keeps pre-trace-tier custom executors working;
    ``models`` only serves jobs that run in this process)."""
    try:
        accepted = inspect.signature(runner.run).parameters
    except (TypeError, ValueError):  # builtins, exotic callables
        accepted = {}
    kwargs = {}
    if "trace" in accepted:
        kwargs["trace"] = trace
    if "on_outcome" in accepted:
        kwargs["on_outcome"] = on_outcome
    if models is not None and "models" in accepted:
        kwargs["models"] = models
    outcomes = runner.run(jobs, **kwargs)
    if "on_outcome" not in accepted:
        # Custom executors that take no callback still get it (the
        # pre-flight, the journal) — per dispatch, not per completion.
        for job, outcome in zip(jobs, outcomes):
            on_outcome(job, outcome)
    return outcomes


def run_jobs(jobs: Sequence[SweepJob],
             cache: ResultCache | None = None,
             executor: str | object = "serial",
             max_workers: int | None = None,
             progress: Callable[[str], None] | None = None,
             trace: str = "summary",
             analytic_grid: bool = True,
             dispatch_lock: threading.Lock | None = None,
             cache_stats: CacheStats | None = None,
             preflight: bool = True,
             job_timeout: float | None = None,
             max_retries: int = 0,
             retry_policy: RetryPolicy | None = None,
             fault_plan: "faults.FaultPlan | None" = None,
             campaign: Campaign | None = None) -> SweepResult:
    """Execute pre-expanded jobs: cache lookup → run misses → assemble.

    ``max_workers`` sizes a pool executor (``None``: one worker per
    CPU); below 1 it is rejected.  ``executor="process"`` runs serial
    when fewer than :data:`MIN_POOL_JOBS` simulated jobs are pending
    (see :func:`pool_dispatch`); pass a :class:`ProcessPoolExecutor`
    object to force a pool.

    Fault tolerance: every pool sweep runs through the sliding-window
    :class:`~repro.sweep.resilient.ResilientDispatcher`, so a job that
    repeatedly breaks the pool is bisected out and ``quarantined``
    whatever the knobs.  ``job_timeout`` arms a per-job wall-clock
    deadline on the pool executors (a hung worker yields a ``timeout``
    result and a recycled worker, not a stalled sweep); ``max_retries``
    (or a full ``retry_policy``) re-dispatches transient failures with
    exponential backoff + jitter; ``fault_plan`` injects deterministic
    faults (chaos tests and the chaos benchmark).  Any of the three
    keeps the ``process`` executor even below the pool floor, because
    deadlines and injected kills need real workers.

    ``campaign`` journals every finished job's fingerprint next to the
    result cache: on resume, journaled failures are reported without
    re-running and journaled successes are served from the cache, so a
    crashed or killed campaign re-executes only unfinished work.

    ``preflight`` explains failed *simulated* jobs: one that does not
    end ``ok`` gets a static verdict, and a proven failure at its
    process count (guaranteed deadlock, out-of-range peer) becomes an
    error carrying the diagnostic before the campaign journals it.
    Verdicts are memoized per (model, size, threshold) and
    budget-capped; a memoized doomed verdict skips its jobs before
    dispatch.  A healthy sweep computes none.

    ``trace`` is the estimator recording tier for points that actually
    run (cached points were recorded at whatever tier produced them —
    payloads are tier-invariant).

    ``analytic_grid`` routes analytic cache misses through the
    grid-compiled plan path (byte-identical payloads; ``False`` forces
    classic per-point evaluation — benchmarks and differential tests
    use it).

    ``dispatch_lock`` is the *executor-ownership* lock for concurrent
    callers (the evaluation service): it is taken only around the
    simulated-backend executor dispatch, and only when simulated work
    is actually pending — cache lookups, the in-process analytic grid
    path, and result assembly run outside it, so a batch of cache hits
    or closed-form points never waits behind another batch's slow
    simulation.  ``cache_stats`` is a caller-owned accumulator that
    receives exactly this call's cache outcomes (see
    :meth:`repro.sweep.cache.ResultCache.get`).
    """
    validate_trace_tier(trace)
    if max_retries < 0:
        raise ProphetError(
            f"max_retries must be >= 0, got {max_retries!r}")
    if job_timeout is not None and not job_timeout > 0:
        raise ProphetError(
            f"job_timeout must be > 0 seconds, got {job_timeout!r}")
    if max_workers is not None and max_workers < 1:
        raise ProphetError(
            f"max_workers must be >= 1 (or None for one per CPU), got "
            f"{max_workers!r}")
    policy = retry_policy
    if policy is None and max_retries:
        policy = RetryPolicy(max_retries=max_retries)
    jobs = sorted(jobs, key=lambda job: job.index)
    obs.counter("sweep_runs_total",
                "run_jobs invocations (sweeps and service batches)."
                ).inc()

    keys = [job.cache_key() for job in jobs]
    key_of = {job.index: key for job, key in zip(jobs, keys)}

    # Campaign resume: journaled failures are final (reported without
    # re-running); journaled successes are expected in the result cache
    # below and re-run only if the cache entry has gone missing.
    journaled: dict[int, dict] = {}
    journal_ok: set[int] = set()
    if campaign is not None:
        campaign.bind(campaign_fingerprint(keys))
        for job, key in zip(jobs, keys):
            entry = campaign.entry(key)
            if entry is None:
                continue
            if entry.get("status") == "ok":
                journal_ok.add(job.index)
            else:
                journaled[job.index] = entry

    with obs.span("sweep.cache_lookup", points=len(jobs)):
        served: dict[int, dict] = {}
        if cache is not None:
            for job, key in zip(jobs, keys):
                if job.index in journaled:
                    continue
                payload = cache.get(key, require=PAYLOAD_KEYS,
                                    into=cache_stats)
                if payload is not None:
                    served[job.index] = payload

    resumed = set(journaled) | (journal_ok & set(served))
    if campaign is not None and resumed:
        obs.counter(
            "campaign_jobs_resumed_total",
            "Jobs skipped on campaign resume (journaled as finished)."
        ).inc(len(resumed))

    pending = [job for job in jobs
               if job.index not in served and job.index not in journaled]
    outcomes: dict[int, dict] = {}
    models: Resolutions = {}  # this call's front ends, see _job_model
    doomed: dict[int, dict] = {}  # index → the pre-flight's error outcome
    if preflight:  # only a memoized doomed verdict keeps a job from running
        for job in pending:
            verdict = (_PREFLIGHT_MEMO.get(_preflight_key(job))
                       if job.backend in SIMULATED_BACKENDS else None)
            if verdict:
                doomed[job.index] = {"status": "error", "error": verdict}
        pending = [job for job in pending if job.index not in doomed]

    checkpointed: set[int] = set()
    cfgs: dict = {}  # the pre-flight's CFGs, see _preflight_verdict

    def on_outcome(job: SweepJob, outcome: dict) -> None:
        # A proven failure replaces a failed simulated job's outcome
        # before anything journals or counts it.
        if preflight and outcome.get("status") != "ok" \
                and job.backend in SIMULATED_BACKENDS:
            verdict = _preflight_verdict(job, models, cfgs)
            if verdict is not None:
                outcome = doomed[job.index] = {"status": "error",
                                               "error": verdict}
        if campaign is None:
            return
        status = outcome.get("status", "error")
        if status not in TERMINAL_STATUSES:
            status = "error"
        # Persist the payload BEFORE journaling the success: a
        # journaled "ok" must always be backed by a durable cache
        # entry, whatever instant the campaign process dies at —
        # otherwise a resume would have to re-run finished work.
        if status == "ok" and cache is not None:
            cache.put(key_of[job.index], _payload_of(outcome),
                      meta={"point": job.describe()},
                      into=cache_stats)
            checkpointed.add(job.index)
        campaign.record(key_of[job.index], status, outcome.get("error"))

    grid_note = ""
    if analytic_grid:
        analytic_pending = [job for job in pending
                            if job.backend == "analytic"]
        if analytic_pending:
            grid_outcomes, group_count = _run_analytic_grid(
                analytic_pending, trace, models)
            outcomes.update(grid_outcomes)
            pending = [job for job in pending
                       if job.backend != "analytic"]
            grid_note = (f" + {len(analytic_pending)} analytic "
                         f"point(s) in {group_count} grid group(s)")

    simulated_jobs = sum(1 for job in pending
                         if job.backend in SIMULATED_BACKENDS)
    fault_tolerant = (job_timeout is not None or policy is not None
                      or fault_plan is not None)
    chosen = executor
    if not (fault_tolerant and executor == "process"):
        # Deadlines and injected kills need real pool workers, so the
        # pool floor is skipped when they are armed.
        chosen = pool_dispatch(executor, simulated_jobs)
    runner = make_executor(chosen, max_workers,
                           job_timeout=job_timeout, policy=policy,
                           fault_plan=fault_plan)
    runner_name = getattr(runner, "name", "custom")
    obs.counter("sweep_dispatch_total",
                "Executor actually chosen per dispatch (after the "
                "pool floor).",
                labelnames=("executor",)).labels(runner_name).inc()
    if progress is not None and jobs:
        resume_note = (f", {len(resumed)} resumed from campaign "
                       f"journal" if resumed else "")
        progress(f"sweep: {len(jobs)} point(s), {len(served)} cached, "
                 f"{len(pending)} to run on {getattr(runner, 'name', '?')} "
                 f"executor{grid_note}{resume_note} [trace={trace}]")
    with obs.span("sweep.dispatch", executor=runner_name,
                  jobs=len(pending)):
        # Nothing pending → never touch the executor: a fully-cached
        # (or all-analytic) batch must not pay executor entry costs —
        # or, under a dispatch_lock-holding sibling, wait for them.
        if not pending:
            dispatched: list[dict] = []
        elif dispatch_lock is not None:
            with dispatch_lock:
                dispatched = _run_with_trace(runner, pending, trace,
                                             on_outcome, models)
        else:
            dispatched = _run_with_trace(runner, pending, trace,
                                         on_outcome, models)
        outcomes.update(zip((job.index for job in pending),
                            dispatched))
    outcomes.update(doomed)
    if doomed:
        obs.counter("sweep_preflight_skips_total",
                    "Simulated jobs failed with the pre-flight diagnostic "
                    "because static analysis proved them doomed at their "
                    "process count.").inc(len(doomed))
        if progress is not None:
            progress(f"sweep: {len(doomed)} job(s) skipped by static "
                     "pre-flight")

    job_status = obs.counter(
        "sweep_jobs_total",
        "Sweep points by how they were resolved.",
        labelnames=("backend", "status"))
    results: list[JobResult] = []
    for job, key in zip(jobs, keys):
        if job.index in journaled:
            # Recorded as finished-and-failed by a previous campaign
            # run; the verdict is final — report it without re-running.
            entry = journaled[job.index]
            status = entry.get("status", "error")
            if status not in ("error", "timeout", "quarantined"):
                status = "error"
            job_status.labels(job.backend, "resumed").inc()
            results.append(JobResult(
                job=job, status=status, predicted_time=None,
                events=0, trace_records=0, cached=False,
                error=entry.get("error")
                or "recorded as failed in the campaign journal",
                resumed=True))
            continue
        cached = job.index in served
        outcome = served[job.index] if cached else outcomes[job.index]
        status = outcome.get("status", "error") if not cached else "ok"
        job_status.labels(
            job.backend,
            "cached" if cached
            else (status if status in ("ok", "timeout", "quarantined")
                  else "error")).inc()
        if cached or status == "ok":
            if not cached and cache is not None \
                    and job.index not in checkpointed:
                cache.put(key, _payload_of(outcome),
                          meta={"point": job.describe()},
                          into=cache_stats)
            payload = outcome if cached else _payload_of(outcome)
            results.append(JobResult(
                job=job, status="ok",
                predicted_time=payload["predicted_time"],
                events=int(payload["events"]),
                trace_records=int(payload["trace_records"]),
                cached=cached,
                attempts=int(outcome.get("attempts", 1))
                if not cached else 1,
                resumed=job.index in resumed))
        else:
            error = outcome.get("error", "unknown error")
            if status == "need_model":
                error = (f"model {outcome.get('model_hash', '?')[:12]} "
                         "unavailable on worker (the job carried no "
                         "XML and no shipped or memoized copy was "
                         "found)")
            results.append(JobResult(
                job=job,
                status=(status if status in ("timeout", "quarantined")
                        else "error"),
                predicted_time=None,
                events=0, trace_records=0, cached=False, error=error,
                attempts=int(outcome.get("attempts", 1))))
    if campaign is not None:
        # Catch-all journaling: analytic-grid, preflight-skipped, and
        # cache-served points never pass through an executor's
        # on_outcome; record() is idempotent for the rest.
        for result in results:
            campaign.record(key_of[result.job.index], result.status,
                            result.error)
    # ``is not None``, not truthiness: ``ResultCache.__len__`` globs
    # the whole cache directory, and an empty cache is still a cache.
    return SweepResult(results,
                       cache_stats=cache.stats if cache is not None
                       else None)


#: Outcome bookkeeping keys that must not leak into cached payloads.
_NON_PAYLOAD_KEYS = ("status", "attempts")


def _payload_of(outcome: dict) -> dict:
    return {name: value for name, value in outcome.items()
            if name not in _NON_PAYLOAD_KEYS}


def run_sweep(spec: SweepSpec | Iterable[SweepJob],
              cache: ResultCache | None = None,
              executor: str | object = "serial",
              max_workers: int | None = None,
              progress: Callable[[str], None] | None = None,
              trace: str = "summary",
              analytic_grid: bool = True,
              preflight: bool = True,
              job_timeout: float | None = None,
              max_retries: int | None = None,
              retry_policy: RetryPolicy | None = None,
              fault_plan: "faults.FaultPlan | None" = None,
              campaign: Campaign | None = None) -> SweepResult:
    """Expand ``spec`` (if needed) and execute the grid.

    ``job_timeout``/``max_retries`` default to the spec's own knobs
    (``None`` means "inherit"); explicit arguments win.
    """
    if isinstance(spec, SweepSpec):
        if job_timeout is None:
            job_timeout = spec.job_timeout
        if max_retries is None:
            max_retries = spec.max_retries
        jobs = expand(spec)
    else:
        jobs = list(spec)
    return run_jobs(jobs, cache=cache, executor=executor,
                    max_workers=max_workers, progress=progress,
                    trace=trace, analytic_grid=analytic_grid,
                    preflight=preflight,
                    job_timeout=job_timeout,
                    max_retries=max_retries or 0,
                    retry_policy=retry_policy, fault_plan=fault_plan,
                    campaign=campaign)


__all__ = [
    "MIN_POOL_JOBS", "PREFLIGHT_EVENT_CAP",
    "PREFLIGHT_OP_BUDGET", "ProcessPoolExecutor", "RetryPolicy",
    "SerialExecutor", "clear_preflight_memo", "clear_worker_memos",
    "execute_job", "make_executor", "pool_dispatch", "run_jobs",
    "run_sweep", "shutdown_shared_pool",
]
