"""The per-point side of the analytic grid ≡ per-point identity.

``run_jobs`` sends every analytic cache miss through the grid-compiled
plan.  This oracle evaluates each expanded job on its own with
:func:`repro.sweep.runner.execute_job` — one ``evaluate_point`` call
with per-job error capture — and builds the table, and writes the cache
entries, that a sweep evaluating point by point would.
"""

from repro.sweep import JobResult, SweepResult, expand
from repro.sweep.runner import execute_job


def per_point_sweep(spec, cache=None) -> SweepResult:
    """``spec`` evaluated one ``execute_job`` call per expanded job."""
    results = []
    for job in expand(spec):
        outcome = execute_job(job)
        if outcome["status"] != "ok":
            results.append(JobResult(
                job=job, status="error", predicted_time=None, events=0,
                trace_records=0, cached=False, error=outcome["error"]))
            continue
        payload = {name: value for name, value in outcome.items()
                   if name != "status"}
        if cache is not None:
            cache.put(job.cache_key(), payload,
                      meta={"point": job.describe()})
        results.append(JobResult(
            job=job, status="ok",
            predicted_time=payload["predicted_time"],
            events=payload["events"],
            trace_records=payload["trace_records"], cached=False))
    return SweepResult(results)
