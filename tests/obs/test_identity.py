"""Observation never changes behavior.

Two contracts:

* results are byte-identical whether the observability harness (hot-
  path detail gate + span profiler) is fully on or fully off — across
  every backend and both executors;
* two identical instrumented runs export identical metrics, once the
  timing-valued families (``*_seconds``) are dropped.
"""

import pytest

from repro import obs
from repro.scenarios import build_scenario
from repro.sweep import make_spec, run_sweep


def _clear_memos():
    from repro.estimator.backends import (clear_plan_cache,
                                          clear_prepared_cache)
    from repro.sweep.runner import clear_worker_memos
    clear_prepared_cache()
    clear_plan_cache()
    clear_worker_memos()


def _spec():
    model = build_scenario("pipeline", stages=12)
    return make_spec(model, processes=[2, 3],
                     backends=["analytic", "codegen", "interp"])


def _run_csv(executor: str, instrumented: bool) -> str:
    from repro.sweep import ProcessPoolExecutor
    _clear_memos()
    kwargs = {"executor": executor}
    if executor == "process":
        # An executor object forces the pool below the pool floor.
        kwargs["executor"] = ProcessPoolExecutor(max_workers=2)
    if instrumented:
        with obs.detail(), obs.profiling():
            result = run_sweep(_spec(), cache=None, **kwargs)
    else:
        result = run_sweep(_spec(), cache=None, **kwargs)
    assert all(r.status == "ok" for r in result)
    return result.to_csv()


class TestInstrumentationIdentity:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_results_byte_identical_with_harness_on_vs_off(
            self, executor):
        plain = _run_csv(executor, instrumented=False)
        instrumented = _run_csv(executor, instrumented=True)
        assert instrumented == plain
        # The table covers every backend, so the identity does too.
        for backend in ("analytic", "codegen", "interp"):
            assert backend in plain

    def test_single_estimate_identical_under_detail(self):
        from repro.estimator.backends import evaluate_point
        model = build_scenario("stencil2d", nx=16, ny=16, iters=3)
        plain = evaluate_point(model, "codegen", check=False)
        with obs.detail(), obs.profiling():
            instrumented = evaluate_point(model, "codegen", check=False)
        assert instrumented == plain


class TestExportDeterminism:
    def _instrumented_export(self) -> dict:
        _clear_memos()
        obs.global_registry().reset()
        with obs.detail(), obs.profiling():
            result = run_sweep(_spec(), cache=None, executor="serial")
        assert all(r.status == "ok" for r in result)
        return obs.deterministic_view(
            obs.export_json(obs.global_registry()))

    def test_two_identical_runs_export_identical_metrics(self):
        first = self._instrumented_export()
        second = self._instrumented_export()
        assert first == second
        # The deterministic view still carries the load-bearing
        # families — dropping the timing ones must not empty it.
        for name in ("prophet_sim_events_total",
                     "prophet_sim_events_per_run",
                     "prophet_sim_ops_total",
                     "prophet_estimator_runs_total",
                     "prophet_sweep_jobs_total"):
            assert name in first, name

    def test_timing_families_are_dropped_not_exported(self):
        exported = self._instrumented_export()
        assert not [name for name in exported
                    if name.endswith("_seconds")]
