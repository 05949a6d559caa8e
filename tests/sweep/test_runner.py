"""Sweep execution: edge cases, error capture, caching, parallelism.

Covers the engine's contract points: an empty grid, a single point, a
job that raises (captured, sweep completes), ≥90% cache hits on a
repeated sweep, and byte-identical serial vs process-pool results.
"""

import pytest

from repro.samples import build_kernel6_model
from repro.sweep import (
    ResultCache,
    SweepSpec,
    make_spec,
    run_sweep,
)
from repro.sweep.runner import make_executor
from repro.errors import ProphetError
from repro.uml.builder import ModelBuilder


def kernel_spec(**kwargs):
    return make_spec(build_kernel6_model(), **kwargs)


def build_frail_model():
    """Cost 1/D: overriding D to 0 makes evaluation raise."""
    builder = ModelBuilder("Frail")
    builder.global_var("D", "int", "1")
    builder.cost_function("F", "1.0 / D")
    main = builder.diagram("Main", main=True)
    action = main.action("A", cost="F()")
    main.sequence(action)
    return builder.build()


class TestEdgeCases:
    def test_empty_grid(self):
        result = run_sweep(SweepSpec(models=[]))
        assert len(result) == 0
        assert result.cache_hit_rate == 0.0
        assert result.to_csv().splitlines() == [
            ",".join(["model", "overrides", "processes", "nodes",
                      "backend", "seed", "status", "predicted_time",
                      "events", "trace_records", "error"])]
        assert "0 point(s)" in result.summary()

    def test_single_point(self):
        result = run_sweep(kernel_spec())
        assert len(result) == 1
        [job_result] = result
        assert job_result.ok
        assert job_result.predicted_time == pytest.approx(9.9e-5)
        assert not job_result.cached

    def test_all_backends_agree_on_deterministic_model(self):
        result = run_sweep(kernel_spec(
            backends=["analytic", "codegen", "interp"]))
        times = {r.predicted_time for r in result}
        assert len(times) == 1

    def test_unknown_executor(self):
        with pytest.raises(ProphetError, match="executor"):
            run_sweep(kernel_spec(), executor="quantum")

    def test_executor_object_needs_run(self):
        with pytest.raises(ProphetError, match="run"):
            make_executor(object())


class TestErrorCapture:
    def test_failing_point_captured_sweep_completes(self):
        spec = make_spec(build_frail_model(),
                         backends=["analytic", "codegen"],
                         overrides={"D": [1, 0]})
        result = run_sweep(spec)
        assert len(result) == 4
        failed = result.failed()
        assert len(failed) == 2
        assert all(r.job.overrides == (("D", "0"),) for r in failed)
        assert all("division by zero" in r.error for r in failed)
        assert all(r.predicted_time is None for r in failed)
        ok = result.succeeded()
        assert len(ok) == 2
        assert all(r.predicted_time == pytest.approx(1.0) for r in ok)

    def test_errors_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec(build_frail_model(), overrides={"D": [1, 0]})
        first = run_sweep(spec, cache=cache)
        assert len(first.failed()) == 1
        assert len(cache) == 1  # only the successful point
        second = run_sweep(spec, cache=cache)
        assert len(second.failed()) == 1  # error re-runs, still captured
        assert second.cached_count == 1

    def test_summary_names_the_failure(self):
        result = run_sweep(make_spec(build_frail_model(),
                                     overrides={"D": [0]}))
        assert "FAILED" in result.summary()
        assert "D=0" in result.summary()


class TestCaching:
    def test_repeat_sweep_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = kernel_spec(processes=[1, 2, 4],
                           backends=["analytic", "codegen", "interp"],
                           overrides={"N": [100, 200]})
        cold = run_sweep(spec, cache=cache)
        assert len(cold) == 18
        assert cold.cached_count == 0
        warm = run_sweep(spec, cache=cache)
        # The acceptance bar is >= 90%; content addressing gives 100%.
        assert warm.cache_hit_rate >= 0.9
        assert warm.cached_count == 18
        assert warm.to_csv() == cold.to_csv()

    def test_cache_shared_across_specs_by_content(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(kernel_spec(), cache=cache)
        relabeled = SweepSpec(models=[("renamed", build_kernel6_model())])
        result = run_sweep(relabeled, cache=cache)
        assert result.cached_count == 1  # same content, different label

    def test_model_edit_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(make_spec(build_kernel6_model(n=100)), cache=cache)
        result = run_sweep(make_spec(build_kernel6_model(n=200)),
                           cache=cache)
        assert result.cached_count == 0

    def test_entry_with_missing_payload_keys_is_rerun(self, tmp_path):
        import json
        cache = ResultCache(tmp_path)
        run_sweep(kernel_spec(), cache=cache)
        [path] = tmp_path.glob("??/*.json")
        entry = json.loads(path.read_text())
        entry["payload"] = {"bogus": 1}  # valid format, broken payload
        path.write_text(json.dumps(entry))
        result = run_sweep(kernel_spec(), cache=cache)
        assert result.cached_count == 0
        assert [r.ok for r in result] == [True]
        assert cache.stats.invalid == 1

    def test_empty_cache_still_reports_stats(self, tmp_path):
        """An empty cache is still a cache: a sweep that writes nothing
        (its only point fails) reports its lookups, not ``None``."""
        cache = ResultCache(tmp_path)
        result = run_sweep(make_spec(build_frail_model(),
                                     overrides={"D": [0]}), cache=cache)
        assert len(cache) == 0
        assert result.cache_stats is not None
        assert result.cache_stats.misses == 1

    def test_seed_and_backend_partition_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(kernel_spec(backends=["codegen"], seeds=[0]),
                  cache=cache)
        other = run_sweep(kernel_spec(backends=["codegen"], seeds=[1]),
                          cache=cache)
        assert other.cached_count == 0
        third = run_sweep(kernel_spec(backends=["interp"], seeds=[0]),
                          cache=cache)
        assert third.cached_count == 0


class TestParallelExecutor:
    def test_parallel_matches_serial_byte_for_byte(self):
        spec = kernel_spec(processes=[1, 2],
                           backends=["analytic", "codegen", "interp"],
                           overrides={"N": [100, 200]})
        serial = run_sweep(spec, executor="serial")
        parallel = run_sweep(spec, executor="process", max_workers=2)
        assert parallel.to_csv() == serial.to_csv()
        assert parallel.table() == serial.table()

    def test_parallel_fills_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = kernel_spec(processes=[1, 2], backends=["analytic"])
        run_sweep(spec, cache=cache, executor="process", max_workers=2)
        warm = run_sweep(spec, cache=cache)
        assert warm.cache_hit_rate == 1.0

    def test_parallel_captures_errors(self):
        spec = make_spec(build_frail_model(),
                         overrides={"D": [1, 0]},
                         backends=["analytic"])
        result = run_sweep(spec, executor="process", max_workers=2)
        assert len(result.failed()) == 1
        assert len(result.succeeded()) == 1


class TestResultTables:
    def test_csv_has_one_row_per_point(self):
        spec = kernel_spec(processes=[1, 2], backends=["analytic"])
        lines = run_sweep(spec).to_csv().splitlines()
        assert len(lines) == 1 + 2

    def test_write_csv(self, tmp_path):
        path = run_sweep(kernel_spec()).write_csv(tmp_path / "out.csv")
        assert path.read_text().startswith("model,")

    def test_table_contains_points(self):
        text = run_sweep(kernel_spec(processes=[1, 2])).table()
        assert "Kernel6Model" in text
        assert "codegen" in text

    def test_speedup_tables_group_by_series(self):
        spec = kernel_spec(processes=[1, 2, 4],
                           backends=["analytic", "codegen"])
        text = run_sweep(spec).speedup_tables()
        assert text.count("procs  time[s]") == 2
        assert "Kernel6Model · analytic" in text

    def test_speedup_tables_empty_for_single_process(self):
        assert run_sweep(kernel_spec()).speedup_tables() == ""
