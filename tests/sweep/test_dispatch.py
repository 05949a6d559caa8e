"""Ship-once dispatch: per-job pool futures, model tables, lazy fetch.

The dispatch contract: however jobs travel to workers — serially, on a
fresh ship-once pool, or on the shared persistent pool whose workers
predate the sweep — the result table is byte-identical, and the lazy
``need_model`` fallback is invisible to callers.
"""

import dataclasses

import pytest

from repro.errors import ProphetError
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.samples import build_sample_model
from repro.sweep import make_spec, run_sweep
from repro.sweep.grid import expand
from repro.sweep.runner import (
    ProcessPoolExecutor,
    _pool_initializer,
    clear_worker_memos,
    execute_job,
    shutdown_shared_pool,
)
from repro.uml.hashing import model_structural_hash
from repro.xmlio.writer import model_to_xml
from tests.sweep.per_point import per_point_sweep


def small_spec():
    return make_spec(build_sample_model(), processes=[1, 2],
                     backends=["analytic", "codegen"])


def _job(index=0, strip_xml=False):
    model = build_sample_model()
    xml = model_to_xml(model)
    job = expand(make_spec(model, processes=[1],
                           backends=["codegen"]))[index]
    if strip_xml:
        job = dataclasses.replace(job, model_xml="")
    return job, xml


class TestExecutorEquivalence:
    def test_serial_pool_and_persistent_byte_identical(self, tmp_path):
        spec = small_spec()
        serial = run_sweep(spec, executor="serial")
        # An executor object bypasses the pool floor, so this small
        # sweep really crosses the pool.
        pool = run_sweep(spec,
                         executor=ProcessPoolExecutor(max_workers=2))
        try:
            persistent = run_sweep(spec, executor="process-persistent",
                                   max_workers=2)
            again = run_sweep(spec, executor="process-persistent",
                              max_workers=2)
        finally:
            shutdown_shared_pool()
        tables = {name: result.to_csv()
                  for name, result in [("serial", serial),
                                       ("pool", pool),
                                       ("persistent", persistent),
                                       ("persistent-again", again)]}
        assert len(set(tables.values())) == 1, tables.keys()

    def test_persistent_pool_reused_across_sweeps(self):
        import repro.sweep.runner as runner_module
        try:
            run_sweep(small_spec(), executor="process-persistent",
                      max_workers=2)
            first = runner_module._SHARED_POOL
            assert first is not None
            run_sweep(small_spec(), executor="process-persistent",
                      max_workers=2)
            assert runner_module._SHARED_POOL is first
        finally:
            shutdown_shared_pool()
        assert runner_module._SHARED_POOL is None


class TestShipOnceTable:
    def test_shipped_table_serves_stripped_jobs(self):
        job, xml = _job(strip_xml=True)
        clear_worker_memos()
        try:
            _pool_initializer({job.model_hash: xml})
            outcome = execute_job(job)
            assert outcome["status"] == "ok"
        finally:
            clear_worker_memos()

    def test_missing_model_answers_need_model(self):
        job, _ = _job(strip_xml=True)
        clear_worker_memos()
        outcome = execute_job(job)
        assert outcome == {"status": "need_model",
                           "model_hash": job.model_hash}

    def test_unavailable_model_fails_the_job_on_a_pool(self):
        """A job without XML whose worker has no copy of the model is
        reported once, not re-sent forever."""
        from repro.sweep import run_jobs
        jobs = [dataclasses.replace(job, model_xml="")
                for job in expand(make_spec(build_sample_model(),
                                            processes=[1, 2],
                                            backends=["codegen"]))]
        clear_worker_memos()
        result = run_jobs(jobs,
                          executor=ProcessPoolExecutor(max_workers=2))
        assert [r.status for r in result] == ["error", "error"]
        assert all("unavailable on worker" in r.error for r in result)

    def test_lazy_fetch_fallback_end_to_end(self):
        """A pool whose workers have no table (persistent-pool shape)
        must transparently re-fetch models and still return ok."""
        jobs = expand(small_spec())
        executor = ProcessPoolExecutor(max_workers=2, persistent=True)
        try:
            outcomes = executor.run(jobs)
        finally:
            shutdown_shared_pool()
        assert [o["status"] for o in outcomes] == ["ok"] * len(jobs)


class TestPoolDispatchHeuristic:
    """Small sweeps must not pay pool startup they cannot amortize:
    the fresh ``process`` executor silently downgrades to serial below
    ``MIN_POOL_JOBS`` pending *simulated* points (analytic points are
    grid-dispatched in-process and never justify a pool)."""

    def test_decision_table(self):
        from repro.sweep import MIN_POOL_JOBS, pool_dispatch
        assert pool_dispatch("process", 3) == "serial"
        assert pool_dispatch("process", MIN_POOL_JOBS - 1) == "serial"
        assert pool_dispatch("process", MIN_POOL_JOBS) == "process"
        # Only the fresh pool is downgraded.
        assert pool_dispatch("serial", 0) == "serial"
        assert pool_dispatch("process-persistent",
                             0) == "process-persistent"
        custom = object()
        assert pool_dispatch(custom, 0) is custom

    def test_small_sweep_never_forks_a_pool(self, monkeypatch):
        import concurrent.futures

        def boom(*args, **kwargs):
            raise AssertionError(
                "a process pool was forked for a sweep below the "
                "dispatch floor")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            boom)
        lines = []
        result = run_sweep(small_spec(), executor="process",
                           max_workers=2, progress=lines.append)
        assert result.failed() == []
        assert "serial executor" in lines[0]

    def test_forced_pool_still_forks(self):
        lines = []
        result = run_sweep(small_spec(),
                           executor=ProcessPoolExecutor(max_workers=2),
                           progress=lines.append)
        assert result.failed() == []
        assert "process executor" in lines[0]

    def test_analytic_points_never_count_toward_the_pool(self,
                                                         monkeypatch):
        import concurrent.futures

        def boom(*args, **kwargs):
            raise AssertionError("analytic-only sweeps must stay "
                                 "in-process")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            boom)
        spec = make_spec(build_sample_model(),
                         processes=[1, 2, 4],
                         backends=["analytic"], seeds=list(range(20)))
        # 60 analytic points — far above the floor, yet no pool: the
        # grid path runs them in-process.
        lines = []
        result = run_sweep(spec, executor="process", max_workers=2,
                           progress=lines.append)
        assert result.failed() == []
        assert "serial executor" in lines[0]


class TestMaxWorkersValidation:
    """An out-of-range pool size is a caller error on every sweep: it
    used to escape as a bare ``ValueError`` from ``concurrent.futures``
    on a large sweep and be ignored on a small one."""

    @pytest.mark.parametrize("max_workers", [0, -2])
    @pytest.mark.parametrize("seeds", [1, 12], ids=["small", "large"])
    def test_out_of_range_max_workers_rejected(self, max_workers, seeds):
        spec = make_spec(build_sample_model(), processes=[1, 2],
                         backends=["codegen"], seeds=list(range(seeds)))
        with pytest.raises(ProphetError, match="max_workers must be"):
            run_sweep(spec, executor="process", max_workers=max_workers)


class TestAnalyticGridRouting:
    def test_progress_reports_grid_groups(self):
        lines = []
        result = run_sweep(make_spec(build_sample_model(),
                                     processes=[1, 2],
                                     backends=["analytic"]),
                           progress=lines.append)
        assert result.failed() == []
        assert "2 analytic point(s) in 1 grid group(s)" in lines[0]

    def test_grid_and_per_point_byte_identical(self):
        grid = run_sweep(small_spec())
        per_point = per_point_sweep(small_spec())
        assert grid.to_csv() == per_point.to_csv()
