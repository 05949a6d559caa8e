"""Chaos property tests: seeded faults, exact statuses, no collateral.

The contract under fault injection: a sweep ALWAYS completes (no
sweep-level exception), every job ends with exactly the status its
fault dictates, and every successful payload is byte-identical to a
fault-free run's.  Faults are drawn from seeded
:class:`~repro.faults.FaultPlan`s so any failure here replays
bit-for-bit.
"""

import concurrent.futures
import math

import pytest

from repro import faults
from repro.faults import Fault, FaultPlan
from repro.samples import build_kernel6_model
from repro.sweep import RetryPolicy, make_spec, run_jobs, run_sweep
from repro.sweep.runner import ProcessPoolExecutor, SerialExecutor, \
    shutdown_shared_pool
from repro.sweep.grid import expand
from repro.util.hashing import canonical_json

#: Fast-retry policy: real backoff shape, test-friendly delays.
FAST = dict(base_delay_s=0.01, max_delay_s=0.05)


def kernel_spec(**kwargs):
    return make_spec(build_kernel6_model(), **kwargs)


def payload_row(result):
    return {"predicted_time": result.predicted_time,
            "events": result.events,
            "trace_records": result.trace_records}


class TestSerialRetries:
    def test_raise_once_recovers_on_retry(self, tmp_path):
        plan = FaultPlan(faults={0: Fault("raise", once=True)},
                         state_dir=str(tmp_path))
        result = run_sweep(kernel_spec(backends=["interp"]),
                           retry_policy=RetryPolicy(max_retries=2,
                                                    **FAST),
                           fault_plan=plan)
        [outcome] = result
        assert outcome.ok
        assert outcome.attempts == 2

    def test_raise_always_exhausts_the_budget(self):
        plan = FaultPlan(faults={0: Fault("raise")})
        result = run_sweep(kernel_spec(backends=["interp"]),
                           retry_policy=RetryPolicy(max_retries=2,
                                                    **FAST),
                           fault_plan=plan)
        [outcome] = result
        assert outcome.status == "error"
        assert outcome.attempts == 3
        assert "gave up after 3 attempt(s)" in outcome.error

    def test_no_retry_budget_fails_first_transient(self):
        plan = FaultPlan(faults={0: Fault("raise")})
        result = run_sweep(kernel_spec(backends=["interp"]),
                           fault_plan=plan)
        [outcome] = result
        assert outcome.status == "error"
        assert "TransientFault" in outcome.error

    def test_kill_degrades_to_transient_in_serial(self):
        # No worker to kill: the serial executor must survive.
        plan = FaultPlan(faults={0: Fault("kill")})
        result = run_sweep(kernel_spec(backends=["interp"]),
                           retry_policy=RetryPolicy(max_retries=0),
                           fault_plan=plan)
        [outcome] = result
        assert outcome.status == "error"
        assert "not in a pool worker" in outcome.error

    def test_plan_is_uninstalled_after_the_sweep(self):
        plan = FaultPlan(faults={0: Fault("raise")})
        run_sweep(kernel_spec(backends=["interp"]), fault_plan=plan)
        assert faults.installed() is None


class TestPoolChaos:
    """The acceptance scenario: kills + hangs + raises in one sweep."""

    @pytest.fixture(scope="class")
    def chaos_runs(self, tmp_path_factory):
        """One chaotic pool run + its fault-free twin, shared across
        the class's assertions (pool chaos runs cost real seconds)."""
        state_dir = tmp_path_factory.mktemp("fault-state")
        spec = kernel_spec(processes=[2], backends=["interp"],
                           seeds=range(10))
        plan = FaultPlan.seeded(seed=1305, jobs=10, kills=1, hangs=1,
                                raises=1, kill_once=1, raise_once=1,
                                hang_s=20.0, state_dir=str(state_dir))
        chaotic = run_sweep(
            spec, executor="process", max_workers=2, job_timeout=3.0,
            retry_policy=RetryPolicy(max_retries=2, **FAST),
            fault_plan=plan)
        clean = run_sweep(spec)
        return plan, chaotic, clean

    def test_exact_per_job_statuses(self, chaos_runs):
        plan, chaotic, _ = chaos_runs
        expected = {index: "quarantined"
                    for index in plan.indices("kill", once=False)}
        expected.update({index: "timeout"
                         for index in plan.indices("hang")})
        expected.update({index: "error"
                         for index in plan.indices("raise",
                                                   once=False)})
        for result in chaotic:
            assert result.status == expected.get(result.job.index,
                                                 "ok"), \
                f"job {result.job.index}: {result.error}"

    def test_once_faults_recover(self, chaos_runs):
        plan, chaotic, _ = chaos_runs
        by_index = {r.job.index: r for r in chaotic}
        for index in plan.indices("raise", once=True):
            assert by_index[index].ok
            assert by_index[index].attempts == 2
        for index in plan.indices("kill", once=True):
            assert by_index[index].ok

    def test_successful_payloads_byte_identical_to_fault_free(
            self, chaos_runs):
        _, chaotic, clean = chaos_runs
        clean_rows = {r.job.index: payload_row(r) for r in clean}
        for result in chaotic:
            if result.ok:
                assert canonical_json(payload_row(result)) == \
                    canonical_json(clean_rows[result.job.index])

    def test_failure_diagnostics_name_the_fault(self, chaos_runs):
        plan, chaotic, _ = chaos_runs
        by_index = {r.job.index: r for r in chaotic}
        for index in plan.indices("hang"):
            assert "deadline" in by_index[index].error
        for index in plan.indices("kill", once=False):
            assert "quarantined" in by_index[index].error
        for index in plan.indices("raise", once=False):
            assert "gave up" in by_index[index].error


class TestDeadlines:
    def test_hung_job_times_out_and_siblings_complete(self, tmp_path):
        spec = kernel_spec(processes=[2], backends=["interp"],
                           seeds=range(4))
        plan = FaultPlan(faults={1: Fault("hang", hang_s=20.0)})
        result = run_sweep(spec, executor="process", max_workers=2,
                           job_timeout=1.5, fault_plan=plan)
        statuses = {r.job.index: r.status for r in result}
        assert statuses[1] == "timeout"
        assert [statuses[i] for i in (0, 2, 3)] == ["ok"] * 3
        assert result.timeout_count == 1
        assert "timed out" in result.summary()

    def test_timeout_is_terminal_despite_retry_budget(self):
        spec = kernel_spec(processes=[2], backends=["interp"],
                           seeds=range(2))
        plan = FaultPlan(faults={0: Fault("hang", hang_s=20.0)})
        result = run_sweep(spec, executor="process", max_workers=2,
                           job_timeout=1.5,
                           retry_policy=RetryPolicy(max_retries=3,
                                                    **FAST),
                           fault_plan=plan)
        by_index = {r.job.index: r for r in result}
        assert by_index[0].status == "timeout"
        assert by_index[0].attempts == 1  # never retried
        assert by_index[1].ok

    def test_queued_job_clock_starts_when_a_worker_is_free(self):
        """Two jobs per worker are in flight, so half of them wait
        behind a slow one; a clock started at submission would time
        every waiting job out."""
        spec = kernel_spec(processes=[2], backends=["interp"],
                           seeds=range(6))
        plan = FaultPlan(faults={index: Fault("hang", hang_s=1.0)
                                 for index in range(6)})
        result = run_sweep(spec, executor="process", max_workers=2,
                           job_timeout=1.6, fault_plan=plan)
        assert [r.status for r in result] == ["ok"] * 6, \
            [r.error for r in result]


class _RefusingPool:
    """A pool that is already broken: every submit raises."""

    def __init__(self):
        self.shut_down = False

    def submit(self, *args, **kwargs):
        raise concurrent.futures.process.BrokenProcessPool(
            "synthetic break")

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


class TestBrokenPoolRecovery:
    """A pool that refuses a submit is recycled and replaced; a job no
    pool accepts runs in-process.  No dispatch ever raises."""

    @staticmethod
    def _fresh_pools(monkeypatch, refusing):
        """Make the first ``refusing`` fresh pools refuse every submit;
        returns every pool built, in order."""
        real = concurrent.futures.ProcessPoolExecutor
        built = []

        def build(*args, **kwargs):
            pool = (_RefusingPool() if len(built) < refusing
                    else real(*args, **kwargs))
            built.append(pool)
            return pool

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            build)
        return built

    def test_fresh_pool_break_recovers_on_a_new_pool(self, monkeypatch):
        built = self._fresh_pools(monkeypatch, refusing=1)
        jobs = expand(kernel_spec(processes=[1, 2],
                                  backends=["interp"]))
        result = run_jobs(jobs,
                          executor=ProcessPoolExecutor(max_workers=2))
        assert all(r.ok for r in result)
        assert len(built) == 2 and built[0].shut_down

    def test_shared_pool_break_is_discarded_and_replaced(self,
                                                         monkeypatch):
        import repro.sweep.runner as runner_module
        shutdown_shared_pool()
        broken = _RefusingPool()
        monkeypatch.setattr(runner_module, "_SHARED_POOL", broken)
        monkeypatch.setattr(runner_module, "_SHARED_POOL_WORKERS", 2)
        acquired = []
        real_shared_pool = runner_module._shared_pool

        def tracking_shared_pool(max_workers):
            acquired.append(real_shared_pool(max_workers))
            return acquired[-1]

        monkeypatch.setattr(runner_module, "_shared_pool",
                            tracking_shared_pool)
        jobs = expand(kernel_spec(processes=[1, 2],
                                  backends=["interp"]))
        try:
            outcomes = ProcessPoolExecutor(
                max_workers=2, persistent=True).run(jobs)
            replacement = runner_module._SHARED_POOL
        finally:
            shutdown_shared_pool()
        assert [o["status"] for o in outcomes] == ["ok", "ok"]
        assert broken.shut_down
        # One recycle, then every job ran on the replacement.
        assert acquired == [broken, replacement]

    def test_twice_refused_submit_runs_one_job_in_process(self,
                                                          monkeypatch):
        built = self._fresh_pools(monkeypatch, refusing=2)
        jobs = expand(kernel_spec(processes=[1, 2],
                                  backends=["interp"]))
        outcomes = ProcessPoolExecutor(max_workers=2).run(jobs)
        assert [o["status"] for o in outcomes] == ["ok", "ok"]
        # Job 0 ran here after two refusals; job 1 on the third pool.
        assert len(built) == 3


class TestPersistentGuards:
    def test_persistent_pool_rejects_fault_plans(self):
        from repro.errors import ProphetError
        with pytest.raises(ProphetError, match="fresh pool workers"):
            ProcessPoolExecutor(persistent=True,
                                fault_plan=FaultPlan(
                                    faults={0: Fault("raise")}))

    def test_persistent_resilient_deadline_works(self):
        """Deadlines on the persistent pool route through the
        dispatcher's lazy need_model fetch (no initializer)."""
        spec = kernel_spec(processes=[2], backends=["interp"],
                           seeds=range(3))
        try:
            result = run_sweep(spec, executor="process-persistent",
                               max_workers=2, job_timeout=30.0)
        finally:
            shutdown_shared_pool()
        assert all(r.ok for r in result)


class TestKnobValidation:
    """One check for the fault knobs: a deadline is a positive finite
    number of seconds and a retry budget a non-negative integer; a
    bool is neither."""

    @pytest.mark.parametrize("job_timeout",
                             [True, math.inf, math.nan, 0, -1.0, "5"])
    def test_bad_deadline_refused(self, job_timeout):
        from repro.errors import ProphetError
        with pytest.raises(ProphetError, match="job_timeout must be"):
            run_sweep(kernel_spec(), job_timeout=job_timeout)

    @pytest.mark.parametrize("max_retries", [True, -1, 1.5])
    def test_bad_retry_budget_refused(self, max_retries):
        from repro.errors import ProphetError
        with pytest.raises(ProphetError, match="max_retries must be"):
            run_sweep(kernel_spec(), max_retries=max_retries)


class TestDeterministicChaos:
    def test_same_seed_reproduces_the_verdicts(self, tmp_path):
        spec = kernel_spec(backends=["interp"], seeds=range(6))
        verdicts = []
        for run in range(2):
            plan = FaultPlan.seeded(seed=99, jobs=6, raises=2)
            result = run_sweep(
                spec, retry_policy=RetryPolicy(max_retries=1, **FAST),
                fault_plan=plan)
            verdicts.append([(r.job.index, r.status, r.attempts)
                             for r in result])
        assert verdicts[0] == verdicts[1]
