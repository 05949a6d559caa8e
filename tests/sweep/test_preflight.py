"""The sweep pre-flight: a simulated job that fails is explained by
static analysis, and a proven failure reports the analysis diagnostic.
A healthy sweep asks for no verdict; a doomed job runs until it fails,
unless its doomed verdict is already memoized."""

import pytest

from repro import obs
from repro.estimator.backends import SIMULATED_BACKENDS
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.sweep import ResultCache, SweepSpec, make_spec, run_jobs, \
    run_sweep
from repro.sweep import runner
from repro.sweep.campaign import Campaign
from repro.sweep.grid import expand
from repro.sweep.runner import ProcessPoolExecutor, \
    _preflight_verdict, clear_preflight_memo
from repro.sweep.spec import make_job
from repro.uml.builder import ModelBuilder
from repro.uml.random_models import RandomModelConfig, random_model
from tests.analysis.conftest import MUTANTS


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_preflight_memo()
    yield
    clear_preflight_memo()


def doomed_model():
    b = ModelBuilder("doomed")
    d = b.diagram("main", main=True)
    i = d.initial()
    r = d.recv("r0", source="pid", size="8", tag=0)
    f = d.final()
    d.chain(i, r, f)
    return b.build()


def clean_model():
    b = ModelBuilder("clean")
    d = b.diagram("main", main=True)
    i = d.initial()
    a = d.action("compute", time=0.001)
    bar = d.barrier()
    f = d.final()
    d.chain(i, a, bar, f)
    return b.build()


def invalid_model():
    """Checks fail: the action's cost calls an undefined function."""
    b = ModelBuilder("invalid")
    d = b.diagram("main", main=True)
    d.sequence(d.action("compute", cost="undefined_cost()"))
    return b.build()


def out_of_range_model():
    """Every rank sends to ``pid + 1``: the last rank's peer does not
    exist, which the simulation rejects at the send."""
    b = ModelBuilder("out-of-range")
    d = b.diagram("main", main=True)
    d.sequence(d.send("s", dest="pid + 1", size="8", tag=0))
    return b.build()


def verdicts() -> float:
    return obs.counter("sweep_preflight_verdicts_total", "").value


class TestPreflight:
    def test_doomed_jobs_skip_with_diagnostic(self):
        spec = make_spec(doomed_model(), processes=[2, 4],
                         backends=["interp"])
        result = run_sweep(spec, cache=None)
        assert len(list(result)) == 2
        for job_result in result:
            assert job_result.status == "error"
            assert job_result.error.startswith("preflight:")
            assert "deadlock" in job_result.error
            assert "recv 'r0'" in job_result.error

    def test_preflight_off_reaches_the_simulator(self):
        spec = make_spec(doomed_model(), processes=[2],
                         backends=["interp"])
        result = run_sweep(spec, cache=None, preflight=False)
        (job_result,) = list(result)
        assert job_result.status == "error"
        assert "DeadlockError" in job_result.error

    def test_clean_sweep_is_untouched(self):
        spec = make_spec(clean_model(), processes=[1, 2],
                         backends=["interp", "codegen"])
        result = run_sweep(spec, cache=None)
        assert all(r.status == "ok" for r in result)

    def test_analytic_jobs_are_never_screened(self):
        """The analytic backend has no message semantics to deadlock;
        a doomed model still evaluates analytically."""
        spec = make_spec(doomed_model(), processes=[2],
                         backends=["analytic"])
        result = run_sweep(spec, cache=None)
        (job_result,) = list(result)
        assert job_result.status == "ok"

    def test_verdicts_are_memoized(self):
        from repro.sweep.runner import _PREFLIGHT_MEMO
        spec = make_spec(doomed_model(), processes=[2],
                         backends=["interp"])
        run_sweep(spec, cache=None)
        hits_before = _PREFLIGHT_MEMO.stats()["hits"]
        run_sweep(spec, cache=None)
        assert _PREFLIGHT_MEMO.stats()["hits"] > hits_before

    def test_invalid_model_fails_per_job_not_the_sweep(self):
        """An unresolvable model fails each of its jobs with its own
        error, exactly as with the pre-flight off — it never takes the
        whole sweep down."""
        spec = make_spec(invalid_model(), processes=[2],
                         backends=["analytic", "codegen"])
        screened = run_sweep(spec, cache=None)
        unscreened = run_sweep(spec, cache=None, preflight=False)
        assert [r.status for r in screened] == ["error", "error"]
        for job_result in screened:
            assert job_result.error.startswith("CheckError: ")
        assert screened.to_csv() == unscreened.to_csv()

    def test_malformed_xml_fails_per_job_not_the_sweep(self):
        jobs = [make_job(index, "<model", "f" * 64, backend,
                         SystemParameters(processes=2), NetworkConfig())
                for index, backend in enumerate(["codegen", "interp"])]
        screened = run_jobs(jobs)
        unscreened = run_jobs(jobs, preflight=False)
        for job_result in screened:
            assert job_result.status == "error"
            assert job_result.error.startswith("XmlFormatError: ")
        assert screened.to_csv() == unscreened.to_csv()


class TestVerdictCount:
    def test_clean_sweep_computes_no_verdict(self):
        spec = make_spec(clean_model(), processes=[1, 2, 4],
                         backends=["interp", "codegen"])
        before = verdicts()
        assert not run_sweep(spec).failed()
        assert verdicts() == before

    def test_one_verdict_per_failing_key_and_none_on_repeat(self):
        spec = SweepSpec(
            models=[("doomed", doomed_model()), ("clean", clean_model())],
            processes=[2, 4], backends=["interp", "codegen"],
            latencies=[1e-6, 1e-5])
        before = verdicts()
        result = run_sweep(spec)
        failing = {(r.job.model_hash, r.job.params.processes,
                    r.job.network.eager_threshold) for r in result.failed()}
        assert len(result.failed()) == 8 and len(failing) == 2
        assert verdicts() - before == len(failing)
        repeat = run_sweep(spec)
        assert verdicts() - before == len(failing)
        assert repeat.to_csv() == result.to_csv()


def _corpus_jobs():
    forked = RandomModelConfig(p_fork=0.2, p_collective=0.3)
    models = [("doomed", doomed_model()), ("clean", clean_model()),
              ("invalid", invalid_model()),
              ("out-of-range", out_of_range_model()),
              *((name, build()) for name, build in sorted(MUTANTS.items())),
              *((f"random:{seed}", random_model(seed, forked))
                for seed in range(3))]
    return expand(SweepSpec(models=models, processes=[1, 2, 3, 4],
                            backends=["analytic", "interp", "codegen"]))


def _observed(result) -> tuple:
    return (result.status, result.error, result.predicted_time,
            result.events, result.attempts)


def _eager_rule(jobs) -> list[tuple]:
    """What screening every simulated job before dispatch reported: the
    diagnostic where its verdict, on a cleared memo, is doomed, and
    otherwise the job's result with the pre-flight off."""
    expected = []
    for job, result in zip(jobs, run_jobs(jobs, preflight=False)):
        verdict = None
        if job.backend in SIMULATED_BACKENDS:
            clear_preflight_memo()
            verdict = _preflight_verdict(job, {}, {})
        expected.append(("error", verdict, None, 0, 1) if verdict
                         else _observed(result))
    clear_preflight_memo()
    return expected


def _count_runs(monkeypatch) -> list:
    """The jobs this process executes from now on (serial executor)."""
    runs: list = []
    original = runner.execute_job

    def counted(job, *args, **kwargs):
        runs.append(job)
        return original(job, *args, **kwargs)

    monkeypatch.setattr(runner, "execute_job", counted)
    return runs


class TestDeferredScreenMatchesEagerRule:
    """Screening after the run changes no job's status, error, payload
    or attempt count against the eager rule: serial, on a pool, and in a
    campaign's journal and resume."""

    @pytest.fixture(scope="class")
    def corpus(self):
        jobs = _corpus_jobs()
        expected = _eager_rule(jobs)
        doomed = {job.model_label for job, (_, error, *_) in
                  zip(jobs, expected) if (error or "").startswith(
                      "preflight:")}
        assert doomed == {"doomed", "out-of-range", *MUTANTS}, doomed
        assert any(status == "ok" for status, *_ in expected)
        return jobs, expected

    def test_serial(self, corpus):
        jobs, expected = corpus
        assert [_observed(r) for r in run_jobs(jobs)] == expected

    def test_process_pool(self, corpus):
        jobs, expected = corpus
        result = run_jobs(jobs, executor=ProcessPoolExecutor(max_workers=2))
        assert [_observed(r) for r in result] == expected

    def test_executor_without_callback(self, corpus):
        """A custom executor that takes no ``on_outcome`` gets it after
        its run, so its failed jobs are explained too."""
        class Plain:
            def run(self, jobs):
                return [runner.execute_job(job) for job in jobs]

        jobs, expected = corpus
        assert [_observed(r) for r in run_jobs(jobs, executor=Plain())] \
            == expected

    def test_memoized_verdicts_skip_before_dispatch(self, corpus,
                                                    monkeypatch):
        jobs, expected = corpus
        run_jobs(jobs)
        runs = _count_runs(monkeypatch)
        before = verdicts()
        assert [_observed(r) for r in run_jobs(jobs)] == expected
        assert verdicts() == before
        assert {job.index for job in runs
                if job.backend in SIMULATED_BACKENDS} == {
            job.index for job, (_, error, *_) in zip(jobs, expected)
            if job.backend in SIMULATED_BACKENDS
            and not (error or "").startswith("preflight:")}

    def test_campaign_journal_and_resume(self, corpus, tmp_path,
                                         monkeypatch):
        jobs, expected = corpus
        cache = ResultCache(tmp_path)
        campaign = Campaign.start(tmp_path, "night")
        records: list = []
        record = campaign.record

        def recording(key, status, error=None):
            records.append((key, status, error))
            record(key, status, error)

        monkeypatch.setattr(campaign, "record", recording)
        result = run_jobs(jobs, cache=cache, campaign=campaign)
        assert [_observed(r) for r in result] == expected
        # Every record, not just the last: a campaign killed mid-sweep
        # must already have journaled the diagnostic.
        oracle = {job.cache_key(): (status, error)
                  for job, (status, error, *_) in zip(jobs, expected)}
        assert set(records) == {(key, *entry)
                                for key, entry in oracle.items()}
        journal = Campaign.resume(tmp_path, "night")
        for key, (status, error) in oracle.items():
            entry = journal.entry(key)
            assert (entry["status"], entry.get("error")) == (status, error)

        clear_preflight_memo()
        runs = _count_runs(monkeypatch)
        before = verdicts()
        resumed = run_jobs(jobs, cache=cache, campaign=journal)
        assert runs == [] and verdicts() == before
        assert all(r.resumed for r in resumed)
        assert [(r.status, r.error) for r in resumed] == \
            [(status, error) for status, error, *_ in expected]
