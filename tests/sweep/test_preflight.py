"""The sweep pre-flight: statically doomed jobs never reach the
simulator."""

import pytest

from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.sweep import make_spec, run_jobs, run_sweep
from repro.sweep.runner import clear_preflight_memo
from repro.sweep.spec import make_job
from repro.uml.builder import ModelBuilder


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
