"""Service-tier fault tolerance: client retries, window crash safety,
and the deadline/retry knobs plumbed through the evaluation service."""

import math
import threading

import pytest

from repro.faults import Fault, FaultPlan
from repro.service import EvaluationRequest, EvaluationService
from repro.service.batcher import BatchWindow
from repro.service.client import (
    RETRYABLE_STATUSES,
    ServiceClient,
    ServiceClientError,
)


class _FlakyWire:
    """Stands in for ``ServiceClient._call_once``: scripted failures."""

    def __init__(self, failures: list[ServiceClientError],
                 payload: dict | None = None) -> None:
        self.failures = list(failures)
        self.payload = payload if payload is not None else {"ok": True}
        self.calls = 0

    def __call__(self, request) -> dict:
        self.calls += 1
        if self.failures:
            raise self.failures.pop(0)
        return self.payload


def retrying_client(max_retries: int, **kwargs) -> ServiceClient:
    client = ServiceClient("http://test.invalid",
                           max_retries=max_retries, **kwargs)
    client.slept = []
    client._sleep = client.slept.append
    return client


def rejected(status=503, retry_after=None):
    return ServiceClientError("service error", status=status,
                              retry_after=retry_after)


class TestClientRetries:
    def test_no_retries_by_default(self):
        client = retrying_client(0)
        client._call_once = _FlakyWire([rejected()])
        with pytest.raises(ServiceClientError) as excinfo:
            client._get("/health")
        assert excinfo.value.attempts == 1
        assert client.slept == []

    def test_retryable_statuses_are_the_admission_rejections(self):
        assert RETRYABLE_STATUSES == (429, 503)

    def test_transient_rejection_retried_to_success(self):
        client = retrying_client(3)
        wire = _FlakyWire([rejected(), rejected(429)])
        client._call_once = wire
        assert client._get("/health") == {"ok": True}
        assert wire.calls == 3
        assert len(client.slept) == 2

    def test_backoff_is_capped_exponential_with_jitter(self):
        client = retrying_client(4, retry_base_s=0.25, retry_max_s=0.6,
                                 retry_jitter=0.25)
        client._call_once = _FlakyWire([rejected()] * 4)
        assert client._get("/health") == {"ok": True}
        bases = [0.25, 0.5, 0.6, 0.6]  # doubling, then the cap
        for delay, base in zip(client.slept, bases):
            assert base <= delay <= base * 1.25

    def test_retry_after_floors_the_delay(self):
        client = retrying_client(1, retry_base_s=0.01)
        client._call_once = _FlakyWire([rejected(retry_after=2.0)])
        client._get("/health")
        [delay] = client.slept
        assert 2.0 <= delay <= 2.5  # the server's hint wins, jittered

    def test_transport_failures_are_retryable(self):
        client = retrying_client(1)
        wire = _FlakyWire([ServiceClientError("cannot reach service")])
        client._call_once = wire
        assert client._get("/health") == {"ok": True}
        assert wire.calls == 2

    def test_client_errors_never_retried(self):
        client = retrying_client(5)
        client._call_once = _FlakyWire([rejected(status=400)])
        with pytest.raises(ServiceClientError) as excinfo:
            client._get("/health")
        assert excinfo.value.attempts == 1
        assert client.slept == []

    def test_exhausted_budget_reports_attempts(self):
        client = retrying_client(2)
        client._call_once = _FlakyWire([rejected()] * 5)
        with pytest.raises(ServiceClientError) as excinfo:
            client._get("/health")
        assert excinfo.value.attempts == 3
        assert excinfo.value.status == 503
        assert "gave up after 3 attempt(s)" in str(excinfo.value)

    def test_jitter_is_seeded_and_reproducible(self):
        delays = []
        for _ in range(2):
            client = retrying_client(3, retry_seed=7)
            client._call_once = _FlakyWire([rejected()] * 3)
            client._get("/health")
            delays.append(client.slept)
        assert delays[0] == delays[1]

    def test_negative_budget_rejected(self):
        with pytest.raises(ServiceClientError, match="max_retries"):
            ServiceClient("http://test.invalid", max_retries=-1)


class TestWindowCrashSafety:
    def test_leader_crash_in_wait_still_flushes(self):
        """If the leader dies between sealing and flushing, followers
        must not be stranded: the flush runs in a ``finally``."""
        submitted = []

        def submit(requests):
            submitted.append(len(requests))

            class Response:
                results = [{"status": "ok"}] * len(requests)
                stats = {}
            return Response()

        window = BatchWindow(submit, window_s=0.05)
        window._seal.wait = _raise_runtime_error
        with pytest.raises(RuntimeError, match="synthetic"):
            window.submit([object()])
        assert submitted == [1]          # the flush still happened
        assert window._pending == []     # and the window is clean
        # The next caller gets a fresh window, not a stuck collector.
        window._seal.wait = lambda *_: True
        response = window.submit([object(), object()])
        assert len(response.results) == 2

    def test_submit_crash_wakes_every_follower(self):
        def submit(requests):
            raise RuntimeError("batch exploded")

        window = BatchWindow(submit, window_s=0.05)
        errors = []

        def caller():
            try:
                window.submit([object()])
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=caller) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(t.is_alive() for t in threads), \
            "a follower was stranded"
        assert errors == ["batch exploded"] * 3


def _raise_runtime_error(*_args, **_kwargs):
    raise RuntimeError("synthetic leader crash")


class TestServiceKnobs:
    @pytest.mark.parametrize("knobs", [{"job_timeout": math.inf},
                                       {"job_timeout": True},
                                       {"max_retries": -1}])
    def test_bad_knobs_fail_at_construction(self, tmp_path, knobs):
        from repro.errors import ProphetError
        with pytest.raises(ProphetError, match="must be"):
            EvaluationService(tmp_path / "registry", **knobs)

    def test_retry_budget_recovers_a_transient_batch(self, tmp_path):
        plan = FaultPlan(faults={0: Fault("raise", once=True)},
                         state_dir=str(tmp_path / "state"))
        service = EvaluationService(tmp_path / "registry",
                                    max_retries=2, fault_plan=plan)
        record = service.ingest_sample("kernel6")
        response = service.submit([EvaluationRequest(
            model_ref=record.ref, backend="interp")])
        [result] = response.results
        assert result["status"] == "ok"

    def test_without_budget_the_transient_is_an_error(self, tmp_path):
        plan = FaultPlan(faults={0: Fault("raise")})
        service = EvaluationService(tmp_path / "registry",
                                    fault_plan=plan)
        record = service.ingest_sample("kernel6")
        response = service.submit([EvaluationRequest(
            model_ref=record.ref, backend="interp")])
        [result] = response.results
        assert result["status"] == "error"
        assert "TransientFault" in result["error"]

    def test_timeout_status_propagates_to_the_response(self, tmp_path):
        """A hung evaluation must answer ``timeout``, not a generic
        error — clients distinguish a stall from a broken model."""
        plan = FaultPlan(faults={0: Fault("hang", hang_s=20.0)})
        service = EvaluationService(tmp_path / "registry",
                                    executor="process", max_workers=2,
                                    job_timeout=1.5, fault_plan=plan)
        record = service.ingest_sample("kernel6")
        response = service.submit([
            EvaluationRequest(model_ref=record.ref, backend="interp",
                              seed=seed)
            for seed in (0, 1)])
        statuses = [r["status"] for r in response.results]
        assert statuses[0] == "timeout"
        assert statuses[1] == "ok"
        assert "deadline" in response.results[0]["error"]
