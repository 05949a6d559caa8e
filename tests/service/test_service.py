"""EvaluationService round trip — the PR's acceptance contract.

Ingest a model, submit a batch of ≥ 20 mixed-backend requests, and the
served payloads must be *byte-identical* (canonical JSON) to direct
``evaluate_point`` calls; a resubmission must report cache hits.
"""

import pytest

from repro.estimator.backends import clear_prepared_cache, evaluate_point
from repro.service import EvaluationRequest, EvaluationService
from repro.service.service import RESULT_PAYLOAD_KEYS
from repro.uml.builder import ModelBuilder
from repro.util.hashing import canonical_json


@pytest.fixture
def service(tmp_path):
    return EvaluationService(tmp_path / "registry",
                             cache=tmp_path / "cache")


def mixed_batch(ref, processes=(1, 2, 4), seeds=(0, 1)):
    """3 backends × 3 process counts × 2 seeds = 18 … plus extras ≥ 20."""
    requests = [
        EvaluationRequest(model_ref=ref, backend=backend,
                          params={"processes": p}, seed=seed)
        for backend in ("analytic", "codegen", "interp")
        for p in processes
        for seed in seeds]
    requests.append(EvaluationRequest(
        model_ref=ref, backend="codegen",
        params={"processes": 2, "nodes": 1, "processors_per_node": 2}))
    requests.append(EvaluationRequest(
        model_ref=ref, backend="codegen", params={"processes": 2},
        network={"latency": 5.0e-6}))
    return requests


class TestAcceptanceRoundTrip:
    def test_served_results_byte_identical_to_direct_calls(self, service):
        record = service.ingest_sample("sample")
        requests = mixed_batch(record.ref)
        assert len(requests) >= 20

        batch = service.submit(requests)
        assert batch.ok()
        assert len(batch.results) == len(requests)

        clear_prepared_cache()  # direct calls must not reuse service state
        for request, result in zip(requests, batch.results):
            direct = evaluate_point(
                service.registry.get(request.model_ref),
                request.backend,
                request.system_parameters(),
                request.network_config(),
                request.seed)
            served = {key: result[key] for key in RESULT_PAYLOAD_KEYS}
            assert canonical_json(served) == canonical_json(direct), \
                f"divergence on {request}"

    def test_resubmission_hits_the_cache(self, service):
        record = service.ingest_sample("sample")
        requests = mixed_batch(record.ref)
        cold = service.submit(requests)
        assert cold.stats["cache_hits"] == 0
        warm = service.submit(requests)
        assert warm.stats["cache_hits"] > 0
        assert warm.stats["cache_hits"] == warm.stats["unique_jobs"]
        assert all(r["cached"] for r in warm.results)
        # Payloads must not change when served from cache.
        for first, second in zip(cold.results, warm.results):
            assert {k: first[k] for k in RESULT_PAYLOAD_KEYS} == \
                {k: second[k] for k in RESULT_PAYLOAD_KEYS}

    def test_warm_submit_never_enumerates_the_cache(self, service,
                                                    monkeypatch):
        """A cache-warm batch costs lookups of its own keys only —
        never a scan of the whole cache directory."""
        from repro.sweep.cache import ResultCache
        record = service.ingest_sample("kernel6")
        requests = [EvaluationRequest(model_ref=record.ref, backend=b,
                                      params={"processes": p})
                    for b in ("analytic", "codegen") for p in (1, 2)]
        service.submit(requests)

        def scan(self):
            raise AssertionError("the cache directory was enumerated")

        monkeypatch.setattr(ResultCache, "_entries", scan)
        warm = service.submit(requests)
        assert warm.stats["cache_hits"] == len(requests)


class TestBatchSemantics:
    def test_duplicates_share_one_evaluation(self, service):
        record = service.ingest_sample("kernel6")
        request = EvaluationRequest(model_ref=record.ref)
        batch = service.submit([request] * 5)
        assert batch.stats == {**batch.stats, "requests": 5,
                               "unique_jobs": 1, "coalesced": 4}
        assert [r["coalesced"] for r in batch.results] == \
            [False, True, True, True, True]
        times = {r["predicted_time"] for r in batch.results}
        assert len(times) == 1

    def test_unknown_ref_fails_only_that_request(self, service):
        record = service.ingest_sample("kernel6")
        batch = service.submit([
            EvaluationRequest(model_ref=record.ref),
            EvaluationRequest(model_ref="missing"),
        ])
        assert batch.results[0]["status"] == "ok"
        assert batch.results[1]["status"] == "error"
        assert "unknown model" in batch.results[1]["error"]
        assert batch.stats["plan_errors"] == 1

    def test_evaluation_failure_is_captured_per_request(self, service):
        builder = ModelBuilder("Frail")
        builder.global_var("D", "int", "0")
        builder.cost_function("F", "1.0 / D")
        main = builder.diagram("Main", main=True)
        main.sequence(main.action("A", cost="F()"))
        record = service.registry.ingest_model(builder.build())

        ok_record = service.ingest_sample("kernel6")
        batch = service.submit([
            EvaluationRequest(model_ref=record.ref),
            EvaluationRequest(model_ref=ok_record.ref),
        ])
        assert batch.results[0]["status"] == "error"
        assert "division by zero" in batch.results[0]["error"]
        assert batch.results[1]["status"] == "ok"

    def test_cache_shared_with_sweep_engine(self, service, tmp_path):
        """The service and `prophet sweep` share content-addressed results."""
        from repro.samples import build_kernel6_model
        from repro.sweep import make_spec, run_sweep
        run_sweep(make_spec(build_kernel6_model(), backends=["codegen"]),
                  cache=service.cache)
        record = service.ingest_sample("kernel6")
        batch = service.submit([EvaluationRequest(model_ref=record.ref)])
        assert batch.results[0]["cached"] is True

    def test_process_pool_executor_matches_serial(self, tmp_path):
        serial = EvaluationService(tmp_path / "r1")
        pooled = EvaluationService(tmp_path / "r2", executor="process",
                                   max_workers=2)
        requests = mixed_batch(serial.ingest_sample("sample").ref,
                               processes=(1, 2), seeds=(0,))
        pooled.ingest_sample("sample")
        a = serial.submit(requests)
        b = pooled.submit(requests)
        for left, right in zip(a.results, b.results):
            assert {k: left[k] for k in RESULT_PAYLOAD_KEYS} == \
                {k: right[k] for k in RESULT_PAYLOAD_KEYS}

    def test_persistent_pool_matches_serial(self, tmp_path):
        serial = EvaluationService(tmp_path / "r1")
        persistent = EvaluationService(tmp_path / "r2",
                                       executor="process-persistent",
                                       max_workers=2)
        requests = mixed_batch(serial.ingest_sample("sample").ref,
                               processes=(1, 2), seeds=(0,))
        persistent.ingest_sample("sample")
        try:
            a = serial.submit(requests)
            b = persistent.submit(requests)   # workers lazy-fetch
            c = persistent.submit(requests)   # workers now warm
        finally:
            persistent.close()
        for left, right, again in zip(a.results, b.results, c.results):
            payload = {k: left[k] for k in RESULT_PAYLOAD_KEYS}
            assert payload == {k: right[k] for k in RESULT_PAYLOAD_KEYS}
            assert payload == {k: again[k] for k in RESULT_PAYLOAD_KEYS}

    def test_stats_accumulate(self, service):
        record = service.ingest_sample("kernel6")
        service.submit([EvaluationRequest(model_ref=record.ref)] * 3)
        service.submit([EvaluationRequest(model_ref=record.ref)])
        stats = service.stats()
        assert stats["batches_served"] == 2
        assert stats["requests_served"] == 4
        assert stats["coalesced_total"] == 2
        assert stats["models"] == 1
