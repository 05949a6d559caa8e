"""Trace tiers: recording is observation, never behavior.

The sweep engine runs at ``trace="summary"`` by default; these tests pin
the contract that makes that safe: predicted time and event counts are
byte-identical across tiers, and the ``summary`` recorder preserves the
``full`` tier's record counts exactly (the cached ``trace_records``
payload key).
"""

import pytest

from repro.errors import EstimatorError, TraceError
from repro.estimator import (
    PerformanceEstimator,
    SummaryTraceRecorder,
    TraceRecorder,
    estimate,
    evaluate_point,
    make_recorder,
    validate_trace_tier,
)
from repro.machine.params import SystemParameters
from repro.samples import build_sample_model
from repro.scenarios import build_scenario


def _params(processes=2):
    return SystemParameters(nodes=processes, processes=processes)


class TestRecorderZoo:
    def test_make_recorder_tiers(self):
        assert isinstance(make_recorder("full"), TraceRecorder)
        assert isinstance(make_recorder("summary"), SummaryTraceRecorder)

    def test_unknown_tier_rejected(self):
        with pytest.raises(TraceError, match="trace tier"):
            validate_trace_tier("verbose")
        with pytest.raises(TraceError, match="trace tier"):
            PerformanceEstimator(trace="verbose")
        # The recording-free tier measured no faster than summary.
        with pytest.raises(TraceError, match="trace tier"):
            validate_trace_tier("off")

    def test_summary_counts_match_full(self):
        full, summary = make_recorder("full"), make_recorder("summary")
        intervals = [("action", 1, "A", 0, 0, 0, 0.0, 1.0),
                     ("action", 1, "A", 1, 0, 0, 1.0, 2.0),
                     ("send", 2, "S", 2, 0, 0, 2.0, 2.5),
                     ("process", -1, "rank0", 3, 0, 0, 0.0, 2.5)]
        for record in intervals:
            full.record(*record)
            summary.record(*record)
        assert len(summary) == len(full) == 4
        assert summary.counts_by_kind() == full.counts_by_kind() == {
            "action": 2, "send": 1, "process": 1}
        assert summary.sorted() == []

    def test_summary_validates_intervals_like_full(self):
        with pytest.raises(TraceError, match="ends before it starts"):
            make_recorder("summary").record(
                "action", 1, "A", 0, 0, 0, 2.0, 1.0)
        with pytest.raises(TraceError, match="ends before it starts"):
            make_recorder("full").record(
                "action", 1, "A", 0, 0, 0, 2.0, 1.0)


MODELS = [
    ("sample", build_sample_model),
    ("stencil", lambda: build_scenario("stencil2d", nx=24, ny=24,
                                       iters=3)),
]


class TestTierIdentity:
    @pytest.mark.parametrize("model_name,builder", MODELS)
    @pytest.mark.parametrize("backend", ("codegen", "interp"))
    def test_results_byte_identical_across_tiers(self, model_name,
                                                 builder, backend):
        model = builder()
        payloads = {
            tier: evaluate_point(model, backend, _params(), check=False,
                                 trace=tier)
            for tier in ("full", "summary")
        }
        full, summary = payloads["full"], payloads["summary"]
        assert summary["predicted_time"] == full["predicted_time"]
        assert summary["events"] == full["events"]
        # summary preserves the record count exactly.
        assert summary["trace_records"] == full["trace_records"] > 0

    def test_estimator_summary_counts_match_full_run(self):
        model = build_sample_model()
        full = PerformanceEstimator(_params(), trace="full").estimate(
            model, check=False)
        summary = PerformanceEstimator(_params(),
                                       trace="summary").estimate(
            model, check=False)
        assert summary.total_time == full.total_time
        assert summary.events_processed == full.events_processed
        assert summary.trace_records == full.trace_records == \
            len(full.trace)
        assert summary.trace_counts == full.trace_counts
        assert summary.trace == []

    def test_estimate_wrapper_accepts_trace(self):
        result = estimate(build_sample_model(), _params(),
                          trace="summary", check=False)
        assert result.trace_tier == "summary"
        assert "[summary]" in result.summary()


class TestTierRestrictions:
    def test_trace_file_requires_full_tier(self, tmp_path):
        result = estimate(build_sample_model(), _params(),
                          trace="summary", check=False)
        with pytest.raises(EstimatorError, match="trace='full'"):
            result.write_trace_file(tmp_path / "trace.csv")

    def test_full_tier_still_writes_trace(self, tmp_path):
        result = estimate(build_sample_model(), _params(), check=False)
        path = result.write_trace_file(tmp_path / "trace.csv")
        assert path.read_text(encoding="utf-8").count("\n") == \
            result.trace_records + 1  # header + one line per record
