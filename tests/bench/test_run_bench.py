"""The benchmark trajectory harness stays runnable and well-formed."""

import json

from repro.bench import (
    BENCH_SCHEMA,
    OBS_OVERHEAD_BUDGET,
    append_snapshot,
    render,
    run_benchmarks,
)


def test_smoke_snapshot_shape(tmp_path):
    snapshot = run_benchmarks(smoke=True, repeats=1,
                              processes_bench=False)
    assert snapshot["schema"] == BENCH_SCHEMA
    assert snapshot["smoke"] is True

    sweep = snapshot["benchmarks"]["cold_sweep_3scenario"]
    assert sweep["events"] > 0
    for key in ("wall_s_summary", "events_per_s_summary"):
        assert sweep[key] > 0, key

    tiers = snapshot["benchmarks"]["estimator_stencil_tiers"]
    for tier in ("full", "summary"):
        assert tiers[tier]["events_per_s"] > 0

    grid = snapshot["benchmarks"]["analytic_grid_1000pt"]
    assert grid["identical"] is True
    assert grid["points"] > 0
    assert grid["points_per_s_grid"] > 0
    assert grid["points_per_s_per_point"] > 0
    assert grid["speedup_grid_vs_per_point"] > 0

    # The loadgen-smoke CI leg's contracts, on the same run.
    serving = snapshot["benchmarks"]["serving_loadgen"]
    assert serving["identity_ok"] is True
    assert serving["malformed_responses"] == 0
    concurrent = serving["concurrent"]
    assert concurrent["connections"] <= concurrent["clients"] + 2
    overload = serving["overload"]
    assert overload["rejected_429"] >= 1
    assert overload["retry_after_present"] is True
    assert overload["slowest_reject_ms"] < \
        overload["socket_timeout_s"] * 1e3

    overhead = snapshot["benchmarks"]["obs_overhead_cold_sweep"]
    assert overhead["wall_s_uninstrumented"] > 0
    assert overhead["wall_s_instrumented"] > 0
    assert overhead["budget_ratio"] == OBS_OVERHEAD_BUDGET
    # run_benchmarks itself raises past the budget; re-assert the
    # recorded ratio so the snapshot can't contradict the gate.
    assert overhead["overhead_ratio"] <= OBS_OVERHEAD_BUDGET

    path = append_snapshot(snapshot, tmp_path / "BENCH_estimator.json")
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["schema"] == BENCH_SCHEMA
    assert data["history"] == [snapshot]

    text = render(snapshot)
    assert "cold_sweep_3scenario" in text
    assert "speedup_summary_vs_full" in text
    assert "analytic_grid_1000pt" in text

