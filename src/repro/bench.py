"""Benchmark trajectory harness (``prophet bench``).

Runs the key estimator/sweep benchmarks on fixed workloads and appends
the snapshot to ``BENCH_estimator.json`` so the performance trajectory
is tracked *across* PRs — the file holds ``{"schema": 2, "history":
[snapshot, ...]}``, newest last (a legacy single-snapshot file is
migrated into the first history entry on the next run).  Every PR that
touches the evaluation stack re-runs the harness and commits the
refreshed trajectory, and CI's ``bench-smoke`` leg keeps the harness
itself from rotting.

Besides wall times the harness *verifies* one contract on every run,
smoke mode included: the sweep's analytic grid path must give exactly
the results of per-point ``evaluate_point`` calls — a mismatch raises
and fails the run (timing numbers never gate CI; identity does).

Workloads are deliberately deterministic and self-contained (scenario
generators, serial-executor defaults); wall times are best-of-``repeats``
to shave scheduler noise.  Numbers are machine-relative — compare
within one snapshot's fields, or across snapshots from the same machine
(CI runners are close enough for trend lines, not for microbenchmarks).
"""

from __future__ import annotations

import json
import math
import platform
import time
from pathlib import Path

from repro.errors import ProphetError

#: Bump when benchmark definitions change incompatibly.
#: 2: the snapshot file became a trajectory ({schema, history: [...]}),
#:    and the analytic-grid benchmark + identity check joined.
BENCH_SCHEMA = 2

#: Hard ceiling on the instrumented/uninstrumented wall-time ratio of
#: the headline cold sweep — the observability harness (detail gate,
#: span profiler, metrics) must cost at most this much.  Asserted on
#: every run, smoke included; a regression fails the harness.
OBS_OVERHEAD_BUDGET = 1.03

#: Hard ceiling on the armed/unarmed pool dispatch wall-time ratio on a
#: fault-free run — what arming a deadline and a retry budget (deadline
#: clocks, deadline-aware waits) may cost a sweep that never needs
#: them.  Asserted on every run with pool benchmarks enabled.
CHAOS_OVERHEAD_BUDGET = 1.05

#: Hard ceiling on the routed/direct warm-request latency ratio with
#: every replica healthy — what the shard router's extra hop (parse,
#: shard lookup, forward, annotate) may cost a cache-warm request.
#: Asserted on every run with loadgen benchmarks enabled.
ROUTER_OVERHEAD_BUDGET = 1.10


def _bench_models(smoke: bool):
    from repro.scenarios import build_scenario
    if smoke:
        return [
            ("pipeline", build_scenario("pipeline", stages=30)),
            ("stencil2d", build_scenario("stencil2d", nx=48, ny=48,
                                         iters=15)),
            ("master_worker", build_scenario("master_worker", tasks=100)),
        ]
    return [
        ("pipeline", build_scenario("pipeline", stages=300)),
        ("stencil2d", build_scenario("stencil2d", nx=96, ny=96,
                                     iters=150)),
        ("master_worker", build_scenario("master_worker", tasks=1000)),
    ]


def _clear_memos() -> None:
    from repro.estimator.backends import (clear_plan_cache,
                                          clear_prepared_cache)
    from repro.lang.parser import clear_parse_memo
    from repro.sweep.runner import clear_worker_memos
    clear_prepared_cache()
    clear_plan_cache()
    clear_worker_memos()
    clear_parse_memo()


def _cold_sweep_spec(models):
    from repro.sweep import SweepSpec
    return SweepSpec(models=models, processes=[2, 4],
                     backends=["codegen", "interp"], seeds=[0])


def _cold_sweep(models, executor="serial", max_workers=None):
    """One cold 3-scenario sweep; returns (wall_s, total events)."""
    from repro.sweep import run_sweep
    spec = _cold_sweep_spec(models)
    _clear_memos()
    start = time.perf_counter()
    result = run_sweep(spec, cache=None, executor=executor,
                       max_workers=max_workers)
    wall = time.perf_counter() - start
    failed = [r for r in result if r.status != "ok"]
    if failed:
        raise RuntimeError(f"benchmark sweep failed: {failed[0].error}")
    return wall, sum(r.events for r in result)


def _analytic_grid_spec(smoke: bool):
    """One model over a dense processes × latency × bandwidth grid."""
    from repro.scenarios import build_scenario
    from repro.sweep import make_spec
    if smoke:
        model = build_scenario("stencil2d", nx=48, ny=48, iters=10)
        processes, axis_points = [2, 4], 5
    else:
        model = build_scenario("stencil2d", nx=96, ny=96, iters=50)
        processes, axis_points = [2, 4, 6, 8, 10], 10
    latencies = [1e-7 * 4 ** (i / axis_points)
                 for i in range(axis_points)]
    bandwidths = [1e8 * 4 ** (i / (2 * axis_points))
                  for i in range(2 * axis_points)]
    return make_spec(model, processes=processes, backends=["analytic"],
                     latencies=latencies, bandwidths=bandwidths)


def _analytic_grid_sweep(smoke: bool):
    """The grid path: one cold sweep of the dense analytic grid;
    returns (wall_s, each point's (time, events, records))."""
    from repro.sweep import run_sweep
    spec = _analytic_grid_spec(smoke)
    _clear_memos()
    start = time.perf_counter()
    result = run_sweep(spec, cache=None, executor="serial")
    wall = time.perf_counter() - start
    failed = [r for r in result if r.status != "ok"]
    if failed:
        raise RuntimeError(
            f"analytic grid benchmark failed: {failed[0].error}")
    return wall, [(r.predicted_time, r.events, r.trace_records)
                  for r in result]


def _analytic_per_point(smoke: bool):
    """The per-point oracle over the same grid: ``execute_job`` on each
    expanded job, one ``evaluate_point`` call each; returns what
    :func:`_analytic_grid_sweep` returns."""
    from repro.sweep import execute_job, expand
    spec = _analytic_grid_spec(smoke)
    _clear_memos()
    start = time.perf_counter()
    outcomes = [execute_job(job) for job in expand(spec)]
    wall = time.perf_counter() - start
    failed = [o for o in outcomes if o["status"] != "ok"]
    if failed:
        raise RuntimeError(
            f"analytic per-point benchmark failed: {failed[0]['error']}")
    return wall, [(o["predicted_time"], o["events"], o["trace_records"])
                  for o in outcomes]


def _instrumented_cold_sweep(models):
    """The cold sweep with the full observability harness on (hot-path
    detail gate + an active span profiler)."""
    from repro import obs
    obs.global_registry().reset()
    with obs.detail(), obs.profiling():
        return _cold_sweep(models)


def _estimate_tier(model, trace: str, repeats: int):
    """Warm-prepared single-point estimate at one trace tier."""
    from repro.estimator.backends import evaluate_point
    from repro.machine.params import SystemParameters
    params = SystemParameters(nodes=4, processes=4)
    evaluate_point(model, "codegen", params, check=False,
                   trace=trace)  # warm the prepared-model memo
    best = float("inf")
    events = 0
    for _ in range(repeats):
        start = time.perf_counter()
        payload = evaluate_point(model, "codegen", params, check=False,
                                 trace=trace)
        best = min(best, time.perf_counter() - start)
        events = payload["events"]
    return best, events


def _best(fn, repeats: int):
    best_wall, extra = float("inf"), None
    for _ in range(repeats):
        wall, value = fn()
        if wall < best_wall:
            best_wall, extra = wall, value
    return best_wall, extra


def run_benchmarks(smoke: bool = False, repeats: int = 3,
                   processes_bench: bool = True,
                   loadgen_bench: bool = True) -> dict:
    """Execute the harness; returns the snapshot dict (not yet written)."""
    models = _bench_models(smoke)
    benchmarks: dict[str, dict] = {}

    # 1. The headline number: a cold sweep (no result cache, no memos)
    #    over three scenarios on both simulated backends, recording at
    #    the sweep's summary tier.
    summary_wall, events = _best(lambda: _cold_sweep(models), repeats)
    benchmarks["cold_sweep_3scenario"] = {
        "description": "cold 3-scenario sweep, serial, codegen+interp, "
                       "processes 2 and 4",
        "events": events,
        "wall_s_summary": round(summary_wall, 4),
        "events_per_s_summary": round(events / summary_wall),
    }

    # 2. Per-tier estimator kernel throughput (transform cost excluded:
    #    the prepared-model memo is warm, so this isolates the event
    #    loop + recorder).
    stencil = dict(models)["stencil2d"]
    tiers = {}
    for tier in ("full", "summary"):
        wall, tier_events = _estimate_tier(stencil, tier, repeats)
        tiers[tier] = {"wall_s": round(wall, 5),
                       "events_per_s": round(tier_events / wall)}
    tiers["speedup_summary_vs_full"] = round(
        tiers["full"]["wall_s"] / tiers["summary"]["wall_s"], 3)
    benchmarks["estimator_stencil_tiers"] = tiers

    # 3. The dispatch heuristic on a small sweep: its simulated jobs sit
    #    below the fresh-pool floor, so `process` silently runs serial
    #    and stops paying pool startup it cannot amortize (this entry
    #    measured 0.834× serial before the heuristic).  The forced-pool
    #    number keeps tracking raw pool startup cost.
    if processes_bench:
        from repro.estimator.backends import SIMULATED_BACKENDS
        from repro.sweep import ProcessPoolExecutor, expand, \
            pool_dispatch
        # Count from the real expanded spec, so the recorded decision
        # cannot drift from what run_sweep actually does.
        simulated_jobs = sum(
            1 for job in expand(_cold_sweep_spec(models))
            if job.backend in SIMULATED_BACKENDS)
        pool_wall, _ = _best(
            lambda: _cold_sweep(models, executor="process",
                                max_workers=2),
            max(1, repeats - 1))
        forced_wall, _ = _best(
            lambda: _cold_sweep(
                models, executor=ProcessPoolExecutor(max_workers=2)),
            max(1, repeats - 1))
        benchmarks["cold_sweep_3scenario_pool2"] = {
            "description": "same sweep requested on the process pool, "
                           "2 workers; `dispatched` is what the pool "
                           "floor actually ran (forced_pool_* passes a "
                           "ProcessPoolExecutor object, which bypasses "
                           "it, and includes pool startup)",
            "dispatched": pool_dispatch("process", simulated_jobs),
            "wall_s": round(pool_wall, 4),
            "speedup_vs_serial_summary": round(
                summary_wall / pool_wall, 3),
            "forced_pool_wall_s": round(forced_wall, 4),
            "forced_pool_speedup_vs_serial": round(
                summary_wall / forced_wall, 3),
        }

    # 4. The analytic grid path: one model, a dense processes × latency
    #    × bandwidth grid, per-point evaluation vs the sweep's
    #    grid-compiled dispatch.  The identity check is a hard contract
    #    and runs in every mode — equal results point by point or the
    #    harness raises.
    # Same repeat count on both sides — best-of-N shrinks with N, so an
    # asymmetric count would flatter whichever side got more attempts.
    grid_repeats = max(1, repeats - 1)
    per_point_wall, per_point_rows = _best(
        lambda: _analytic_per_point(smoke), grid_repeats)
    grid_wall, grid_rows = _best(
        lambda: _analytic_grid_sweep(smoke), grid_repeats)
    identical = grid_rows == per_point_rows
    points = len(grid_rows)
    benchmarks["analytic_grid_1000pt"] = {
        "description": "cold single-model analytic sweep over a dense "
                       "processes × latency × bandwidth grid: per-point "
                       "evaluate_point calls vs the grid-compiled "
                       "plan (compile once, vectorized replay)",
        "points": points,
        "wall_s_per_point": round(per_point_wall, 4),
        "wall_s_grid": round(grid_wall, 4),
        "points_per_s_per_point": round(points / per_point_wall),
        "points_per_s_grid": round(points / grid_wall),
        "speedup_grid_vs_per_point": round(
            per_point_wall / grid_wall, 2),
        "identical": identical,
    }
    if not identical:
        raise RuntimeError(
            "analytic grid-vs-per-point identity broke: the grid path "
            "produced different results than evaluate_point")

    # 5. Observability overhead: the same cold sweep with
    #    the full harness on (detail + profiler) vs off.  The ratio is
    #    a hard contract — over budget raises — so it needs a
    #    noise-proof estimator, not the timing-only benchmarks'
    #    best-of-N: machine noise on a shared box is one-sided (a
    #    preempted run only ever measures *longer*) and correlated
    #    over seconds (slow windows swallow whole blocks of repeats).
    #    Three defenses, each necessary on a busy host: the two
    #    variants are interleaved at single-sweep granularity with the
    #    order alternating every round; the asserted ratio is
    #    best-sweep over best-sweep (the minimum converges on the
    #    clean runtime as long as one round per side lands in a quiet
    #    window — medians and leg averages inherit the spikes); and a
    #    measurement that still lands over budget is retried from
    #    scratch before it becomes a failure, because an over-budget
    #    *reading* can be noise while a genuine regression fails every
    #    attempt.  Rounds per side are calibrated to ~2 s of measured
    #    work so the smoke workload (one ~50 ms sweep) gets the sample
    #    depth its noise level needs.
    calibration_wall, _ = _cold_sweep(models)
    overhead_rounds = min(
        50, max(8, repeats, math.ceil(2.0 / max(calibration_wall, 0.04))))
    overhead_attempts = 0
    overhead = math.inf
    best_plain = best_instrumented = math.inf
    while overhead_attempts < 3 and overhead > OBS_OVERHEAD_BUDGET:
        overhead_attempts += 1
        plain_walls = []
        instrumented_walls = []
        for i in range(overhead_rounds):
            if i % 2:
                instrumented_walls.append(
                    _instrumented_cold_sweep(models)[0])
                plain_walls.append(_cold_sweep(models)[0])
            else:
                plain_walls.append(_cold_sweep(models)[0])
                instrumented_walls.append(
                    _instrumented_cold_sweep(models)[0])
        ratio = min(instrumented_walls) / min(plain_walls)
        if ratio < overhead:
            overhead = ratio
            best_plain = min(plain_walls)
            best_instrumented = min(instrumented_walls)
    # 6. The serving tier under concurrent load: real HTTP, fast
    #    cache-warm/analytic batches racing a heavy simulated stream,
    #    plus the queue_depth-1 overload probe.  Its identity,
    #    malformed-response, and 429-deadline contracts are hard (the
    #    loadgen raises); the latency numbers are trajectory.
    if loadgen_bench:
        from repro.service.loadgen import run_loadgen
        benchmarks["serving_loadgen"] = run_loadgen(smoke=smoke)
        benchmarks["fleet_failover"] = _fleet_failover_bench(smoke)

    benchmarks["obs_overhead_cold_sweep"] = {
        "description": "cold 3-scenario summary-tier sweep with the "
                       "observability harness fully on (detail gate + "
                       "span profiler + metrics) vs off; ratio is "
                       "best-sweep over best-sweep across "
                       "order-alternated interleaved rounds",
        "wall_s_uninstrumented": round(best_plain, 4),
        "wall_s_instrumented": round(best_instrumented, 4),
        "rounds_per_side": overhead_rounds,
        "measurement_attempts": overhead_attempts,
        "overhead_ratio": round(overhead, 4),
        "budget_ratio": OBS_OVERHEAD_BUDGET,
    }
    if overhead > OBS_OVERHEAD_BUDGET:
        raise RuntimeError(
            f"observability overhead {overhead:.4f}× exceeds the "
            f"{OBS_OVERHEAD_BUDGET}× budget on the cold-sweep "
            f"benchmark ({overhead_attempts} attempt(s), "
            f"{overhead_rounds} interleaved rounds per side)")

    # 7. Fault-tolerance machinery overhead: the same cold sweep forced
    #    onto the pool, the dispatcher unarmed vs armed with a never-hit
    #    deadline and a retry budget on a fault-free run.  Same
    #    noise-proof estimator as the observability contract
    #    (order-alternated interleaving, best-over-best, retried
    #    attempts) — this ratio is a hard budget too: resilience must be
    #    ~free when nothing fails, or nobody arms it.
    if processes_bench:
        from repro.sweep import ProcessPoolExecutor, RetryPolicy

        def _unarmed_pool():
            return _cold_sweep(models, executor=ProcessPoolExecutor(
                max_workers=2))

        def _armed_pool():
            return _cold_sweep(models, executor=ProcessPoolExecutor(
                max_workers=2, job_timeout=300.0,
                policy=RetryPolicy(max_retries=2)))

        chaos_calibration, _ = _unarmed_pool()
        chaos_rounds = min(
            12, max(4, math.ceil(2.0 / max(chaos_calibration, 0.1))))
        chaos_attempts = 0
        chaos_overhead = math.inf
        best_unarmed = best_armed = math.inf
        while chaos_attempts < 3 and \
                chaos_overhead > CHAOS_OVERHEAD_BUDGET:
            chaos_attempts += 1
            unarmed_walls = []
            armed_walls = []
            for i in range(chaos_rounds):
                if i % 2:
                    armed_walls.append(_armed_pool()[0])
                    unarmed_walls.append(_unarmed_pool()[0])
                else:
                    unarmed_walls.append(_unarmed_pool()[0])
                    armed_walls.append(_armed_pool()[0])
            ratio = min(armed_walls) / min(unarmed_walls)
            if ratio < chaos_overhead:
                chaos_overhead = ratio
                best_unarmed = min(unarmed_walls)
                best_armed = min(armed_walls)
        benchmarks["chaos_sweep"] = {
            "description": "cold 3-scenario sweep forced onto a "
                           "2-worker pool: the pool dispatcher "
                           "unarmed vs armed (job_timeout + "
                           "max_retries, no faults); ratio is "
                           "best-sweep over best-sweep across "
                           "order-alternated interleaved rounds",
            "wall_s_unarmed": round(best_unarmed, 4),
            "wall_s_fault_tolerant": round(best_armed, 4),
            "rounds_per_side": chaos_rounds,
            "measurement_attempts": chaos_attempts,
            "overhead_ratio": round(chaos_overhead, 4),
            "budget_ratio": CHAOS_OVERHEAD_BUDGET,
        }
        if chaos_overhead > CHAOS_OVERHEAD_BUDGET:
            raise RuntimeError(
                f"fault-tolerance overhead {chaos_overhead:.4f}× "
                f"exceeds the {CHAOS_OVERHEAD_BUDGET}× budget on the "
                f"fault-free pool sweep ({chaos_attempts} attempt(s), "
                f"{chaos_rounds} interleaved rounds per side)")

    return {
        "schema": BENCH_SCHEMA,
        "generated_by": "prophet bench",
        "smoke": smoke,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": benchmarks,
    }


def _percentile(walls: list[float], q: float) -> float:
    ordered = sorted(walls)
    index = min(len(ordered) - 1,
                max(0, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[index]


def _fleet_failover_bench(smoke: bool) -> dict:
    """Routed-request latency through the shard router: all-healthy vs
    one replica killed, plus the routed/direct overhead gate.

    Real HTTP against a 3-replica in-process fleet, evaluating
    cache-cold codegen batches (every call gets fresh seeds) so the
    measured request carries realistic simulation work and the
    router's extra hop is judged against it — a no-op cache-hit
    workload would measure nothing but the hop.  Direct and routed
    requests are interleaved with alternating order and the gated
    ratio is best-over-best — the same noise-proof estimator the
    observability and chaos budgets use.  Every response is checked
    well-formed (`status: ok`); the failover leg additionally requires
    zero degraded results, because with replication factor 2 a single
    dead replica must be absorbed by secondaries, not by local
    recompute.
    """
    import itertools
    import tempfile

    from repro.scenarios import build_scenario
    from repro.service import Fleet, ServiceClient
    from repro.xmlio.writer import model_to_xml

    if smoke:
        model = build_scenario("stencil2d", nx=64, ny=64, iters=40)
        rounds = 8
    else:
        model = build_scenario("stencil2d", nx=96, ny=96, iters=150)
        rounds = 12
    xml = model_to_xml(model)
    seeds = itertools.count(1)
    attempts = 0
    overhead = math.inf
    best_direct = best_routed = math.inf
    entry: dict = {}
    while attempts < 3 and overhead > ROUTER_OVERHEAD_BUDGET:
        attempts += 1
        with tempfile.TemporaryDirectory(
                prefix="prophet-fleet-bench-") as tmp, \
                Fleet(tmp, size=3) as fleet:
            url = fleet.start_router(probe_interval_s=30.0,
                                     replication_factor=2,
                                     hedging=False)
            routed = ServiceClient(url)
            record = routed.ingest_xml(xml)
            owner = fleet.router.shard_map.owners(record["ref"], 1)[0]
            direct = ServiceClient(fleet.urls[int(owner[1:])])

            def batch() -> list[dict]:
                seed = next(seeds)
                return [{"model_ref": record["ref"],
                         "backend": "codegen", "seed": seed,
                         "params": {"processes": p}} for p in (2, 4)]

            direct.evaluate(batch())  # warm the prepared-model memos
            routed.evaluate(batch())  # …and the router's code paths

            def timed(client) -> float:
                requests = batch()
                start = time.perf_counter()
                response = client.evaluate(requests)
                wall = time.perf_counter() - start
                bad = [r for r in response["results"]
                       if r.get("status") != "ok"]
                if bad:
                    raise RuntimeError(
                        f"fleet benchmark got a malformed response: "
                        f"{bad[0]}")
                return wall

            direct_walls: list[float] = []
            routed_walls: list[float] = []
            for i in range(rounds):
                legs = [(direct, direct_walls), (routed, routed_walls)]
                if i % 2:
                    legs.reverse()
                for client, walls in legs:
                    walls.append(timed(client))
            ratio = min(routed_walls) / min(direct_walls)
            if ratio < overhead:
                overhead = ratio
                best_direct = min(direct_walls)
                best_routed = min(routed_walls)
                entry = {
                    "healthy_p50_ms": round(
                        _percentile(routed_walls, 50) * 1e3, 3),
                    "healthy_p99_ms": round(
                        _percentile(routed_walls, 99) * 1e3, 3),
                }
            # Failover leg: kill the shard's primary and keep driving
            # warm requests through the router.  Only measured on the
            # attempt that produced the best overhead reading so the
            # published numbers describe one coherent fleet run.
            if ratio != overhead:
                continue
            fleet.kill(int(owner[1:]))
            failover_walls = [timed(routed) for _ in range(rounds)]
            degraded = fleet.router.metrics.counter(
                "router_degraded_total",
                "Batches recomputed locally with no replica "
                "reachable.").value
            if degraded:
                raise RuntimeError(
                    "fleet benchmark went degraded with 2 of 3 "
                    "replicas healthy — failover should have "
                    "absorbed the kill")
            entry.update({
                "one_dead_p50_ms": round(
                    _percentile(failover_walls, 50) * 1e3, 3),
                "one_dead_p99_ms": round(
                    _percentile(failover_walls, 99) * 1e3, 3),
                "first_request_after_kill_ms": round(
                    failover_walls[0] * 1e3, 3),
            })
    entry = {
        "description": "cache-cold 2-point codegen stencil batches "
                       "against a 3-replica in-process fleet "
                       "(replication factor 2): routed vs direct "
                       "latency with all replicas healthy, then with "
                       "the shard's primary killed; overhead ratio is "
                       "best-request over best-request across "
                       "order-alternated interleaved rounds",
        "rounds_per_side": rounds,
        "measurement_attempts": attempts,
        "direct_best_ms": round(best_direct * 1e3, 3),
        "routed_best_ms": round(best_routed * 1e3, 3),
        "router_overhead_ratio": round(overhead, 4),
        "budget_ratio": ROUTER_OVERHEAD_BUDGET,
        **entry,
    }
    if overhead > ROUTER_OVERHEAD_BUDGET:
        raise RuntimeError(
            f"router overhead {overhead:.4f}× exceeds the "
            f"{ROUTER_OVERHEAD_BUDGET}× budget on warm routed "
            f"requests ({attempts} attempt(s), {rounds} interleaved "
            f"rounds per side)")
    return entry


def render(snapshot: dict) -> str:
    lines = [f"prophet bench (schema {snapshot['schema']}, "
             f"{'smoke' if snapshot['smoke'] else 'full'} mode, "
             f"best of {snapshot['repeats']})"]
    for name, entry in snapshot["benchmarks"].items():
        lines.append(f"  {name}:")
        for key, value in entry.items():
            if key == "description":
                continue
            if isinstance(value, dict):
                inner = ", ".join(f"{k}={v}" for k, v in value.items())
                lines.append(f"    {key:<28} {inner}")
            else:
                lines.append(f"    {key:<28} {value}")
    return "\n".join(lines)


def load_history(path: str | Path) -> list[dict]:
    """The snapshot history of a trajectory file, oldest first.

    Accepts the current ``{"schema": 2, "history": [...]}`` layout and
    migrates a legacy schema-1 file (one bare snapshot) into a
    single-entry history.  A missing file is an empty history; an
    unparseable one raises — silently discarding a trajectory would
    defeat the file's purpose.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ProphetError(
            f"cannot parse benchmark trajectory {path}: {exc}; "
            "refusing to overwrite it") from exc
    if isinstance(data, dict):
        if isinstance(data.get("history"), list):
            return list(data["history"])
        if "benchmarks" in data:  # legacy schema 1: one bare snapshot
            return [data]
    raise ProphetError(
        f"{path} is neither a benchmark trajectory nor a legacy "
        "snapshot; refusing to overwrite it")


def append_snapshot(snapshot: dict, path: str | Path) -> Path:
    """Append ``snapshot`` to the trajectory at ``path`` and rewrite it."""
    path = Path(path)
    history = load_history(path)
    history.append(snapshot)
    payload = {
        "schema": BENCH_SCHEMA,
        "generated_by": "prophet bench",
        "history": history,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def run_and_report(output: str | Path, smoke: bool = False,
                   repeats: int = 3, pool: bool = True,
                   metrics_out: str | Path | None = None,
                   loadgen: bool = True) -> int:
    """Run the harness, print the table, append to the trajectory.

    The body of ``prophet bench`` (``benchmarks/run_bench.py`` runs
    that command).
    """
    # Validate the trajectory file up front: a corrupt file must fail
    # before the multi-minute benchmark run, not after it.
    load_history(output)
    snapshot = run_benchmarks(smoke=smoke, repeats=repeats,
                              processes_bench=pool,
                              loadgen_bench=loadgen)
    print(render(snapshot))
    path = append_snapshot(snapshot, output)
    print(f"\nappended to {path} "
          f"({len(load_history(path))} snapshot(s))")
    if metrics_out:
        from repro import obs
        metrics_path = obs.write_metrics_file(metrics_out,
                                              obs.global_registry())
        print(f"wrote metrics to {metrics_path}")
    return 0
