"""The sweep workloads: ``sweep_grid`` and ``sweep_variants``.

Each timed repetition is a fresh process (``python3 -m perfbench.sweeps``)
with an empty result-cache directory — what one ``prophet sweep``
invocation pays.  The child builds its inputs from the seed, makes one
``run_sweep`` call, then checks the outputs outside the timed window
and reports to the parent through a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from perfbench import inputs
from perfbench.common import ROOT, BenchError, import_program, log, \
    median, nearest_rank, self_and_children_peak_rss_mb
from perfbench.hostspeed import HostSpeed, usable_cpus

#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: A child that takes longer than this has hung.
CHILD_TIMEOUT_S = 120
#: Sampled points per check (codegen vs interp, grid vs per-point).
CHECK_SAMPLE = 6


# -- output checks ------------------------------------------------------------

def check_results(workload: str, seed: int, spec, results) -> list[str]:
    """Every problem found in a sweep's results (empty when correct).

    * no point failed;
    * codegen payloads equal interp's exactly (``predicted_time``,
      ``events``): on every ``sweep_variants`` point, and on a seeded
      sample of ``sweep_grid`` points, re-evaluated with interp;
    * a seeded sample of analytic points equals per-point
      ``evaluate_point``.
    """
    from repro.estimator.backends import evaluate_point
    errors = [f"{r.job.describe()}: {r.status}: {r.error}"
              for r in results if not r.ok]
    if errors:
        return errors
    models = dict(spec.models)

    def point_key(result):
        job = result.job
        return (job.model_hash, job.params, job.network, job.seed)

    def same(result, predicted_time, events, what: str) -> None:
        if (result.predicted_time, result.events) != (predicted_time,
                                                       events):
            errors.append(
                f"{result.job.describe()}: {what} gives "
                f"({predicted_time!r}, {events}) but the sweep gave "
                f"({result.predicted_time!r}, {result.events})")

    rng = inputs.seeded_rng(seed, "check")
    codegen = [r for r in results if r.job.backend == "codegen"]
    if workload == "sweep_variants":
        interp = {point_key(r): r for r in results
                  if r.job.backend == "interp"}
        for result in codegen:
            other = interp[point_key(result)]
            same(result, other.predicted_time, other.events, "interp")
    else:
        for result in rng.sample(codegen, min(CHECK_SAMPLE, len(codegen))):
            job = result.job
            payload = evaluate_point(models[job.model_label], "interp",
                                     job.params, job.network, job.seed,
                                     trace="summary")
            same(result, payload["predicted_time"], payload["events"],
                 "interp")
    analytic = [r for r in results if r.job.backend == "analytic"]
    for result in rng.sample(analytic, min(CHECK_SAMPLE, len(analytic))):
        job = result.job
        payload = evaluate_point(models[job.model_label], "analytic",
                                 job.params, job.network, job.seed)
        same(result, payload["predicted_time"], payload["events"],
             "per-point evaluate_point")
    return errors


# -- the child: one cold sweep ------------------------------------------------

def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.sweeps")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    import_program()
    from repro.sweep import ResultCache, run_sweep
    spec = inputs.sweep_spec(args.workload, args.seed)
    cache = ResultCache(args.cache_dir)
    tracer = None
    if args.trace_dir is not None:
        from perfbench.layers import install_sweep
        tracer = install_sweep(args.trace_dir)
    grid = args.workload == "sweep_grid"

    start = time.perf_counter()
    if tracer is not None:
        root, token = tracer.begin("root")
    result = run_sweep(spec, cache=cache,
                       executor="process" if grid else "serial",
                       max_workers=inputs.GRID_WORKERS if grid else None)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.finish(root, token)
        tracer.unwrap_all()
        tracer.dump_to_dir()

    results = list(result)
    report = {
        "start": start,
        "wall_s": wall,
        "points": len(results),
        "failed": sum(1 for r in results if not r.ok),
        "events": sum(r.events for r in results),
        "preflight_skips": sum(1 for r in results if not r.ok and
                               (r.error or "").startswith("preflight:")),
        "peak_rss_mb": self_and_children_peak_rss_mb(),
        "errors": check_results(args.workload, args.seed, spec, results),
    }
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


# -- the parent: repetitions, metrics, the traced ledger ----------------------

def _pinned_cpu(workload: str) -> int | None:
    """The core the serial sweeps run on (the pool's sweeps float)."""
    return None if workload == "sweep_grid" else usable_cpus()[0]


def _one_sweep(workload: str, seed: int, run_dir: Path, index: int,
               trace: bool) -> dict:
    """One fresh-process sweep, in a process group of its own: when it
    fails, hangs or is interrupted, its pool workers go with it."""
    rep_dir = run_dir / f"rep{index}"
    rep_dir.mkdir()
    out = rep_dir / "report.json"
    command = [sys.executable, "-m", "perfbench.sweeps",
               "--workload", workload, "--seed", str(seed),
               "--cache-dir", str(rep_dir / "cache"), "--out", str(out)]
    if trace:
        (rep_dir / "trace").mkdir()
        command += ["--trace-dir", str(rep_dir / "trace")]
    cpu = _pinned_cpu(workload)
    spawned = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
        preexec_fn=None if cpu is None
        else lambda: os.sched_setaffinity(0, {cpu}))
    try:
        _out, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"sweep child hung for {exc.timeout:g} s") \
                from None
        raise
    if child.returncode != 0:
        raise BenchError(f"sweep child failed ({child.returncode}):\n"
                         f"{stderr[-4000:]}")
    report = json.loads(out.read_text("utf-8"))
    report["spawned"] = spawned
    report["rep_s"] = time.perf_counter() - spawned
    report["trace_dir"] = str(rep_dir / "trace") if trace else None
    return report


def _repeat(workload: str, seed: int, seconds: float, run_dir: Path,
            traced: Callable[[int], bool]) -> list[dict]:
    """Fresh-process sweeps until ``seconds`` are used (at least
    ``MIN_REPS``); ``traced(i)`` says whether repetition i is traced.
    Each repetition gets its set-up and sweep times scaled to the
    nominal host (``setup_scaled``, ``wall_scaled``)."""
    reps: list[dict] = []
    start = time.perf_counter()
    cpu = _pinned_cpu(workload)
    cpus = None if cpu is None else [cpu]
    with HostSpeed(run_dir) as speed:
        while True:
            reps.append(_one_sweep(workload, seed, run_dir, len(reps),
                                   traced(len(reps))))
            elapsed = time.perf_counter() - start
            typical = median([rep["rep_s"] for rep in reps])
            if len(reps) >= MIN_REPS and elapsed + typical > seconds:
                break
    for rep in reps:
        rep["setup_scaled"] = speed.scale(rep["spawned"], rep["start"], cpus)
        rep["wall_scaled"] = speed.scale(rep["start"],
                                         rep["start"] + rep["wall_s"], cpus)
    return reps


def _outcome(reps: list[dict]) -> tuple[bool, int, int, list[str]]:
    errors = [error for rep in reps for error in rep["errors"]]
    attempted = sum(rep["points"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return not errors and not failed, attempted, failed, errors


def run(workload: str, seed: int, seconds: float, run_dir: Path):
    """The timed run: end-to-end metrics with tracing off, timings
    scaled to the nominal host."""
    reps = _repeat(workload, seed, seconds, run_dir, lambda _i: False)
    walls = [rep["wall_scaled"] for rep in reps]
    setups = [rep["setup_scaled"] for rep in reps]
    metrics = {
        "points_per_s": median([rep["points"] / wall
                                for rep, wall in zip(reps, walls)]),
        "p50_ms": median(walls) * 1e3,
        "p99_ms": nearest_rank(walls, 99) * 1e3,
        "capacity_rps": 1 / median([setup + wall
                                    for setup, wall in zip(setups, walls)]),
        "setup_s": median(setups),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }
    log(f"{workload}: {len(reps)} cold sweep(s) of {reps[0]['points']} "
        f"points, {reps[0]['events']} events each; raw median wall "
        f"{median([rep['wall_s'] for rep in reps]) * 1e3:.1f} ms, "
        f"scaled {metrics['p50_ms']:.1f} ms")
    return (*_outcome(reps), metrics)


def run_traced(workload: str, seed: int, seconds: float, run_dir: Path):
    """The traced run: untraced and traced sweeps alternate; the first
    traced one gives the per-layer metrics and the ledger."""
    from perfbench import layers
    from perfbench.tracer import SpanForest, load_spans
    reps = _repeat(workload, seed, seconds, run_dir, lambda i: i % 2 == 1)
    plain = [rep["wall_scaled"] for rep in reps[0::2]]
    traced = [rep["wall_scaled"] for rep in reps[1::2]]
    first = reps[1]
    forest = SpanForest(load_spans(
        sorted(Path(first["trace_dir"]).glob("spans-*.json"))))
    metrics = layers.layer_metrics(forest, inputs.distinct_models(workload))
    rows, accounting, ledger_errors = layers.ledger_metrics(
        forest, first["wall_s"])
    metrics.update(accounting)
    metrics["analysis.preflight.skips"] = first["preflight_skips"]
    metrics.update(dict.fromkeys(layers.SERVE_COUNTERS, 0.0))
    metrics["trace.overhead_ratio"] = median(traced) / median(plain)
    log(f"{workload} ledger (one traced cold sweep):\n"
        + layers.format_ledger(rows, first["wall_s"]))
    correct, attempted, failed, errors = _outcome(reps)
    return (correct and not ledger_errors, attempted, failed,
            errors + ledger_errors, metrics)


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
