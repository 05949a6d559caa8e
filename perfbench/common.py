"""Shared helpers: checkout paths, run directories, statistics, memory,
the metric tables and the result line."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Sequence

#: Root of the checkout the benchmark runs from.
ROOT = Path(__file__).resolve().parent.parent
#: The program under test, imported from source.
SRC = ROOT / "src"
#: Every file a run writes lives under here and is removed at the end.
RUNS = ROOT / ".perfbench_runs"

#: End-to-end metrics (tracing off): name → unit.  Every workload
#: reports every one; what the unit of work is depends on the workload
#: (a cold ``run_sweep`` call for the sweeps, one batch for serving).
END_TO_END = {
    "points_per_s": "points/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "capacity_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name → unit.  A layer that does not
#: run on a workload reports 0.
PER_LAYER = {
    "expand.s": "s",
    "expand.variants": "count",
    "xmlio.parse.calls": "count",
    "xmlio.parse.s": "s",
    "xmlio.parse.useful_ratio": "ratio",
    "checker.calls": "count",
    "checker.s": "s",
    "checker.useful_ratio": "ratio",
    "analysis.preflight.calls": "count",
    "analysis.preflight.s": "s",
    "analysis.preflight.skips": "count",
    "transform.prepare.codegen.calls": "count",
    "transform.prepare.codegen.s": "s",
    "transform.prepare.interp.calls": "count",
    "transform.prepare.interp.s": "s",
    "analytic.compile.calls": "count",
    "analytic.compile.s": "s",
    "analytic.grid.points": "count",
    "analytic.grid.s": "s",
    "estimator.run.calls": "count",
    "estimator.run.s": "s",
    "estimator.run.events": "count",
    "estimator.run.events_per_s": "events/s",
    "workload.ops.action": "count",
    "workload.ops.send": "count",
    "workload.ops.recv": "count",
    "workload.ops.allreduce": "count",
    "workload.ops.fork": "count",
    "sweep.dispatch.s": "s",
    "sweep.dispatch.busy_ratio": "ratio",
    "sweep.runner.self_s": "s",
    "cache.put.calls": "count",
    "cache.put.s": "s",
    "cache.get.calls": "count",
    "cache.get.s": "s",
    "cache.hit_ratio": "ratio",
    "http.front_hop.ms_p50": "ms",
    "http.replica_hop.ms_p50": "ms",
    "router.submit.ms_p50": "ms",
    "router.self.ms_p50": "ms",
    "router.forwards": "count",
    "router.hedges": "count",
    "router.failovers": "count",
    "admission.wait.ms_p50": "ms",
    "admission.rejected": "count",
    "batcher.plan.ms_p50": "ms",
    "batcher.coalesced": "count",
    "registry.resolve.calls": "count",
    "registry.ingest.calls": "count",
    "registry.ingest.ms_p50": "ms",
    "service.submit.ms_p50": "ms",
    "service.run_jobs.ms_p50": "ms",
    "loadgen.sent": "count",
    "loadgen.completed": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
    "trace.ledger_error_ratio": "ratio",
}

#: The ledger criterion: layer self times plus the unattributed
#: remainder must equal the traced wall within this share.
LEDGER_TOLERANCE = 0.10


class BenchError(RuntimeError):
    """The run cannot produce a valid result (no result is printed)."""


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the program;
    raises ImportError when the checkout has no program."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def new_run_dir(tag: str) -> Path:
    path = RUNS / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_run_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        RUNS.rmdir()  # only when no other run is using it
    except OSError:
        pass


# -- statistics ---------------------------------------------------------------

def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``percent``% of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent!r}")
    ordered = sorted(values)
    rank = math.ceil(percent / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, percent: float) -> int:
    """Samples strictly above the nearest-rank ``percent`` of ``count``."""
    return count - max(math.ceil(percent / 100 * count), 1)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- memory -------------------------------------------------------------------

def self_and_children_peak_rss_mb() -> float:
    """Peak RSS of this process or any child it has waited for (pool
    workers included once the pool has shut down), in MB."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024


def process_peak_rss_mb(pid: int) -> float:
    """High-water RSS (``VmHWM``) of a running process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError(f"no VmHWM for process {pid}")


# -- result line --------------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float], units: dict[str, str]) -> str:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
    })


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
