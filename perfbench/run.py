"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics and the ledger (printed to stderr).  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 on a
correct run, 1 when an output check failed, 2 when no result could be
measured (no result line then).
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import END_TO_END, PER_LAYER, BenchError, \
    import_program, log, new_run_dir, remove_run_dir, result_line  # noqa: E402

WORKLOADS = ("sweep_grid", "sweep_variants", "serve_routed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        import_program()
    except ImportError as exc:
        log(f"cannot import the program from src/: {exc}")
        return 2

    if args.workload == "serve_routed":
        from perfbench import serve as workload
    else:
        from perfbench import sweeps as workload
    measure = workload.run_traced if args.trace else workload.run
    run_dir = new_run_dir(args.workload)
    try:
        correct, attempted, failed, errors, metrics = measure(
            args.workload, args.seed, args.seconds, run_dir)
        line = result_line(correct, attempted, failed, metrics,
                           PER_LAYER if args.trace else END_TO_END)
    except BenchError as exc:
        log(f"no result: {exc}")
        return 2
    finally:
        remove_run_dir(run_dir)
    for error in errors[:20]:
        log(f"check failed: {error}")
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
