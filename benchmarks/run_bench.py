#!/usr/bin/env python
"""Benchmark trajectory runner — ``prophet bench`` from a checkout.

Usage (repo root)::

    python benchmarks/run_bench.py            # full workloads
    python benchmarks/run_bench.py --smoke    # CI-sized
    prophet bench                             # same thing, installed

Every option is ``prophet bench``'s own (see ``--help``).

Writes ``BENCH_estimator.json`` (override with ``-o``); commit the
refreshed snapshot whenever a PR moves the numbers.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
