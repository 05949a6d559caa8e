"""Benchmark of the Performance Prophet reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 25 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and the traced
per-layer ledger.
"""
