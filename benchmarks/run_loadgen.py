#!/usr/bin/env python
"""Concurrent-serving load benchmark — thin wrapper over
``repro.service.loadgen``.

Usage (repo root)::

    python benchmarks/run_loadgen.py                    # full sizing
    python benchmarks/run_loadgen.py --smoke            # CI-sized
    python benchmarks/run_loadgen.py -o latency.json    # write snapshot

Runs real HTTP against an in-process server: concurrent fast batches
racing a heavy simulated stream, a byte-identity check against a serial
reference, and a queue_depth-1 overload probe.  The identity,
malformed-response, and 429-deadline contracts are hard — a violation
exits non-zero, which is what CI's ``loadgen-smoke`` leg asserts.  The
one-batch-at-a-time baseline the concurrent service was first measured
against is a recorded number in ``BENCH_estimator.json``'s history.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.service.loadgen import run_loadgen  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_loadgen",
        description="concurrent-serving load benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizing (CI's loadgen-smoke leg)")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="also write the snapshot JSON here "
                             "(CI uploads it as an artifact)")
    args = parser.parse_args(argv)
    snapshot = run_loadgen(smoke=args.smoke)
    text = json.dumps(snapshot, indent=1, sort_keys=True)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
