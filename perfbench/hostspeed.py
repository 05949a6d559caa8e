"""Timings scaled to a nominal host speed.

The benchmark runs on a few cores of a shared host.  Each core flips,
every few seconds, between running at full speed and running a third or
more slower while another tenant is busy on the same physical core, and
how much of a run falls in the slow state changes from one run to the
next; no length of run averages that out.  Every timing the benchmark
reports is therefore scaled to a nominal host speed.

While the program runs, a sampler process (``python3 -m
perfbench.hostspeed``) keeps one thread pinned to each core the
benchmark may use.  Every ``PERIOD_S`` each thread times a small fixed
piece of CPython work — compiling and loading a generated module, the
kind of interpreter work the program does — in CPU time, which is how
long that core now takes for it.  A stretch of the program's work is
scaled by ``CHUNK_NOMINAL_S`` over the mean sample on the cores it ran
on during that stretch: a time ``t`` measured while samples took twice
the nominal is reported as ``t / 2``, what it would have taken at the
nominal speed.  The sampler uses only the standard library, so no
change to the program changes it; it costs each core about 1%.  The
runs log the raw times next to the scaled ones.

    python3 -m perfbench.hostspeed --out SAMPLES.json   # until SIGTERM
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterable

from perfbench.common import ROOT, BenchError

#: Time between two samples of one core.
PERIOD_S = 0.05
#: CPU time of one sample on a core running at full speed (2-vCPU Xeon
#: host the benchmark was built on).
CHUNK_NOMINAL_S = 0.0005
#: Shortest stretch whose own samples scale it: a shorter one, such as
#: one served batch, is scaled by the samples of the ``MIN_WINDOW_S``
#: around it.
MIN_WINDOW_S = 1.0
STOP_TIMEOUT_S = 10.0
_SOURCE = "\n".join(f"def f{i}(a, b):\n    x = a * {i} + b\n    return x\n"
                    for i in range(12))


def usable_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def chunk_s() -> float:
    """CPU seconds this thread takes for the fixed piece of work."""
    start = time.thread_time()
    exec(compile(_SOURCE, "<perfbench sample>", "exec"), {})
    return time.thread_time() - start


# -- the sampler process ------------------------------------------------------

def _sample_core(cpu: int, stop: threading.Event, out: list) -> None:
    os.sched_setaffinity(0, {cpu})
    while not stop.wait(PERIOD_S):
        out.append((time.perf_counter(), chunk_s()))


def sampler_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.hostspeed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    gc.disable()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.set())
    samples: dict[int, list] = {cpu: [] for cpu in usable_cpus()}
    threads = [threading.Thread(target=_sample_core, args=(cpu, stop, out))
               for cpu, out in samples.items()]
    for thread in threads:
        thread.start()
    print("sampling", flush=True)
    for thread in threads:
        thread.join()
    args.out.write_text(json.dumps(samples), encoding="ascii")
    return 0


# -- the benchmark's side -----------------------------------------------------

class HostSpeed:
    """Samples each usable core while the ``with`` block runs; after
    it, :meth:`scale` turns measured stretches into nominal ones."""

    def __init__(self, run_dir: Path) -> None:
        self.out = run_dir / "hostspeed.json"
        self.proc: subprocess.Popen | None = None
        self.samples: dict[int, tuple[list[float], list[float]]] = {}

    def __enter__(self) -> "HostSpeed":
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostspeed", "--out",
             str(self.out)], cwd=ROOT, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True)
        if self.proc.stdout.readline().strip() != "sampling":
            self._stop()
            raise BenchError("the host-speed sampler did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()

    def _stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.terminate()
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if proc.returncode == 0 and self.out.exists():
            for cpu, rows in json.loads(self.out.read_text("ascii")).items():
                self.samples[int(cpu)] = ([t for t, _c in rows],
                                          [c for _t, c in rows])

    def scale(self, start: float, end: float,
              cpus: Iterable[int] | None = None) -> float:
        """The stretch ``[start, end]`` (``perf_counter`` times), run on
        ``cpus`` (default: every usable core), in nominal seconds."""
        if not self.samples:
            raise BenchError("no host-speed samples (the sampler failed)")
        middle = (start + end) / 2
        low = min(start, middle - MIN_WINDOW_S / 2)
        high = max(end, middle + MIN_WINDOW_S / 2)
        chunks: list[float] = []
        for cpu in self.samples if cpus is None else cpus:
            times, values = self.samples[cpu]
            chunks += values[bisect.bisect_left(times, low):
                             bisect.bisect_right(times, high)]
        if not chunks:
            raise BenchError("no host-speed samples in a measured stretch")
        return (end - start) * CHUNK_NOMINAL_S * len(chunks) / sum(chunks)


if __name__ == "__main__":
    sys.exit(sampler_main(sys.argv[1:]))
