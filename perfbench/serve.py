"""The serving workload: ``serve_routed``.

``prophet route`` in front of two ``prophet serve`` replicas, each a
subprocess started through :mod:`perfbench.launch` with CLI defaults
(only addresses, directories and replica names are given).  Load comes
from this process over real HTTP through ``ServiceClient``: at most two
sender threads, each with one connection at a time.

* Set-up: spawn the fleet, wait until the router reports every replica
  healthy, ingest the serving models, prime the warm set.  Done
  ``SETUPS`` times (fresh registries, caches and processes each time);
  the last fleet carries the load.
* Phase A: closed loop on one connection, ``PHASE_A_PER_S`` batches per
  second of the run (at least ``PHASE_A_BATCHES``), in whole cycles of
  ``SERVE_CYCLE``: batch latency, send to full response.
* Phase B: closed loop on two connections with the same mix,
  ``PHASE_B_PER_S`` batches per second of the run, in
  ``PHASE_B_PARTS`` parts: capacity, the median of the parts'.
* Checks, outside both phases: every batch ok, no ``degraded`` marker,
  zero router failovers, every ingest stored on both replicas, and
  every ok result equal to an in-process serial ``EvaluationService``
  on ``RESULT_PAYLOAD_KEYS``.

Both phases are closed loops because an open loop at a third to 40% of
phase B capacity is not steady on a 2-vCPU host that runs up to a third
slower for minutes at a time: the two connections queue up in the slow
stretches, and over ten seeds p99 varied 4x and p50 2x.
"""

from __future__ import annotations

import json
import math
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import inputs
from perfbench.common import ROOT, BenchError, log, median, nearest_rank, \
    process_peak_rss_mb, samples_beyond
from perfbench.hostspeed import HostSpeed

SENDERS = 2                 # phase B connections (nproc = 2)
SETUPS = 2                  # fleet set-ups per run; setup_s is their median
#: Phase B runs in this many equal parts; its rates are their medians.
PHASE_B_PARTS = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
#: Phase A batches in the traced run (the ledger needs no p99).
TRACED_PHASE_A_BATCHES = 300
#: The generator fell behind — the run is invalid — when, at the 99th
#: percentile, it sent a batch later than this after its connection
#: came free.
LATE_LIMIT_MS = 100.0
#: Samples a tail percentile needs beyond it to be reported.
TAIL_SAMPLES = 10

_LISTENING = re.compile(r" on (http://[0-9.]+:[0-9]+)")


# -- the fleet ----------------------------------------------------------------

class Fleet:
    """Router and replicas as subprocesses, rooted at ``root``."""

    def __init__(self, root: Path, trace_dir: Path | None = None) -> None:
        self.root = root
        self.trace_dir = trace_dir
        self.procs: dict[str, subprocess.Popen] = {}
        self.urls: dict[str, str] = {}

    def _spawn(self, name: str, role: str, command: list[str]) -> None:
        launcher = [sys.executable, "-u", "-m", "perfbench.launch",
                    "--role", role]
        if self.trace_dir is not None:
            launcher += ["--trace-dir", str(self.trace_dir)]
        with open(self.root / f"{name}.log", "w", encoding="utf-8") as out:
            self.procs[name] = subprocess.Popen(
                launcher + ["--", *command], cwd=ROOT, stdout=out,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)

    def _await_url(self, name: str, deadline: float) -> None:
        log_path = self.root / f"{name}.log"
        while time.perf_counter() < deadline:
            match = _LISTENING.search(log_path.read_text("utf-8"))
            if match:
                self.urls[name] = match.group(1)
                return
            if self.procs[name].poll() is not None:
                break
            time.sleep(0.01)
        raise BenchError(f"{name} did not start:\n"
                         f"{log_path.read_text('utf-8')[-3000:]}")

    def start(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT_S
        replicas = list(inputs.SERVE_REPLICAS)
        for name in replicas:
            (self.root / name).mkdir()
            self._spawn(name, "replica", [
                "serve", "--registry", str(self.root / name / "registry"),
                "--cache-dir", str(self.root / name / "cache"),
                "--port", "0", "--replica-id", name])
        for name in replicas:
            self._await_url(name, deadline)
        self._spawn("router", "router", [
            "route", "--port", "0", "--replicas",
            ",".join(self.urls[name] for name in replicas)])
        self._await_url("router", deadline)
        from repro.service import ServiceClient, ServiceClientError
        client = ServiceClient(self.urls["router"], timeout=5)
        while True:
            try:
                if client.health()["status"] == "ok":
                    return
            except ServiceClientError:
                pass
            if time.perf_counter() > deadline:
                raise BenchError("the fleet never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return sum(process_peak_rss_mb(proc.pid)
                   for proc in self.procs.values())

    def counter(self, name: str, family: str, label: tuple | None = None
                ) -> float:
        """Sum of a counter family on one process's ``/metrics``."""
        from repro.service import ServiceClient
        metrics = ServiceClient(self.urls[name], timeout=10).metrics()
        series = metrics.get(family, {}).get("series", [])
        return sum(entry["value"] for entry in series
                   if label is None
                   or entry["labels"].get(label[0], "").startswith(label[1]))

    def stop(self) -> None:
        """SIGINT (the servers drain and exit; traced ones write their
        spans), then SIGKILL whatever is still running."""
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        stuck = []
        for name, proc in self.procs.items():
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                stuck.append(name)
        if stuck and self.trace_dir is not None:
            raise BenchError(f"{', '.join(stuck)} did not stop; spans lost")


def set_up(root: Path, models, warm, trace_dir: Path | None = None
           ) -> tuple[Fleet, float]:
    """A fresh fleet with the models ingested and the warm set primed;
    returns it with its set-up time (spawn → primed)."""
    from repro.service import ServiceClient
    start = time.perf_counter()
    fleet = Fleet(root, trace_dir)
    try:
        fleet.start()
        client = ServiceClient(fleet.urls["router"])
        for label, xml, ref in models:
            stored = client.ingest_xml(xml)["ref"]
            if stored != ref:
                raise BenchError(f"{label} stored as {stored}, not {ref}")
        for item in warm:
            ok, error, _results = execute(client, item)
            if not ok:
                raise BenchError(f"priming the warm set failed: {error}")
    except BaseException:
        fleet.stop()
        raise
    return fleet, time.perf_counter() - start


# -- load ---------------------------------------------------------------------

@dataclass
class Outcome:
    item: inputs.Item
    free: float         # when the sender could send: its previous reply
    sent: float
    done: float
    ok: bool
    error: str | None
    results: list[dict] | None

    @property
    def latency_s(self) -> float:
        return self.done - self.sent

    @property
    def late_s(self) -> float:
        return self.sent - self.free


def execute(client, item: inputs.Item) -> tuple[bool, str | None, list | None]:
    """Send one item; (ok, error, results).  Transport errors, non-2xx
    responses, non-ok results and degraded markers all fail it."""
    from repro.service import ServiceClientError
    try:
        if item.kind == "ingest":
            ref = client.ingest_xml(item.xml)["ref"]
            return (ref == item.ref,
                    None if ref == item.ref else f"ingest stored {ref}", None)
        response = client.evaluate(item.requests)
    except ServiceClientError as exc:
        return False, str(exc), None
    results = response.get("results") or []
    if response.get("degraded") or response.get("stats", {}).get("degraded"):
        return False, "degraded response", results
    if len(results) != item.points:
        return False, f"{len(results)} results for {item.points}", results
    for result in results:
        if result.get("status") != "ok" or "degraded" in result:
            return False, f"result not ok: {result}", results
    return True, None, results


def closed_loop(url: str, items, senders: int, tracer=None
                ) -> tuple[list[Outcome], float]:
    """``senders`` threads, each with its own client (one connection at
    a time), send the next of ``items`` as soon as their previous reply
    is in, until ``items`` run out.  Returns the outcomes and the wall
    time from the start to the last reply."""
    from repro.service import ServiceClient
    lock = threading.Lock()
    pending = iter(items)
    outcomes: list[Outcome] = []
    errors: list[BaseException] = []
    start = time.perf_counter()

    def take():
        with lock:
            return next(pending, None)

    def sender() -> None:
        client = ServiceClient(url)
        free = start
        try:
            while True:
                item = take()
                if item is None:
                    return
                sent = time.perf_counter()
                if tracer is not None:
                    root, token = tracer.begin("root", start=sent)
                ok, error, results = execute(client, item)
                if tracer is not None:
                    tracer.finish(root, token)
                done = time.perf_counter()
                outcomes.append(Outcome(item, free, sent, done, ok, error,
                                        results))
                free = done
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outcomes, max(outcome.done for outcome in outcomes) - start


# -- checks -------------------------------------------------------------------

def check_outcomes(outcomes: list[Outcome], models, fleet: Fleet,
                   reference_root: Path) -> list[str]:
    """Every problem with the served results (empty when correct)."""
    from repro.service import ServiceClient
    errors = [f"{o.item.kind}: {o.error}" for o in outcomes if not o.ok]
    failovers = fleet.counter("router", "router_failovers_total")
    if failovers:
        errors.append(f"{failovers:g} router failover(s)")
    ingested = {o.item.ref for o in outcomes if o.item.kind == "ingest"}
    for name in fleet.urls:
        if name == "router":
            continue
        stored = {model["ref"]
                  for model in ServiceClient(fleet.urls[name]).list_models()}
        if ingested - stored:
            errors.append(f"{len(ingested - stored)} ingest(s) missing "
                          f"on {name}")
    return errors + reference_mismatches(outcomes, models, reference_root)


def reference_mismatches(outcomes: list[Outcome], models,
                         reference_root: Path) -> list[str]:
    """Served results that differ, on ``RESULT_PAYLOAD_KEYS``, from an
    in-process serial ``EvaluationService`` holding the same models
    (every distinct request once), or from another serving of the same
    request."""
    from repro.service import EvaluationService
    from repro.service.request import request_from_payload
    from repro.service.service import RESULT_PAYLOAD_KEYS
    errors = []
    served: dict[str, dict] = {}
    for outcome in outcomes:
        if not outcome.ok or not outcome.results:
            continue
        for request, result in zip(outcome.item.requests, outcome.results):
            key = json.dumps(request, sort_keys=True)
            payload = {name: result.get(name) for name in RESULT_PAYLOAD_KEYS}
            if served.setdefault(key, payload) != payload:
                errors.append(f"{key}: served two different results")
    reference = EvaluationService(reference_root)
    for _label, xml, _ref in models:
        reference.ingest_xml(xml)
    keys = sorted(served)
    for first in range(0, len(keys), 64):
        chunk = keys[first:first + 64]
        response = reference.submit([request_from_payload(json.loads(key))
                                     for key in chunk])
        for key, result in zip(chunk, response.results):
            expected = {name: result.get(name)
                        for name in RESULT_PAYLOAD_KEYS}
            if result.get("status") != "ok" or expected != served[key]:
                errors.append(f"{key}: served {served[key]}, the serial "
                              f"reference gives {expected}")
    return errors


# -- metrics ------------------------------------------------------------------

def tail_ms(latencies: list[float], percent: float) -> float:
    """Nearest-rank ``percent`` in ms; refuses a tail with fewer than
    ``TAIL_SAMPLES`` samples beyond it."""
    if samples_beyond(len(latencies), percent) < TAIL_SAMPLES:
        raise BenchError(f"p{percent:g} needs {TAIL_SAMPLES} samples beyond "
                         f"it; phase A has only {len(latencies)} batches")
    return nearest_rank(latencies, percent) * 1e3


def _late_p99_ms(outcomes: list[Outcome]) -> float:
    return nearest_rank([o.late_s for o in outcomes], 99) * 1e3


def _phase_batches(seconds: float) -> tuple[int, int]:
    phase_a = max(inputs.PHASE_A_BATCHES, inputs.PHASE_A_PER_S * seconds)
    return (inputs.SERVE_CYCLE * math.ceil(phase_a / inputs.SERVE_CYCLE),
            max(1, int(inputs.PHASE_B_PER_S * seconds)))


def _outcome(outcomes: list[Outcome], errors: list[str]):
    failed = sum(1 for outcome in outcomes if not outcome.ok)
    return not errors, len(outcomes), failed, errors


def run(workload: str, seed: int, seconds: float, run_dir: Path):
    """The timed run: end-to-end metrics with tracing off, timings
    scaled to the nominal host."""
    load = inputs.serve_inputs(seed, *_phase_batches(seconds))
    setups: list[tuple[float, float]] = []
    with HostSpeed(run_dir) as speed:
        for index in range(SETUPS):
            (run_dir / f"fleet{index}").mkdir()
            start = time.perf_counter()
            fleet, setup_s = set_up(run_dir / f"fleet{index}", load.models,
                                    load.warm)
            setups.append((start, start + setup_s))
            if index < SETUPS - 1:
                fleet.stop()
        try:
            url = fleet.urls["router"]
            phase_a, _wall = closed_loop(url, load.phase_a, 1)
            parts = []
            size = -(-len(load.phase_b) // PHASE_B_PARTS)
            for first in range(0, len(load.phase_b), size):
                start = time.perf_counter()
                part, wall = closed_loop(
                    url, load.phase_b[first:first + size], SENDERS)
                parts.append((part, start, wall))
            peak_rss = fleet.peak_rss_mb()
        except BaseException:
            fleet.stop()
            raise
    phase_b = [outcome for part, _start, _wall in parts for outcome in part]
    try:
        outcomes = phase_a + phase_b
        errors = check_outcomes(outcomes, load.models, fleet,
                                run_dir / "reference")
    finally:
        fleet.stop()
    late = _late_p99_ms(outcomes)
    if late > LATE_LIMIT_MS:
        raise BenchError(f"the load generator fell behind: late p99 "
                         f"{late:.1f} ms > {LATE_LIMIT_MS:g} ms")
    latencies = [speed.scale(o.sent, o.done) for o in phase_a]
    points_per_s, batches_per_s, raw_rates = [], [], []
    for part, start, wall in parts:
        completed = [o for o in part if o.ok]
        scaled = speed.scale(start, start + wall)
        points_per_s.append(sum(o.item.points for o in completed) / scaled)
        batches_per_s.append(len(completed) / scaled)
        raw_rates.append(len(completed) / wall)
    metrics = {
        "points_per_s": median(points_per_s),
        "p50_ms": median(latencies) * 1e3,
        "p99_ms": tail_ms(latencies, 99),
        "capacity_rps": median(batches_per_s),
        "setup_s": median([speed.scale(*setup) for setup in setups]),
        "peak_rss_mb": peak_rss,
    }
    raw = [o.latency_s for o in phase_a]
    log(f"serve_routed: set-ups "
        f"{', '.join(f'{end - start:.2f}' for start, end in setups)} s raw; "
        f"phase A {len(phase_a)} batches, raw p50 {median(raw) * 1e3:.2f} "
        f"ms, p99 {tail_ms(raw, 99):.2f} ms; phase B {len(phase_b)} batches "
        f"at raw {', '.join(f'{rate:.1f}' for rate in raw_rates)} batches/s "
        f"(scaled {', '.join(f'{rate:.1f}' for rate in batches_per_s)}); "
        f"generator late p99 {late:.2f} ms")
    return (*_outcome(outcomes, errors), metrics)


def run_traced(workload: str, seed: int, seconds: float, run_dir: Path):
    """The traced run.  A fresh untraced fleet and a fresh traced fleet
    (wrappers in every process) each run phase B, which gives the
    tracing overhead; the traced fleet then runs a shorter phase A, and
    its spans over both phases give the per-layer metrics and the
    ledger."""
    from perfbench import layers
    from perfbench.tracer import SpanForest, load_spans
    load = inputs.serve_inputs(seed, TRACED_PHASE_A_BATCHES,
                               _phase_batches(seconds / 2)[1])
    trace_dir = run_dir / "spans"
    trace_dir.mkdir()
    (run_dir / "plain").mkdir()
    (run_dir / "traced").mkdir()
    with HostSpeed(run_dir) as speed:
        fleet, _setup = set_up(run_dir / "plain", load.models, load.warm)
        try:
            plain_start = time.perf_counter()
            plain, plain_wall = closed_loop(fleet.urls["router"],
                                            load.phase_b, SENDERS)
        finally:
            fleet.stop()

        fleet, _setup = set_up(run_dir / "traced", load.models, load.warm,
                               trace_dir)
        try:
            tracer = layers.install_bench(trace_dir)
            url = fleet.urls["router"]
            traced_start = time.perf_counter()
            phase_b, traced_wall = closed_loop(url, load.phase_b, SENDERS,
                                               tracer)
            phase_a, _wall = closed_loop(url, load.phase_a, 1, tracer=tracer)
            tracer.unwrap_all()
            counters = {
                "router.hedges": fleet.counter("router",
                                               "router_hedges_total"),
                "router.failovers": fleet.counter("router",
                                                  "router_failovers_total"),
                "admission.rejected": sum(
                    fleet.counter(name, "service_admission_total",
                                  ("outcome", "rejected"))
                    for name in fleet.urls if name != "router"),
                "batcher.coalesced": sum(
                    fleet.counter(name, "service_coalesced_total")
                    for name in fleet.urls if name != "router"),
            }
        finally:
            fleet.stop()
    tracer.dump_to_dir()

    outcomes = phase_b + phase_a
    forest = SpanForest(load_spans(sorted(trace_dir.glob("spans-*.json"))))
    # Only the load's trees: set-up traffic and health probes are not
    # part of the traced wall.
    forest = SpanForest(span for span in forest.spans
                        if forest.root_of[span.id].name == "root")
    wall = sum(o.latency_s for o in outcomes)
    metrics = layers.layer_metrics(forest, len(load.models) + sum(
        1 for o in outcomes if o.item.kind == "ingest"))
    rows, accounting, ledger_errors = layers.ledger_metrics(forest, wall)
    metrics.update(accounting)
    metrics.update(counters)
    metrics["analysis.preflight.skips"] = 0.0
    metrics["loadgen.sent"] = len(outcomes)
    metrics["loadgen.completed"] = sum(1 for o in outcomes if o.ok)
    metrics["loadgen.late_p99_ms"] = _late_p99_ms(outcomes)
    plain_rate = sum(1 for o in plain if o.ok) / speed.scale(
        plain_start, plain_start + plain_wall)
    traced_rate = sum(1 for o in phase_b if o.ok) / speed.scale(
        traced_start, traced_start + traced_wall)
    metrics["trace.overhead_ratio"] = plain_rate / traced_rate
    log("serve_routed ledger (request-seconds over every traced batch):\n"
        + layers.format_ledger(rows, wall))
    errors = [f"{o.item.kind}: {o.error}" for o in outcomes + plain
              if not o.ok] + ledger_errors
    return (*_outcome(outcomes + plain, errors), metrics)
