"""The kernel's golden outputs: the points, how each is run, and the writer.

``tests/sim/kernel_golden.json`` pins what the simulation kernel
produces for a fixed corpus of models and machines: per point, the
``repr`` of the predicted time, the event count, the trace length and
the per-kind trace counts at the ``full`` tier, plus a digest of the
sorted trace (or the error string of a point that fails).  A second
section pins one hand-driven contended link: the delivery time of each
message and the link's statistics.

``tests/sim/test_kernel_golden.py`` checks the current kernel against
the fixture.  Regenerating the fixture is a deliberate act, never part
of a test run: a kernel change must keep every value, so regenerate
only when a change is meant to move them, and say why in the commit::

    PYTHONPATH=src python tests/sim/kernel_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).with_name("kernel_golden.json")
REPO = Path(__file__).resolve().parents[2]

PROCESSES = (1, 2, 4, 8)
#: 0 makes every send a rendezvous; None keeps the default threshold.
THRESHOLDS = (0.0, None)
CONTENDED_PROCESSES = (2, 4, 8)
RANDOM_SEEDS = range(24)


def _models() -> dict:
    """name → zero-argument builder, in a fixed order."""
    from repro.samples import (build_kernel6_loopnest_model,
                               build_kernel6_model, build_sample_model)
    from repro.scenarios import builtin_builders
    from repro.uml.random_models import RandomModelConfig, random_model

    if str(REPO) not in sys.path:
        sys.path.insert(0, str(REPO))
    from tests.analysis.conftest import MUTANTS, ring_model

    builders = {
        "sample": build_sample_model,
        "kernel6": build_kernel6_model,
        # The default loop nest runs ~10^5 events a point; a small
        # one keeps the whole corpus a few seconds.
        "kernel6_loopnest": lambda: build_kernel6_loopnest_model(n=20,
                                                                 m=4),
    }
    builders.update(sorted(builtin_builders().items()))
    builders["ring"] = ring_model
    builders.update((f"mutant:{name}", build)
                    for name, build in sorted(MUTANTS.items()))
    # Half the corpus forks (strands) and runs collectives; the rest
    # keeps the generator's defaults.
    forked = RandomModelConfig(target_actions=12, max_depth=2,
                               p_collective=0.3, p_fork=0.25)
    for seed in RANDOM_SEEDS:
        config = forked if seed % 2 == 0 else None
        builders[f"random:{seed}"] = (
            lambda seed=seed, config=config: random_model(seed, config))
    return builders


#: Models that send point-to-point, so a contended link can queue them.
P2P_MODELS = ("sample", "butterfly_allreduce", "master_worker",
              "pipeline", "stencil2d", "ring", "mutant:drop-recv",
              "mutant:flip-tag", "mutant:head-to-head",
              "mutant:skew-collective")


def _machine(processes: int, threshold, contended: bool):
    from repro.machine.network import NetworkConfig
    from repro.machine.params import SystemParameters

    # Two nodes with cyclic placement: neighbouring ranks talk across
    # the network, ranks two apart over shared memory.
    params = SystemParameters(nodes=min(processes, 2),
                              processors_per_node=(processes + 1) // 2,
                              processes=processes, placement="cyclic")
    fields = {}
    if threshold is not None:
        fields["eager_threshold"] = threshold
    if contended:
        fields.update(contention=True, links=1)
    return params, NetworkConfig(**fields)


def points() -> list[tuple[str, str, int, object, bool]]:
    """Every point as (key, model, processes, threshold, contended)."""
    out = []
    for name in _models():
        for processes in PROCESSES:
            for threshold in THRESHOLDS:
                out.append((name, processes, threshold, False))
    for name in P2P_MODELS:
        for processes in CONTENDED_PROCESSES:
            for threshold in THRESHOLDS:
                out.append((name, processes, threshold, True))
    return [(_key(*point), *point) for point in out]


def _key(name: str, processes: int, threshold, contended: bool) -> str:
    eager = "default" if threshold is None else f"{threshold:g}"
    link = " link=1" if contended else ""
    return f"{name} P={processes} eager={eager}{link}"


def _trace_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr((record.kind, record.element_id, record.element,
                            record.uid, record.pid, record.tid,
                            record.start, record.end)).encode())
    return digest.hexdigest()


def run_points() -> dict:
    """key → outcome for every point."""
    from repro.estimator.manager import PerformanceEstimator

    builders = _models()
    prepared = {}
    outcomes = {}
    for key, name, processes, threshold, contended in points():
        if name not in prepared:
            prepared[name] = PerformanceEstimator().prepare(
                builders[name](), mode="codegen")
        params, network = _machine(processes, threshold, contended)
        estimator = PerformanceEstimator(params, network, seed=0,
                                         trace="full")
        try:
            result = estimator.run_prepared(prepared[name])
        except Exception as exc:  # a failing point pins its message
            outcomes[key] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        outcomes[key] = {
            "predicted_time": repr(result.total_time),
            "events": result.events_processed,
            "trace_records": result.trace_records,
            "trace_counts": dict(sorted(result.trace_counts.items())),
            "trace_sha256": _trace_digest(result.trace),
        }
    return outcomes


def contended_link() -> dict:
    """Three messages, one shared link.

    Ranks 0 and 1 each send an eager message at t=0 (to ranks 2 and 3),
    so the second queues on the link behind the first.  Rank 4 sends a
    rendezvous message to rank 5, whose pull queues behind both.  Each
    receiver posts at t=0, so its receive completes at its message's
    delivery.
    """
    from repro.estimator.trace import TraceRecorder
    from repro.machine.cluster import Cluster
    from repro.machine.network import NetworkConfig
    from repro.machine.params import SystemParameters
    from repro.sim.core import Simulation
    from repro.workload.context import (ExecContext, ProcessState,
                                        RuntimeState, VarStore)
    from repro.workload.mpi import Communicator

    sim = Simulation()
    cluster = Cluster(sim, SystemParameters(nodes=6, processes=6),
                      NetworkConfig(latency=1e-3, bandwidth=1e6,
                                    eager_threshold=1000.0,
                                    contention=True, links=1))
    comm = Communicator(sim, cluster)
    runtime = RuntimeState(sim=sim, cluster=cluster, comm=comm,
                           trace=TraceRecorder())
    ctx = [ExecContext(runtime, ProcessState(pid, VarStore()), tid=0)
           for pid in range(6)]
    deliveries = {}

    def sender(pid, dest, nbytes):
        yield from comm.send(ctx[pid], dest=dest, nbytes=nbytes, tag=0)

    def receiver(pid, source):
        yield from comm.recv(ctx[pid], source=source, nbytes=0.0, tag=0)
        deliveries[f"{source}->{pid}"] = repr(sim.now)

    for source, dest, nbytes in ((0, 2, 500.0), (1, 3, 800.0),
                                 (4, 5, 4000.0)):
        sim.spawn(f"rank{source}", sender(source, dest, nbytes))
        sim.spawn(f"rank{dest}", receiver(dest, source))
    total = sim.run()
    link = cluster.network.link
    return {
        "deliveries": deliveries,
        "total": repr(total),
        "events": sim.events_processed,
        "link": {
            "requests": link.requests,
            "completions": link.completions,
            "busy_time": repr(link.busy_time()),
            "utilization": repr(link.utilization()),
            "mean_queue_length": repr(link.mean_queue_length()),
        },
        "network": {"bytes_moved": repr(cluster.network.bytes_moved),
                    "messages": cluster.network.messages},
    }


def main() -> None:
    document = {"points": run_points(), "contended_link": contended_link()}
    FIXTURE.write_text(json.dumps(document, indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {len(document['points'])} points to {FIXTURE}")


if __name__ == "__main__":
    main()
