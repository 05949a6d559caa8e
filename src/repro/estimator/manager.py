"""The Simulation Manager: runs a performance model on a machine model.

This is the Performance Estimator's orchestration (Fig. 2): take the PMP
(the transformed model), build the machine from the SP, spawn one
simulated process per rank executing the model body, run the simulation,
and assemble the result (predicted time + trace file + machine
statistics).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.errors import EstimatorError
from repro.machine.cluster import Cluster
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.sim.core import Simulation
from repro.sim.random import RandomStreams
from repro.estimator.trace import (
    TraceRecord,
    make_recorder,
    validate_trace_tier,
    write_trace,
)
from repro.transform.algorithm import ModelIR, as_ir, model_of
from repro.uml.model import Model
from repro.workload.context import (
    ExecContext,
    ProcessState,
    RuntimeState,
    VarStore,
)
from repro.workload.mpi import Communicator


@dataclass
class EstimationResult:
    """What one estimator run produces."""

    model_name: str
    params: SystemParameters
    total_time: float
    trace: list[TraceRecord]
    process_finish_times: list[float]
    node_utilization: list[float]
    events_processed: int
    mode: str
    #: Number of records the run produced (equals ``len(trace)`` on the
    #: ``full`` tier; preserved exactly by ``summary``).
    trace_records: int = 0
    #: Which trace tier produced this result (see TRACE_TIERS).
    trace_tier: str = "full"
    #: Per-kind record counts (either tier).
    trace_counts: dict = field(default_factory=dict)
    #: Post-run diagnostics: messages that drained into an inbox but were
    #: never matched by any receive (MPI's unexpected-message queue at
    #: simulation end).  The run still completed — these are warnings.
    warnings: list[str] = field(default_factory=list)

    def write_trace_file(self, path: str | Path,
                         fmt: str = "csv") -> Path:
        """Write the TF for visualization (Fig. 2's Teuta ← TF arrow)."""
        if self.trace_tier != "full":
            raise EstimatorError(
                f"cannot write a trace file from a {self.trace_tier!r}-"
                "tier run; re-estimate with trace='full'")
        return write_trace(self.trace, path, fmt)

    @property
    def makespan(self) -> float:
        return self.total_time

    def summary(self) -> str:
        lines = [
            f"model:      {self.model_name}",
            f"machine:    {self.params.describe()}",
            f"mode:       {self.mode}",
            f"predicted:  {self.total_time:.6g} s",
            f"trace:      {self.trace_records} record(s) "
            f"[{self.trace_tier}]",
            f"sim events: {self.events_processed}",
        ]
        for index, utilization in enumerate(self.node_utilization):
            lines.append(f"node {index} utilization: {utilization:.1%}")
        for warning in self.warnings:
            lines.append(f"warning:    {warning}")
        return "\n".join(lines)


@dataclass
class PreparedModel:
    """An evaluable representation, ready to run many times.

    The paper's workflow is transform once, evaluate often (parameter
    sweeps over SP); preparing separates the one-time transformation/
    compilation cost from each evaluation.
    """

    model_name: str
    mode: str
    entry: object        # callable(ctx) -> generator
    init_globals: object  # callable(store, c_div, c_mod, builtins)


class PerformanceEstimator:
    """Evaluates performance models by simulation.

    ``mode`` selects the evaluable representation:

    * ``"codegen"`` (default) — transform to Python and execute the
      generated module (the paper's machine-efficient path);
    * ``"interp"`` — interpret the UML model tree directly (the
      human-usable-but-slow path the paper argues against).

    ``trace`` selects the recording tier (see
    :data:`repro.estimator.trace.TRACE_TIERS`): ``"full"`` materializes
    every record, ``"summary"`` keeps only per-kind counts (identical
    ``trace_records`` totals, no allocation).
    Predicted time and event counts are byte-identical across tiers —
    recording is observation, never behavior.
    """

    def __init__(self, params: SystemParameters | None = None,
                 network: NetworkConfig | None = None,
                 seed: int = 0, trace: str = "full") -> None:
        self.params = params or SystemParameters()
        self.network = network or NetworkConfig()
        self.seed = seed
        self.trace = validate_trace_tier(trace)

    def estimate(self, model: Model, mode: str = "codegen",
                 check: bool = True) -> EstimationResult:
        if check:
            from repro.checker import ModelChecker
            ModelChecker().assert_valid(model)
        return self.run_prepared(self.prepare(model, mode))

    def prepare(self, model: Model | ModelIR,
                mode: str = "codegen") -> PreparedModel:
        """One-time transformation of ``model`` (or of its already-built
        IR, shared with the other backends) into an evaluable form."""
        name = model_of(model).name
        with obs.span("estimator.prepare", backend=mode, model=name):
            start = time.perf_counter()
            if mode == "codegen":
                entry, init_globals = self._prepare_codegen(as_ir(model))
            elif mode == "interp":
                entry, init_globals = self._prepare_interp(as_ir(model))
            else:
                raise EstimatorError(
                    f"unknown evaluation mode {mode!r} "
                    "(expected 'codegen' or 'interp')")
            obs.histogram(
                "estimator_prepare_seconds",
                "Wall time of one model transformation (prepare).",
                obs.LATENCY_BUCKETS_S, labelnames=("backend",),
            ).labels(mode).observe(time.perf_counter() - start)
        return PreparedModel(name, mode, entry, init_globals)

    def run_prepared(self, prepared: PreparedModel) -> EstimationResult:
        """Evaluate a prepared model (repeatable, no transform cost)."""
        return self._run(prepared.model_name, prepared.entry,
                         prepared.init_globals, prepared.mode)

    # -- representation preparation -------------------------------------------

    @staticmethod
    def _prepare_codegen(ir: ModelIR):
        from repro.transform.python.emitter import transform_to_python
        artifacts = transform_to_python(ir)
        module = artifacts.compile()
        return (getattr(module, artifacts.entry_point),
                module.init_globals)

    @staticmethod
    def _prepare_interp(ir: ModelIR):
        from repro.transform.interp import ModelInterpreter
        interpreter = ModelInterpreter(ir)
        return interpreter.main, interpreter.init_globals

    # -- the run itself -----------------------------------------------------------

    def _run(self, model_name: str, entry, init_globals,
             mode: str) -> EstimationResult:
        with obs.span("estimator.run", backend=mode, model=model_name):
            start = time.perf_counter()
            result = self._run_body(model_name, entry, init_globals,
                                    mode)
            obs.histogram(
                "estimator_evaluate_seconds",
                "Wall time of one backend evaluation.",
                obs.LATENCY_BUCKETS_S, labelnames=("backend",),
            ).labels(mode).observe(time.perf_counter() - start)
        obs.counter("estimator_runs_total",
                    "Completed estimator evaluations.",
                    labelnames=("backend",)).labels(mode).inc()
        if obs.detail_enabled() and result.trace_counts:
            ops = obs.counter(
                "sim_ops_total",
                "Workload operations recorded per trace kind "
                "(detail-gated; requires a counting trace tier).",
                labelnames=("kind",))
            for kind, count in result.trace_counts.items():
                ops.labels(kind).inc(count)
        return result

    def _run_body(self, model_name: str, entry, init_globals,
                  mode: str) -> EstimationResult:
        sim = Simulation()
        cluster = Cluster(sim, self.params, self.network)
        comm = Communicator(sim, cluster)
        trace = make_recorder(self.trace)
        runtime = RuntimeState(sim=sim, cluster=cluster, comm=comm,
                               trace=trace, model_name=model_name)
        runtime.random = RandomStreams(self.seed)  # available to elements

        contexts = []
        for pid in range(self.params.processes):
            store = VarStore()
            init_globals(store, ExecContext.c_div, ExecContext.c_mod,
                         ExecContext.builtins)
            process_state = ProcessState(pid=pid, v=store)
            ctx = ExecContext(runtime, process_state, tid=0)
            contexts.append(ctx)
            sim.spawn(f"rank{pid}", entry(ctx))

        total = sim.run()

        finish_times = []
        for process in sim.all_processes:
            if process.name.startswith("rank"):
                finish_times.append(process.finished_at or total)
        for pid, (ctx, finished) in enumerate(zip(contexts, finish_times)):
            trace.record("process", -1, f"rank{pid}", ctx.uid, pid, 0,
                         0.0, finished)

        warnings = []
        for pid, mailbox in enumerate(comm.mailboxes):
            leftovers = mailbox.pending()
            if not leftovers:
                continue
            pairs = ", ".join(
                f"(from rank {message.source}, tag {message.tag}, "
                f"{message.nbytes:g} bytes)"
                for message in leftovers)
            warnings.append(
                f"{len(leftovers)} message(s) to rank {pid} were never "
                f"received: {pairs}")

        return EstimationResult(
            model_name=model_name,
            params=self.params,
            total_time=total,
            trace=trace.sorted(),
            process_finish_times=finish_times,
            node_utilization=cluster.utilization_by_node(),
            events_processed=sim.events_processed,
            mode=mode,
            trace_records=len(trace),
            trace_tier=trace.tier,
            trace_counts=trace.counts_by_kind(),
            warnings=warnings,
        )


def estimate(model: Model,
             params: SystemParameters | None = None,
             network: NetworkConfig | None = None,
             mode: str = "codegen",
             seed: int = 0,
             check: bool = True,
             trace: str = "full") -> EstimationResult:
    """One-shot convenience wrapper around :class:`PerformanceEstimator`."""
    return PerformanceEstimator(params, network, seed, trace).estimate(
        model, mode=mode, check=check)
