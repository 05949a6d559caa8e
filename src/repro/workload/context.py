"""Execution contexts: what ``ctx`` means inside generated model code.

One :class:`RuntimeState` per estimator run, one :class:`ProcessState` per
simulated MPI process, one :class:`ExecContext` per executing strand
(process main thread, parallel-region thread, fork arm).  Threads of a
process share its :class:`VarStore` — the per-process incarnation of the
generated C++ globals (SPMD: every rank owns a copy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import EstimatorError
from repro.lang.builtins import BUILTINS
from repro.lang.evaluator import c_div as _c_div, c_mod as _c_mod
from repro.machine.cluster import Cluster
from repro.sim.core import Simulation
from repro.sim.facility import Facility
from repro.estimator.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.mpi import Communicator


class VarStore:
    """Attribute-style store for the model's per-process globals."""

    def __init__(self, **initial) -> None:
        for name, value in initial.items():
            setattr(self, name, value)

    def snapshot(self) -> dict:
        return dict(self.__dict__)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"VarStore({inner})"


@dataclass
class RuntimeState:
    """Shared per-run state."""

    sim: Simulation
    cluster: Cluster
    comm: "Communicator"
    #: Either trace tier's recorder (TraceRecorder or
    #: SummaryTraceRecorder) — workload ops only call ``.record(...)``.
    trace: TraceRecorder
    model_name: str = "model"
    _uid_counter: int = 0

    def next_uid(self) -> int:
        uid = self._uid_counter
        self._uid_counter += 1
        return uid


@dataclass
class ProcessState:
    """Shared per-process state (threads of a process share all of it)."""

    pid: int
    v: VarStore
    locks: dict[str, Facility] = field(default_factory=dict)

    def lock(self, sim: Simulation, name: str) -> Facility:
        facility = self.locks.get(name)
        if facility is None:
            facility = Facility(sim, f"p{self.pid}.lock.{name}")
            self.locks[name] = facility
        return facility


class ExecContext:
    """The ``ctx`` object handed to generated model code.

    Identity and machine facts (``pid``, ``v``, ``size``, ``sim``,
    ``cpu``, …) are plain attributes bound at construction: they are
    immutable for the context's lifetime, and generated code reads them
    on every element execution — property indirection here was a
    measurable share of simulated-backend time.
    """

    #: C-semantics helpers exposed to generated expressions.
    c_div = staticmethod(_c_div)
    c_mod = staticmethod(_c_mod)
    builtins = BUILTINS

    def __init__(self, runtime: RuntimeState, process: ProcessState,
                 tid: int, uid: int | None = None) -> None:
        self.runtime = runtime
        self.process = process
        self.tid = tid
        self.uid = runtime.next_uid() if uid is None else uid
        # -- identity / machine shape (fixed per context) -------------
        self.pid: int = process.pid
        self.v: VarStore = process.v
        cluster = runtime.cluster
        self.size: int = cluster.params.processes
        self.nnodes: int = cluster.params.nodes
        self.nthreads: int = cluster.params.threads_per_process
        self.sim: Simulation = runtime.sim
        #: The processor pool of this process's node.
        self.cpu: Facility = cluster.cpu_of(process.pid)

    # -- element factory ---------------------------------------------------------

    def new(self, class_name: str, display_name: str, element_id: int):
        """Instantiate a runtime element (generated declarations call this)."""
        from repro.workload.registry import ELEMENT_CLASSES
        try:
            element_class = ELEMENT_CLASSES[class_name]
        except KeyError:
            raise EstimatorError(
                f"unknown runtime element class {class_name!r}") from None
        return element_class(self, display_name, element_id)

    # -- structured concurrency ------------------------------------------------

    def spawn_strand(self, name: str, tid: int,
                     body: Callable, *args):
        """Spawn a concurrent strand sharing this process's state."""
        child = ExecContext(self.runtime, self.process, tid)
        generator = body(child, child.uid, child.pid, child.tid, *args)
        process = self.sim.spawn(name, generator)
        return process

    def parallel_region(self, name: str, element_id: int,
                        num_threads: int, body):
        """OpenMP-style region: fork threads, run body, implicit barrier."""
        from repro.workload.openmp import parallel_region
        return parallel_region(self, name, element_id, num_threads, body)

    def fork_join(self, name: str, element_id: int, arms):
        """UML fork/join: run arm generators concurrently, join all."""
        from repro.workload.openmp import fork_join
        return fork_join(self, name, element_id, arms)

    def __repr__(self) -> str:
        return (f"<ExecContext uid={self.uid} pid={self.pid} "
                f"tid={self.tid}>")
