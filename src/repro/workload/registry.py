"""Runtime element registry: the class names generated code refers to.

The C++ backend declares ``ActionPlus a1("A1", 4);``; the Python backend
calls ``ctx.new('ActionPlus', 'A1', 4)``.  Both resolve through this map,
which is the single source of truth connecting
:data:`repro.transform.algorithm.ACTION_TABLE` to implementations.
"""

from __future__ import annotations

from repro.workload.elements import ActionPlus, CriticalSection
from repro.workload.mpi import (
    MpiAllreduce,
    MpiBarrier,
    MpiBcast,
    MpiGather,
    MpiRecv,
    MpiReduce,
    MpiScatter,
    MpiSend,
)

ELEMENT_CLASSES = {
    "ActionPlus": ActionPlus,
    "CriticalSection": CriticalSection,
    "MpiSend": MpiSend,
    "MpiRecv": MpiRecv,
    "MpiBarrier": MpiBarrier,
    "MpiBcast": MpiBcast,
    "MpiScatter": MpiScatter,
    "MpiGather": MpiGather,
    "MpiReduce": MpiReduce,
    "MpiAllreduce": MpiAllreduce,
}
