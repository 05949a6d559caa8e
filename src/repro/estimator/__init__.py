"""The Performance Estimator (Fig. 2, right half).

Takes the PMP (transformed model) and SP (system parameters), builds the
machine model, integrates program and machine, evaluates by simulation,
and produces the trace file (TF) that feeds performance visualization.
"""

from repro.estimator.trace import (
    TRACE_TIERS,
    SummaryTraceRecorder,
    TraceRecord,
    TraceRecorder,
    make_recorder,
    read_trace,
    validate_trace_tier,
    write_trace,
)
from repro.estimator.manager import (
    EstimationResult,
    PerformanceEstimator,
    estimate,
)
from repro.estimator.analysis import TraceAnalysis
from repro.estimator.backends import (
    BACKENDS,
    SIMULATED_BACKENDS,
    GridPoint,
    evaluate_grid,
    evaluate_point,
)

__all__ = [
    "TRACE_TIERS", "TraceRecord", "TraceRecorder",
    "SummaryTraceRecorder", "make_recorder",
    "validate_trace_tier", "read_trace", "write_trace",
    "PerformanceEstimator", "EstimationResult", "estimate",
    "TraceAnalysis",
    "BACKENDS", "SIMULATED_BACKENDS", "GridPoint",
    "evaluate_grid", "evaluate_point",
]
