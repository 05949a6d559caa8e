"""Whole-model static analysis over the region-tree control flow.

The checker (:mod:`repro.checker`) validates one diagram at a time —
guards parse, arities match, regions are structured.  This package
answers the *whole-model* questions those local rules cannot: do the
sends and receives across the process axis match?  Can this guard ever
be true?  Does the model depend on ``pid`` at all?  What is the
predicted time bounded by, before any backend runs?

The pipeline mirrors the paper's Model Checker position in front of the
transformation (Fig. 2): each process behavior is lowered through the
existing :mod:`repro.transform.flowgraph` region tree into a per-process
control-flow graph of program points (:mod:`repro.analysis.cfg`),
dataflow passes run over it (:mod:`repro.analysis.comm`,
:mod:`repro.analysis.bounds`, :mod:`repro.analysis.facts`), and the
machine-readable result — an :class:`~repro.analysis.report.AnalysisReport`
keyed by structural hash — feeds the registry (ingest gate), the sweep
runner (pre-flight), the CLI (``prophet lint``), and ``/metrics``.

The names below load on first use: the analytic backend imports
:mod:`repro.analysis.facts` alone, without the analyzer and its rules.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.analyzer": (
        "ModelAnalyzer", "analysis_cache_stats", "analyze_model",
    ),
    "repro.analysis.report": ("AnalysisReport",),
    "repro.analysis.rules": ("ANALYSIS_RULES", "analysis_rule_ids"),
})
