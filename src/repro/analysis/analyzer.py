"""The analyzer driver: lower once, run every configured pass.

:class:`ModelAnalyzer` mirrors :class:`repro.checker.ModelChecker` —
an MCF ``CheckingConfig`` enables/disables rules and overrides their
severities — but runs the whole-model passes of
:mod:`repro.analysis.rules` over a lowered CFG.  Two MCF free-form
parameters steer it:

* ``analysis-sizes`` — comma-separated process counts the
  communication matcher and cost bounds enumerate (default ``1,2,3,4``);
* any rule id under ``<rule ...>`` — standard enable/severity control.

:func:`analyze_model` adds a process-local memo keyed by
``(model structural hash, sizes)`` for default-configuration runs, so
registry ingest and sweep pre-flight re-analyze a model structure only
once per process.
"""

from __future__ import annotations

from repro import obs
from repro.analysis.cfg import build_model_cfg
from repro.analysis.comm import DEFAULT_ANALYSIS_SIZES
from repro.analysis.report import AnalysisReport
from repro.analysis.rules import (ANALYSIS_RULES, AnalysisContext,
                                  AnalysisRule)
from repro.checker.diagnostics import Severity
from repro.errors import CheckError
from repro.uml.model import Model
from repro.util.lru import LRUMap
from repro.xmlio.mcf import CheckingConfig

#: Default-config reports per (model hash, sizes); the report is
#: immutable once built, so sharing across callers is safe.
_MEMO: LRUMap = LRUMap(capacity=128)


def _parse_sizes(raw: str) -> tuple[int, ...]:
    sizes: list[int] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = int(part)
        except ValueError:
            raise CheckError(
                f"analysis-sizes entry {part!r} is not an integer")
        if value < 1:
            raise CheckError(
                f"analysis-sizes entry {value} must be >= 1")
        if value not in sizes:
            sizes.append(value)
    if not sizes:
        raise CheckError("analysis-sizes lists no process counts")
    return tuple(sizes)


class ModelAnalyzer:
    """Runs the registered analysis rules, honoring an MCF config."""

    def __init__(self, config: CheckingConfig | None = None,
                 sizes: tuple[int, ...] | None = None) -> None:
        self.config = config or CheckingConfig()
        if sizes is None:
            raw = self.config.params.get("analysis-sizes")
            sizes = (_parse_sizes(raw) if raw
                     else DEFAULT_ANALYSIS_SIZES)
        self.sizes = tuple(sizes)
        self._rules: list[AnalysisRule] = []
        for rule_id in sorted(ANALYSIS_RULES):
            setting = self.config.setting(rule_id)
            if not setting.enabled:
                continue
            severity = (Severity.from_name(setting.severity)
                        if setting.severity is not None else None)
            self._rules.append(ANALYSIS_RULES[rule_id](severity))

    @property
    def active_rules(self) -> list[str]:
        return [rule.rule_id for rule in self._rules]

    def analyze(self, model: Model,
                model_hash: str | None = None) -> AnalysisReport:
        """Run all active passes; never raises on findings."""
        mcfg = build_model_cfg(model)
        ctx = AnalysisContext(model=model, mcfg=mcfg, sizes=self.sizes,
                              params=dict(self.config.params))
        report = AnalysisReport(model_name=model.name,
                                model_hash=model_hash,
                                sizes=self.sizes)
        for rule in self._rules:
            report.diagnostics.extend(rule.check(ctx))
            report.rules_run.append(rule.rule_id)
        report.facts = ctx.facts
        # Looked up per call, so a registry reset never strands an
        # orphaned family (as in sim.core._run_metrics).
        findings = obs.counter(
            "analysis_total",
            "Static-analysis findings by rule and severity.",
            ("rule", "severity"))
        for diagnostic in report.diagnostics:
            findings.labels(diagnostic.rule_id,
                            diagnostic.severity.value).inc()
        return report


def analyze_model(model: Model, model_hash: str | None = None,
                  config: CheckingConfig | None = None,
                  sizes: tuple[int, ...] | None = None) -> AnalysisReport:
    """One-shot analysis, memoized for default-config callers.

    The memo applies only when ``model_hash`` identifies the structure
    and no custom ``config`` is supplied — exactly the registry-ingest
    and sweep-pre-flight paths that would otherwise re-analyze the same
    structure per job.
    """
    cacheable = model_hash is not None and config is None
    key = (model_hash, tuple(sizes) if sizes is not None else None)
    if cacheable:
        cached = _MEMO.get(key)
        if cached is not None:
            return cached
    report = ModelAnalyzer(config, sizes).analyze(model, model_hash)
    if cacheable:
        _MEMO.put(key, report)
    return report


def analysis_cache_stats() -> dict:
    """Memo counters (surfaced in the service's ``/stats``)."""
    return _MEMO.stats()


__all__ = ["ModelAnalyzer", "analysis_cache_stats", "analyze_model"]
