"""Dependency-free metrics primitives: counters, gauges, histograms.

The paper's whole method is measuring where time goes in a *modeled*
program; this module applies the same discipline to the predictor
itself.  Three metric kinds, deliberately mirroring the Prometheus data
model so the text export is boring and standard:

* :class:`Counter` — monotonically increasing totals (events processed,
  cache hits);
* :class:`Gauge` — a value that goes both ways (queue depth);
* :class:`Histogram` — observations bucketed into a **fixed** layout
  chosen at construction, so two runs of the same workload export the
  same bucket boundaries byte-for-byte (only counts and sums differ,
  and for deterministic quantities not even those).

All metrics live in a :class:`MetricsRegistry`.  Process-wide
subsystems (simulator, estimator, sweep engine, result cache) share the
module-level :func:`global_registry`; per-instance owners (the
evaluation service) create their own so two services in one process do
not bleed counters into each other.

Cost discipline
---------------

Metric updates happen at *operation* boundaries — per simulation run,
per evaluated point, per batch — never inside the simulator's per-event
loop.  Hot-loop instrumentation (heap-depth sampling, per-kind op
counts, span recording) is gated behind the process-wide *detail* flag
(:func:`set_detail` / :func:`detail_enabled`), off by default; the
bench harness pins the enabled overhead under
:data:`repro.bench.OBS_OVERHEAD_BUDGET`.  Instrumentation only ever
*reads* simulation state, so results are byte-identical either way.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Mapping, Sequence

from repro.errors import ProphetError

#: Every exported metric name is prefixed with this namespace.
NAMESPACE = "prophet"

#: Fixed bucket layouts (upper bounds; +Inf is implicit).  Shared by
#: every histogram of the same unit so exports line up across
#: subsystems.  Seconds: 100 µs … 30 s, roughly ×3 steps — wide enough
#: for a single analytic point and a cold interp sweep alike.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03,
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0)

#: Small-cardinality size layout (batch sizes, grid group sizes,
#: events-per-run in thousands would overflow — use COUNT buckets).
SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)

#: Large-count layout (events per run).
COUNT_BUCKETS: tuple[float, ...] = (
    10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000)

#: Ratio layout (coalesce ratio, cache hit rate per batch): 0..1.
RATIO_BUCKETS: tuple[float, ...] = (
    0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


class ObservabilityError(ProphetError):
    """Metric misuse: bad names, label mismatches, re-typed metrics."""


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name) \
            or name[0].isdigit():
        raise ObservabilityError(
            f"metric name {name!r} must be [a-zA-Z_][a-zA-Z0-9_]*")
    return name


def _format_value(value: float) -> str:
    """Prometheus-text float formatting (repr-exact, +Inf spelled out)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer() \
            and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Child:
    """One labeled series of a family (the unlabeled series included).

    Mutations take a per-child lock: the serving tier updates series
    from many handler threads at once, and an unsynchronized ``value +=
    amount`` silently loses increments.  Updates happen at operation
    boundaries (per run, per batch, per request), so the uncontended
    acquire is noise next to the work being counted.
    """

    __slots__ = ("labels", "lock")

    def __init__(self, labels: tuple[str, ...]) -> None:
        self.labels = labels
        self.lock = threading.Lock()


class CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        super().__init__(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up (inc by {amount})")
        with self.lock:
            self.value += amount


class GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        super().__init__(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self.lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self.lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self.lock:
            self.value -= amount

    def set_max(self, value: float) -> None:
        """Ratchet: keep the largest value seen (high-water marks)."""
        with self.lock:
            if value > self.value:
                self.value = float(value)


class HistogramChild(_Child):
    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, labels: tuple[str, ...],
                 bounds: tuple[float, ...]) -> None:
        super().__init__(labels)
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        bucket = bisect_left(self.bounds, value)
        with self.lock:
            self.bucket_counts[bucket] += 1
            self.sum += value
            self.count += 1


_CHILD_TYPES = {"counter": CounterChild, "gauge": GaugeChild,
                "histogram": HistogramChild}


class MetricFamily:
    """A named metric plus its labeled children.

    ``labels(v1, v2, ...)`` (positional, matching ``labelnames`` order)
    returns the child for those label values, creating it on first use.
    Families with no label names expose the operations of their single
    child directly (``inc``/``set``/``observe``/…).
    """

    __slots__ = ("name", "help", "type", "labelnames", "buckets",
                 "_children", "_lock")

    def __init__(self, name: str, help_text: str, metric_type: str,
                 labelnames: tuple[str, ...] = (),
                 buckets: tuple[float, ...] | None = None) -> None:
        self.name = _check_name(name)
        self.help = help_text
        self.type = metric_type
        self.labelnames = labelnames
        if metric_type == "histogram":
            if not buckets or list(buckets) != sorted(buckets):
                raise ObservabilityError(
                    f"histogram {name!r} needs sorted, non-empty buckets")
            self.buckets = tuple(float(b) for b in buckets)
        else:
            self.buckets = None
        self._children: dict[tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()
        if not labelnames:
            self.labels()  # materialize the single series eagerly

    def labels(self, *values) -> _Child:
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name!r} takes {len(self.labelnames)} "
                f"label value(s) {self.labelnames!r}, got {len(key)}")
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.type == "histogram":
                        child = HistogramChild(key, self.buckets)
                    else:
                        child = _CHILD_TYPES[self.type](key)
                    self._children[key] = child
        return child

    # Unlabeled convenience: family.inc(...) == family.labels().inc(...)
    def _single(self) -> _Child:
        if self.labelnames:
            raise ObservabilityError(
                f"metric {self.name!r} has labels {self.labelnames!r}; "
                "use .labels(...)")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._single().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._single().dec(amount)

    def set(self, value: float) -> None:
        self._single().set(value)

    def set_max(self, value: float) -> None:
        self._single().set_max(value)

    def observe(self, value: float) -> None:
        self._single().observe(value)

    @property
    def value(self) -> float:
        return self._single().value

    def children(self) -> list[_Child]:
        """Children in deterministic (sorted label values) order."""
        with self._lock:
            return [self._children[key]
                    for key in sorted(self._children)]


class MetricsRegistry:
    """A set of metric families with deterministic exports.

    ``counter``/``gauge``/``histogram`` are create-or-get: the first
    call defines the family, later calls return it (and reject
    mismatched types/labels/buckets loudly — two subsystems silently
    disagreeing about a metric is exactly the drift this module
    replaces).
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, help_text: str, metric_type: str,
                labelnames: Sequence[str],
                buckets: Sequence[float] | None = None) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, help_text, metric_type, labelnames,
                    tuple(buckets) if buckets is not None else None)
                self._families[name] = family
                return family
        if family.type != metric_type or family.labelnames != labelnames:
            raise ObservabilityError(
                f"metric {name!r} already registered as {family.type} "
                f"with labels {family.labelnames!r}")
        if metric_type == "histogram" \
                and family.buckets != tuple(float(b) for b in buckets):
            raise ObservabilityError(
                f"histogram {name!r} already registered with different "
                "buckets")
        return family

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "counter", labelnames)

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(self, name: str, help_text: str,
                  buckets: Sequence[float],
                  labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "histogram", labelnames,
                            buckets)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    def reset(self) -> None:
        """Drop every family (tests; benchmarks measuring cold state)."""
        with self._lock:
            self._families.clear()


# -- exports ------------------------------------------------------------------


def _label_str(labelnames: tuple[str, ...],
               values: tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{n}="{v}"' for n, v in zip(labelnames, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(*registries: MetricsRegistry) -> str:
    """All families of ``registries`` in Prometheus text format.

    Families sort by name, children by label values — the export is a
    pure function of the metric state, so two identical runs produce
    identical text (timing-valued metrics aside).
    """
    seen: set[str] = set()
    lines: list[str] = []
    families: list[MetricFamily] = []
    for registry in registries:
        for family in registry.families():
            if family.name in seen:
                raise ObservabilityError(
                    f"metric {family.name!r} exported by more than one "
                    "registry")
            seen.add(family.name)
            families.append(family)
    for family in sorted(families, key=lambda f: f.name):
        full = f"{NAMESPACE}_{family.name}"
        lines.append(f"# HELP {full} {family.help}")
        lines.append(f"# TYPE {full} {family.type}")
        for child in family.children():
            labels = _label_str(family.labelnames, child.labels)
            if family.type == "histogram":
                cumulative = 0
                for bound, count in zip(
                        (*family.buckets, math.inf),
                        child.bucket_counts):
                    cumulative += count
                    le = _label_str(family.labelnames, child.labels,
                                    f'le="{_format_value(bound)}"')
                    lines.append(f"{full}_bucket{le} {cumulative}")
                lines.append(f"{full}_sum{labels} "
                             f"{_format_value(child.sum)}")
                lines.append(f"{full}_count{labels} {child.count}")
            else:
                lines.append(
                    f"{full}{labels} {_format_value(child.value)}")
    return "\n".join(lines) + "\n" if lines else ""


def export_json(*registries: MetricsRegistry) -> dict:
    """All families of ``registries`` as one JSON-serializable dict.

    Layout (keys sorted, children in sorted label order)::

        {"prophet_sim_events_total": {
            "type": "counter", "help": "...",
            "series": [{"labels": {}, "value": 123.0}]},
         "prophet_estimator_evaluate_seconds": {
            "type": "histogram", "help": "...", "buckets": [...],
            "series": [{"labels": {"backend": "codegen"},
                        "bucket_counts": [...], "sum": ..., "count": ...}]}}
    """
    payload: dict[str, dict] = {}
    for registry in registries:
        for family in registry.families():
            full = f"{NAMESPACE}_{family.name}"
            if full in payload:
                raise ObservabilityError(
                    f"metric {family.name!r} exported by more than one "
                    "registry")
            series = []
            for child in family.children():
                labels = dict(zip(family.labelnames, child.labels))
                if family.type == "histogram":
                    series.append({"labels": labels,
                                   "bucket_counts": list(
                                       child.bucket_counts),
                                   "sum": child.sum,
                                   "count": child.count})
                else:
                    series.append({"labels": labels,
                                   "value": child.value})
            entry: dict = {"type": family.type, "help": family.help,
                           "series": series}
            if family.type == "histogram":
                entry["buckets"] = list(family.buckets)
            payload[full] = entry
    return dict(sorted(payload.items()))


def deterministic_view(exported: Mapping[str, dict]) -> dict:
    """``exported`` (from :func:`export_json`) minus timing-valued data.

    Every wall-clock metric in the codebase ends in ``_seconds``; this
    drops those families wholesale, leaving only deterministic counts —
    the subset the determinism tests byte-compare between two identical
    runs.
    """
    return {name: entry for name, entry in exported.items()
            if not name.endswith(("_seconds", "_seconds_total"))}


def write_metrics_file(path, *registries: MetricsRegistry,
                       spans: dict | None = None):
    """Write a metrics export to ``path``.

    ``.prom``/``.txt`` suffixes get the Prometheus text format;
    anything else gets JSON (with the span tree attached under
    ``"spans"`` when a profile was recorded).  Returns the path.
    """
    from pathlib import Path
    path = Path(path)
    if path.suffix in (".prom", ".txt"):
        path.write_text(render_prometheus(*registries),
                        encoding="utf-8")
    else:
        payload: dict = {"metrics": export_json(*registries)}
        if spans is not None:
            payload["spans"] = spans
        path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    return path


# -- the process-wide registry and detail gate --------------------------------

_GLOBAL = MetricsRegistry()

#: Hot-path instrumentation gate (see module docstring).  Read via
#: :func:`detail_enabled` once per *operation*, never per event.
_DETAIL = False


def global_registry() -> MetricsRegistry:
    """The process-wide registry shared by sim/estimator/sweep/cache."""
    return _GLOBAL


def counter(name: str, help_text: str,
            labelnames: Sequence[str] = ()) -> MetricFamily:
    return _GLOBAL.counter(name, help_text, labelnames)


def gauge(name: str, help_text: str,
          labelnames: Sequence[str] = ()) -> MetricFamily:
    return _GLOBAL.gauge(name, help_text, labelnames)


def histogram(name: str, help_text: str, buckets: Sequence[float],
              labelnames: Sequence[str] = ()) -> MetricFamily:
    return _GLOBAL.histogram(name, help_text, buckets, labelnames)


def detail_enabled() -> bool:
    return _DETAIL


def set_detail(enabled: bool) -> bool:
    """Set the hot-path instrumentation gate; returns the old value."""
    global _DETAIL
    previous = _DETAIL
    _DETAIL = bool(enabled)
    return previous


class detail:
    """``with obs.detail():`` — hot-path instrumentation on, restored
    on exit (the profile CLI, benchmarks, and tests use this)."""

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._previous = False

    def __enter__(self) -> "detail":
        self._previous = set_detail(self._enabled)
        return self

    def __exit__(self, *exc_info) -> bool:
        set_detail(self._previous)
        return False


__all__ = [
    "COUNT_BUCKETS", "LATENCY_BUCKETS_S", "MetricFamily",
    "MetricsRegistry", "NAMESPACE", "ObservabilityError",
    "RATIO_BUCKETS", "SIZE_BUCKETS", "counter", "detail",
    "detail_enabled", "deterministic_view", "export_json", "gauge",
    "global_registry", "histogram", "render_prometheus", "set_detail",
    "write_metrics_file",
]
