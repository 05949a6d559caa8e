"""The trace file (TF of Fig. 2).

"Element TF represents the trace file, which is generated by the
Performance Estimator as a result of the performance evaluation.  Teuta
uses TF for the visualization of performance results."

A trace is a flat list of interval records; CSV and JSONL writers/readers
round-trip it.  All analysis and visualization consume only this format.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro.errors import TraceError

#: Known record kinds (free-form kinds are allowed; these are the core set).
CORE_KINDS = frozenset({
    "action", "critical", "send", "recv", "barrier", "bcast", "scatter",
    "gather", "reduce", "allreduce", "parallel", "fork", "process",
})

#: Recording tiers, cheapest last.  ``full`` materializes every
#: :class:`TraceRecord` (visualization, trace files); ``summary`` keeps
#: only per-kind counts (sweeps — the cached ``trace_records`` payload
#: count is preserved exactly).
TRACE_TIERS = ("full", "summary")


@dataclass(frozen=True)
class TraceRecord:
    kind: str
    element_id: int
    element: str
    uid: int
    pid: int
    tid: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise TraceError(
                f"trace record for {self.element!r} ends before it starts "
                f"({self.end} < {self.start})")

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Collects full records during a simulation run (the ``full`` tier)."""

    tier = "full"

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(self, kind: str, element_id: int, element: str, uid: int,
               pid: int, tid: int, start: float, end: float) -> TraceRecord:
        entry = TraceRecord(kind, element_id, element, uid, pid, tid,
                            start, end)
        self.records.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.records)

    def counts_by_kind(self) -> dict[str, int]:
        """Record count per kind (what the ``summary`` tier keeps)."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def sorted(self) -> list[TraceRecord]:
        """Records ordered by (start, pid, tid, uid) — canonical TF order."""
        return sorted(self.records,
                      key=lambda r: (r.start, r.pid, r.tid, r.uid, r.end))


class SummaryTraceRecorder:
    """Counts records per kind without materializing them.

    The sweep engine only ever reads ``len(trace)`` (the cached
    ``trace_records`` payload key), so recording at sweep scale can be a
    dict increment instead of a frozen-dataclass construction.  ``len``
    and ``counts_by_kind`` match the ``full`` tier exactly — including
    the interval validation, so a malformed record fails the run on
    either tier rather than silently caching on one and raising on the
    other.  Only the record list is not kept.
    """

    tier = "summary"

    __slots__ = ("counts", "_total")

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._total = 0

    def record(self, kind: str, element_id: int, element: str, uid: int,
               pid: int, tid: int, start: float, end: float) -> None:
        if end < start:  # the same check TraceRecord.__post_init__ runs
            raise TraceError(
                f"trace record for {element!r} ends before it starts "
                f"({end} < {start})")
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        self._total += 1
        return None

    def __len__(self) -> int:
        return self._total

    def counts_by_kind(self) -> dict[str, int]:
        return dict(self.counts)

    def sorted(self) -> list[TraceRecord]:
        return []


def validate_trace_tier(tier: str) -> str:
    if tier not in TRACE_TIERS:
        raise TraceError(
            f"unknown trace tier {tier!r} "
            f"(expected one of {', '.join(TRACE_TIERS)})")
    return tier


def make_recorder(tier: str = "full"):
    """The recorder implementing ``tier`` (see :data:`TRACE_TIERS`)."""
    validate_trace_tier(tier)
    if tier == "full":
        return TraceRecorder()
    return SummaryTraceRecorder()


_FIELDS = ["kind", "element_id", "element", "uid", "pid", "tid",
           "start", "end"]


def write_trace(records: Iterable[TraceRecord], path: str | Path,
                fmt: str = "csv") -> Path:
    """Write a TF in ``csv`` or ``jsonl`` format."""
    path = Path(path)
    records = list(records)
    if fmt == "csv":
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=_FIELDS)
            writer.writeheader()
            for record in records:
                writer.writerow(asdict(record))
    elif fmt == "jsonl":
        with path.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(asdict(record)) + "\n")
    else:
        raise TraceError(f"unknown trace format {fmt!r} "
                         "(expected 'csv' or 'jsonl')")
    return path


def read_trace(path: str | Path) -> list[TraceRecord]:
    """Read a TF back; format detected from content."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        return []
    first_line = text.splitlines()[0]
    try:
        if first_line.startswith("{"):
            return [_record_from_dict(json.loads(line))
                    for line in text.splitlines() if line.strip()]
        reader = csv.DictReader(text.splitlines())
        return [_record_from_dict(row) for row in reader]
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise TraceError(f"malformed trace file {path}: {exc}") from exc


def _record_from_dict(data: dict) -> TraceRecord:
    return TraceRecord(
        kind=str(data["kind"]),
        element_id=int(data["element_id"]),
        element=str(data["element"]),
        uid=int(data["uid"]),
        pid=int(data["pid"]),
        tid=int(data["tid"]),
        start=float(data["start"]),
        end=float(data["end"]),
    )
