"""Span recording for the benchmark's traced runs.

The program is traced from the outside: :meth:`Tracer.wrap` replaces a
public function or method with a wrapper that records a span around
each call.  A span is ``(id, parent, name, start, end, role, attrs)``;
ids are ``"<pid>:<n>"`` so spans from several processes join into one
tree.  The current span lives in a :mod:`contextvars` variable, so each
thread of a threaded server builds its own tree.

Spans cross three kinds of boundary:

* fork: pool workers inherit the wrappers, start an empty span list
  and write it to ``out_dir`` when they exit (:meth:`capture_forks`);
* thread pools: :meth:`Tracer.propagate_to_thread_pools` runs every
  submitted callable in a copy of the submitter's context;
* HTTP: the client sends its current span id in :data:`PARENT_HEADER`
  and the server's handler span takes it as its parent.

Spans stay in memory and are written out once, at the end.  Times are
``time.perf_counter()``, which is the system-wide monotonic clock on
Linux, so spans from different processes share one time axis.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

#: HTTP header that carries the caller's span id to the callee.
PARENT_HEADER = "X-Perfbench-Parent"

_CURRENT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


class Span:
    """One timed call: a node of the cross-process span tree."""

    __slots__ = ("id", "parent", "name", "start", "end", "role", "attrs")

    def __init__(self, span_id: str, parent: str | None, name: str,
                 start: float, end: float, role: str,
                 attrs: dict | None = None) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.role = role
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end,
                self.role, self.attrs]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


def current_span_id() -> str | None:
    """The id of the innermost open span in this context, if any."""
    return _CURRENT.get()


class Tracer:
    """Records the spans of one process in memory."""

    def __init__(self, role: str, out_dir: Path | None = None) -> None:
        self.role = role
        self.out_dir = out_dir
        self._wrapped: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, parent: str | None = None, *,
              start: float | None = None, attrs: dict | None = None,
              remote: bool = False) -> tuple[Span, contextvars.Token]:
        """Open a span and make it current.

        The parent is the current span unless ``remote`` is set, in
        which case ``parent`` (an id from another process) is used.
        """
        if not remote:
            parent = _CURRENT.get()
        span = Span(f"{self.pid}:{next(self._ids)}", parent, name,
                    time.perf_counter() if start is None else start,
                    0.0, self.role, attrs)
        return span, _CURRENT.set(span.id)

    def finish(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    def wrap(self, owner: object, attr: str, name: str, *,
             before: Callable[[tuple, dict], dict] | None = None,
             after: Callable[[object], dict] | None = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``.  ``before`` turns the call's arguments and
        ``after`` its result into span attributes."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else None
            span, token = tracer.begin(name, attrs=attrs)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                tracer.finish(span, token)
                raise
            tracer.finish(span, token)
            if after is not None:
                span.attrs.update(after(result))
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr``, remembering the original."""
        self._wrapped.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every patched attribute."""
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    def propagate_to_thread_pools(self) -> None:
        """Run callables submitted to any ``ThreadPoolExecutor`` in a
        copy of the submitter's context, so their spans keep their
        parent."""
        from concurrent.futures import ThreadPoolExecutor
        original = ThreadPoolExecutor.submit

        @functools.wraps(original)
        def submit(pool, fn, /, *args, **kwargs):
            return original(pool, contextvars.copy_context().run, fn,
                            *args, **kwargs)

        self.patch(ThreadPoolExecutor, "submit", submit)

    # -- output --------------------------------------------------------------

    def dump_to_dir(self) -> None:
        """Write this process's spans to ``out_dir/spans-<role>-<pid>``."""
        if self.out_dir is not None:
            path = self.out_dir / f"spans-{self.role}-{self.pid}.json"
            path.write_text(json.dumps([span.to_json()
                                        for span in self.spans]),
                            encoding="utf-8")

    def capture_forks(self) -> None:
        """Make forked ``multiprocessing`` children (pool workers) record
        their own spans and write them to ``out_dir`` when they exit."""
        from multiprocessing import util
        util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        from multiprocessing import util
        self._reset()
        self.role = "worker"
        util.Finalize(None, self.dump_to_dir, exitpriority=100)


def load_spans(paths: Iterable[Path]) -> list[Span]:
    spans: list[Span] = []
    for path in paths:
        spans.extend(Span.from_json(row)
                     for row in json.loads(path.read_text("utf-8")))
    return spans


# -- self-time arithmetic -----------------------------------------------------

def _shares(intervals: list[tuple[float, float]]) -> list[float]:
    """Each interval's share of the time the intervals cover: every
    instant is split equally among the intervals open at that instant."""
    events = []
    for index, (start, end) in enumerate(intervals):
        if end > start:
            events.append((start, 1, index))
            events.append((end, -1, index))
    events.sort()
    shares = [0.0] * len(intervals)
    active: set[int] = set()
    last = 0.0
    for when, kind, index in events:
        if active and when > last:
            part = (when - last) / len(active)
            for open_index in active:
                shares[open_index] += part
        last = when
        if kind > 0:
            active.add(index)
        else:
            active.discard(index)
    return shares


class SpanForest:
    """Spans joined into trees, with self times.

    A span's *self time* is its duration minus the part of its interval
    that its children cover (children are clipped to the parent's
    interval).  Its *weighted self time* also accounts for children that
    run side by side — pool workers, or a hedged request racing its
    primary: each instant a parent's children cover is split equally
    among the children open at that instant, and each child's subtree
    is weighted by its share.  The weighted self times of a tree
    therefore add up to exactly its root's duration — the ledger of
    where the root's wall time went.
    """

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        by_id = {span.id: span for span in self.spans}
        self.children: dict[str, list[Span]] = defaultdict(list)
        self.roots: list[Span] = []
        for span in self.spans:
            if span.parent in by_id:
                self.children[span.parent].append(span)
            else:
                self.roots.append(span)
        self.self_s: dict[str, float] = {}
        self.weighted_self_s: dict[str, float] = {}
        self.root_of: dict[str, Span] = {}
        stack = [(root, 1.0, root) for root in self.roots]
        while stack:
            span, weight, root = stack.pop()
            self.root_of[span.id] = root
            kids = self.children.get(span.id, [])
            shares = _shares([(max(span.start, kid.start),
                               min(span.end, kid.end)) for kid in kids])
            own = span.duration - sum(shares)
            self.self_s[span.id] = own
            self.weighted_self_s[span.id] = weight * own
            for kid, share in zip(kids, shares):
                stack.append((kid, weight * share / kid.duration
                              if kid.duration > 0 else 0.0, root))

    def ledger(self, layer_of: Callable[[Span], str]) -> dict[str, float]:
        """Weighted self seconds per layer over every tree."""
        rows: dict[str, float] = defaultdict(float)
        for span in self.spans:
            rows[layer_of(span)] += self.weighted_self_s[span.id]
        return dict(rows)
