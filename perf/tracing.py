"""Spans recorded from outside the program.

The benchmark wraps public methods of objects *it* constructed (as
instance attributes — nothing under ``src/`` is edited) so that each
call into a layer becomes a span: name, start, end, parent and a change
id shared by every span of one operation.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "cid", "attrs")

    def __init__(self, id, name, start, parent, cid, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cid = cid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-aware span recorder.

    Each thread nests its own spans.  A span begun on a thread with no
    open span (a scheduler pool thread running one view's maintenance)
    is adopted by :attr:`dispatching`, the change the serial dispatcher
    is executing right now.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.dispatching: Optional[Span] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str, cid=None, root=False, **attrs) -> Span:
        stack = self._stack()
        parent = None
        if not root:
            parent = stack[-1] if stack else self.dispatching
        if cid is None and parent is not None:
            cid = parent.cid
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            None if parent is None else parent.id,
            cid,
            attrs,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().remove(span)
        self.spans.append(span)

    def wrap(self, obj, attr: str, name: str, **attrs) -> None:
        """Replace ``obj.attr`` with a timing wrapper (instance only)."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            span = self.begin(name, **attrs)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(span)

        setattr(obj, attr, traced)

    def wrap_submit(self, scheduler) -> None:
        """Trace ``MaintenanceScheduler.submit`` and the change it runs.

        ``runtime.scheduler.submit`` covers the call itself;
        ``runtime.scheduler.dispatch`` runs from the start of the
        change's ``prepare`` to the end of its completion hook, on
        whichever thread executes it (the caller inline, the dispatcher
        with ``workers > 0``).  The gap between the call and ``prepare``
        starting is the queue wait.
        """
        inner = scheduler.submit

        def submit(prepare, table, operation, on_complete=None):
            outer = self.begin("runtime.scheduler.submit")
            called = outer.start
            dispatch: List[Span] = []

            def traced_prepare():
                self.samples["queue_wait"].append(
                    time.perf_counter() - called
                )
                span = self.begin(
                    "runtime.scheduler.dispatch", cid=outer.cid
                )
                dispatch.append(span)
                self.dispatching = span
                return prepare()

            def traced_complete(result):
                try:
                    if on_complete is not None:
                        on_complete(result)
                finally:
                    self.dispatching = None
                    self.end(dispatch[0])

            try:
                return inner(traced_prepare, table, operation, traced_complete)
            finally:
                self.end(outer)

        scheduler.submit = submit

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                [
                    {
                        "id": s.id,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "parent": s.parent,
                        "cid": s.cid,
                        **s.attrs,
                    }
                    for s in self.spans
                ],
                handle,
            )


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> self time: duration minus the union of the child
    intervals (clipped to the span, so overlapping children on pool
    threads are not subtracted twice)."""
    children: Dict[int, List[Span]] = defaultdict(list)
    spans = list(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


class FsyncCounter:
    """Counts ``os.fsync`` calls while installed (the one process-wide
    hook: the WAL and the checkpointer reach fsync through ``os``)."""

    def __init__(self):
        self.count = 0
        self._inner = None

    def __enter__(self) -> "FsyncCounter":
        self._inner = os.fsync

        def fsync(fd):
            self.count += 1
            return self._inner(fd)

        os.fsync = fsync
        return self

    def __exit__(self, *exc) -> bool:
        os.fsync = self._inner
        return False
