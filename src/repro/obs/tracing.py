"""Hierarchical tracing spans for the maintenance pipeline.

A :class:`Span` measures one phase of work — wall time, rows produced,
tagged attributes, and per-operator sub-costs — and nests: entering a
span while another is active makes it a child.  The active-span stack is
module-global (thread-local), so deep code like the physical operators
can report into whatever span is currently open without threading a
handle through every call::

    tracer = Tracer()
    with tracer.span("change", table="lineitem") as root:
        with tracer.span("maintain", view="v3") as s:
            ...                     # operators report into ``s``
            s.record_rows(128)
    print(tracer.spans[-1].tree())

When the *root* span closes, the tracer appends it to ``spans``, the one
bounded ring of finished root spans (the newest :data:`SPAN_CAPACITY`)
that the dashboard, ``repro.explain`` and the flight recorder all read,
and — given a *trace_path* — writes it to that file as one JSON line.

The disabled path costs nothing: :data:`NULL_SPAN` is a shared no-op
context manager that never touches the stack, so :func:`current_span`
stays ``None`` and every instrumentation site takes its fast path.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "current_span",
    "load_jsonl",
    "SPAN_CAPACITY",
]

STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Finished root spans a :class:`Tracer` keeps; a warehouse change is one.
SPAN_CAPACITY = 1024

_ACTIVE = threading.local()


def _stack() -> List["Span"]:
    try:
        return _ACTIVE.stack
    except AttributeError:
        _ACTIVE.stack = []
        return _ACTIVE.stack


def current_span() -> Optional["Span"]:
    """The innermost active span of this thread, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


class Span:
    """One timed phase of work; a node in the trace tree."""

    __slots__ = (
        "name",
        "attributes",
        "start_time",
        "start",
        "end",
        "rows",
        "status",
        "error",
        "children",
        "operators",
        "_tracer",
    )

    def __init__(self, tracer: Optional["Tracer"], name: str, attributes: Dict):
        self.name = name
        self.attributes: Dict[str, Any] = attributes
        self.start_time: float = 0.0  # epoch seconds, for logs
        self.start: float = 0.0  # perf_counter
        self.end: Optional[float] = None
        self.rows = 0
        self.status = STATUS_OK
        self.error: Optional[str] = None
        self.children: List[Span] = []
        self.operators: Dict[str, List] = {}  # kind -> [calls, rows, seconds]
        self._tracer = tracer

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            stack[-1].children.append(self)
        stack.append(self)
        self.start_time = time.time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.status = STATUS_ERROR
            self.error = f"{exc_type.__name__}: {exc}"
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit — drop ourselves wherever we are
            try:
                stack.remove(self)
            except ValueError:
                pass
        if not stack and self._tracer is not None:
            self._tracer._emit(self)
        return False

    # -- recording -------------------------------------------------------
    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def record_rows(self, n: int) -> None:
        self.rows += n

    def record_operator(self, kind: str, rows: int, seconds: float) -> None:
        agg = self.operators.get(kind)
        if agg is None:
            self.operators[kind] = [1, rows, seconds]
        else:
            agg[0] += 1
            agg[1] += rows
            agg[2] += seconds

    # -- reading ---------------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def to_dict(self) -> Dict:
        """JSON-serializable form of the whole subtree."""
        out: Dict[str, Any] = {
            "name": self.name,
            "start_time": self.start_time,
            "duration_seconds": self.duration_seconds,
            "rows": self.rows,
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.operators:
            out["operators"] = {
                kind: {"calls": c, "rows": r, "seconds": s}
                for kind, (c, r, s) in self.operators.items()
            }
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def tree(self, indent: int = 0) -> str:
        """Human-readable rendering of the subtree."""
        attrs = " ".join(f"{k}={_shown(v)}" for k, v in self.attributes.items())
        parts = [
            "  " * indent
            + f"{self.name} [{self.duration_seconds * 1000:.2f} ms]"
            + (f" rows={self.rows}" if self.rows else "")
            + (f" {attrs}" if attrs else "")
            + (f" ERROR({self.error})" if self.status == STATUS_ERROR else "")
        ]
        for kind, (calls, rows, seconds) in sorted(self.operators.items()):
            parts.append(
                "  " * (indent + 1)
                + f"· {kind}: {calls} call(s), {rows} rows, "
                f"{seconds * 1000:.2f} ms"
            )
        for child in self.children:
            parts.append(child.tree(indent + 1))
        return "\n".join(parts)


def _shown(value, nested: bool = False) -> str:
    """An attribute value as :meth:`Span.tree` prints it: a dict (a
    ``maintain`` span's ``phases`` and ``terms``) with its floats to three
    significant digits."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_shown(v, True)}" for k, v in value.items()) + "}"
    return f"{value:.3g}" if nested and isinstance(value, float) else str(value)


class _NullSpan:
    """Shared do-nothing span used when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attributes(self, **attributes) -> None:
        pass

    def record_rows(self, n) -> None:
        pass

    def record_operator(self, kind, rows, seconds) -> None:
        pass

    @property
    def duration_seconds(self) -> float:
        return 0.0


NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans and keeps the newest :data:`SPAN_CAPACITY` finished
    root spans in ``spans``, oldest first; given *trace_path*, also
    appends each one to that file as a JSON line (read back with
    :func:`load_jsonl`)."""

    def __init__(self, trace_path: Optional[str] = None):
        self.spans: Deque[Span] = deque(maxlen=SPAN_CAPACITY)
        self.trace_path = trace_path
        # open eagerly: an unwritable path must fail here, at
        # construction, not inside some later maintenance pass
        self._handle = open(trace_path, "a") if trace_path else None

    def span(self, name: str, **attributes) -> Span:
        return Span(self, name, attributes)

    def _emit(self, root: Span) -> None:
        self.spans.append(root)
        if self.trace_path:
            if self._handle is None:
                self._handle = open(self.trace_path, "a")
            self._handle.write(json.dumps(root.to_dict()) + "\n")
            self._handle.flush()

    def close(self) -> None:
        """Close the trace file; a later root span reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class NullTracer:
    """Tracer of the disabled path: every span is :data:`NULL_SPAN`."""

    spans = ()

    def span(self, name: str, **attributes) -> _NullSpan:
        return NULL_SPAN


def load_jsonl(path: str) -> List[Dict]:
    """Read the span dicts a :class:`Tracer` wrote to its *trace_path*."""
    out = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
