"""Observability for the maintenance pipeline (tracing, metrics, health).

:class:`Telemetry` bundles the three instruments this package provides —
hierarchical tracing spans (:mod:`repro.obs.tracing`), a Prometheus-style
metrics registry (:mod:`repro.obs.metrics`) and a per-view health
dashboard (:mod:`repro.obs.dashboard`) — behind one object that the
maintenance layers share::

    from repro import Database, Warehouse
    from repro.obs import Telemetry

    telemetry = Telemetry(trace_path="trace.jsonl")
    wh = Warehouse(db, telemetry=telemetry)
    wh.create_view("order_lines", expr)
    wh.insert("lineitem", rows)
    print(wh.dashboard())          # p50/p95, strategy mix, slow terms
    print(wh.metrics_text())       # Prometheus exposition
    print(telemetry.spans[-1].tree())

The runtime reports through one method, :meth:`Telemetry.emit`: an
occurrence is ``(kind, attrs)`` data, and what it does — which metric
families it writes, whether it is also a flight-recorder event — is
declared once in :mod:`repro.obs.events`.  Each number has one store:
the dashboard and the SLO tracker read the registry and the retained
spans when they are read.  The tracer's ring of the newest 1,024
finished root spans (``telemetry.spans``) is the only span store; the
flight recorder's dumps serialize its newest roots.  State that already
has a home — a maintainer's plan-cache counts, its view's size — is not
reported at all: :meth:`Telemetry.watch` reads it into the registry
whenever the registry is read.

The default everywhere is :meth:`Telemetry.disabled` — a shared no-op
singleton whose tracer hands out a null span and whose ``emit`` returns
immediately, so uninstrumented workloads pay nothing.
"""

from __future__ import annotations

import collections
import os
import threading
import weakref
from typing import Callable, Dict, List, Optional

from .dashboard import Dashboard
from .events import (
    DUMP_TRIGGERS,
    EVENT_KINDS,
    EVENTS_TOTAL,
    FAMILIES,
    FLIGHT_DUMPS,
    OCCURRENCES,
    PLAN_CACHE_REQUESTS,
    VIEW_ROWS,
    Effect,
    Event,
    Occurrence,
    severity_of,
)
from .exposition import (
    CONTENT_TYPE_OPENMETRICS,
    ObsServer,
    render_openmetrics,
    validate_openmetrics,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .recorder import FlightRecorder
from .slo import DEFAULT_OBJECTIVE, SLOTracker
from .tracing import (
    NULL_SPAN,
    NullTracer,
    Span,
    Tracer,
    current_span,
    load_jsonl,
)

__all__ = [
    "Telemetry",
    "Tracer",
    "NullTracer",
    "Span",
    "current_span",
    "load_jsonl",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Dashboard",
    "Event",
    "EVENT_KINDS",
    "OCCURRENCES",
    "FAMILIES",
    "DUMP_TRIGGERS",
    "severity_of",
    "FlightRecorder",
    "SLOTracker",
    "DEFAULT_OBJECTIVE",
    "ObsServer",
    "render_openmetrics",
    "validate_openmetrics",
    "CONTENT_TYPE_OPENMETRICS",
]

TRACE_FILE_ENV = "REPRO_TRACE_FILE"
METRICS_FILE_ENV = "REPRO_METRICS_FILE"
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"


def _requests(view: str, cache) -> Dict[tuple, int]:
    return {(view, "hit"): cache.hits, (view, "miss"): cache.misses}


class Telemetry:
    """Shared tracing + metrics + dashboard state for maintenance runs.

    Parameters
    ----------
    trace_path:
        When given, every finished root span is appended to this
        JSON-lines file.
    dump_dir:
        When given, the flight recorder writes a JSON dump here on every
        trigger event (quarantine, degraded recovery, shed, ...).
    """

    def __init__(self, trace_path: Optional[str] = None, dump_dir: Optional[str] = None):
        self.enabled = True
        self.tracer = Tracer(trace_path)
        self.recorder = FlightRecorder(self.tracer.spans, dump_dir)
        self._wire()

    def _wire(self) -> None:
        """Register every declared family and compile every declared
        occurrence against this instance's registry, dashboard and
        recorder."""
        self.metrics = MetricsRegistry()
        for family in FAMILIES:
            extra = {"buckets": family.buckets} if family.buckets else {}
            getattr(self.metrics, family.type)(family.name, family.help, family.labels, **extra)
        self.health = Dashboard(self.metrics, self.tracer.spans)
        self.slo = SLOTracker(self.metrics)
        self._watched: Dict[weakref.ref, tuple] = {}  # maintainer -> (view, plan cache)
        self._retired = collections.Counter()  # (view, outcome) -> count
        self._watch_lock = threading.Lock()
        self._fire: Dict[str, Callable] = {
            kind: self._compile(kind, occurrence) for kind, occurrence in OCCURRENCES.items()
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    _disabled_singleton: Optional["Telemetry"] = None

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared no-op telemetry used whenever none is supplied."""
        if cls._disabled_singleton is None:
            instance = cls.__new__(cls)
            instance.enabled = False
            instance.tracer = NullTracer()
            instance.recorder = FlightRecorder()
            instance._wire()
            cls._disabled_singleton = instance
        return cls._disabled_singleton

    @classmethod
    def from_env(cls, environ=None) -> "Telemetry":
        """Enabled telemetry configured from ``REPRO_TRACE_FILE`` (the
        JSON-lines destination) and ``REPRO_FLIGHT_DIR`` (flight-recorder
        dumps), and enabled too when only ``REPRO_METRICS_FILE`` (read by
        :meth:`flush`) is set; returns the disabled singleton when all
        three are unset, so opt-in stays an environment decision."""
        env = os.environ if environ is None else environ
        if not any(env.get(name) for name in (TRACE_FILE_ENV, FLIGHT_DIR_ENV, METRICS_FILE_ENV)):
            return cls.disabled()
        return cls(trace_path=env.get(TRACE_FILE_ENV), dump_dir=env.get(FLIGHT_DIR_ENV))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def emit(self, kind: str, /, **attrs) -> Optional[str]:
        """Report one occurrence of *kind* (a row of
        :data:`~repro.obs.events.OCCURRENCES`) with its attributes.

        Returns the dump path when the occurrence is an event that
        triggered a flight-recorder dump, else ``None``.  A no-op on the
        disabled singleton; an undeclared kind raises ``ValueError``.
        """
        if not self.enabled:
            return None
        fire = self._fire.get(kind)
        if fire is None:
            raise ValueError(f"unknown occurrence kind {kind!r}")
        return fire(attrs)

    def _compile(self, kind: str, occurrence: Occurrence) -> Callable:
        """The closure ``emit`` runs for *kind*: every lookup the table
        allows is done here, once, not per occurrence."""
        if occurrence.handler is not None:
            handler = occurrence.handler
            bound = [self.metrics.get(family.name) for family in occurrence.writes]
            return lambda attrs: handler(self, *bound, **attrs)
        steps = [self._writer(effect) for effect in occurrence.effects]
        if occurrence.fold is not None:
            fold = getattr(self.health, occurrence.fold)
            steps.append(lambda attrs: fold(**attrs))
        publish = self._publisher(kind, occurrence) if occurrence.severity else None

        def fire(attrs):
            for step in steps:
                step(attrs)
            return publish(attrs) if publish else None

        return fire

    def _writer(self, effect: Effect) -> Callable:
        metric = self.metrics.get(effect.family.name)
        names, fixed, op, value = metric.labelnames, effect.fixed, effect.op, effect.value

        def series(attrs):
            return metric.child(tuple([fixed[n] if n in fixed else str(attrs[n]) for n in names]))

        if not isinstance(value, str):
            return lambda attrs: getattr(series(attrs), op)(value)

        def write(attrs):
            amount = attrs[value]
            if amount is not None:
                getattr(series(attrs), op)(amount)

        return write

    def _publisher(self, kind: str, occurrence: Occurrence) -> Callable:
        """Event half of an occurrence: count it, retain it in the
        flight recorder, count the dump if it triggered one."""
        events = self.metrics.get(EVENTS_TOTAL.name)
        dumps = self.metrics.get(FLIGHT_DUMPS.name)
        counted = (kind, occurrence.severity)
        message, recorder = occurrence.message, self.recorder

        def publish(attrs):
            text = attrs[message] if message else ""
            events.child(counted).inc()
            dump_path = recorder.record_event(Event(kind, text, attrs))
            if dump_path is not None:
                dumps.child((kind,)).inc()
            return dump_path

        return publish

    # ------------------------------------------------------------------
    # state read at scrape
    # ------------------------------------------------------------------
    def watch(self, maintainer) -> None:
        """Read *maintainer*'s plan-cache hits/misses and its ``view``'s size
        (if it has one) at every scrape.  Held weakly: once unwatched or
        collected, its size leaves and its counts stay in the counter."""
        if self.enabled:
            self._retire(lambda ref: ref() is None)
            entry = (maintainer.definition.name, maintainer.plan_cache)
            with self._watch_lock:
                self._watched[weakref.ref(maintainer)] = entry

    def unwatch(self, maintainer) -> None:
        """Stop reading *maintainer* (its view was dropped)."""
        self._retire(lambda ref: ref() is maintainer)

    def _retire(self, gone: Callable) -> None:
        """Fold the watched entries *gone* picks into the retired counts."""
        with self._watch_lock:
            for ref in [ref for ref in self._watched if gone(ref)]:
                self._retired.update(_requests(*self._watched.pop(ref)))

    def _scrape(self) -> None:
        self._retire(lambda ref: ref() is None)
        with self._watch_lock:
            requests, sizes = self._retired.copy(), {}
            for ref, (view, cache) in self._watched.items():
                requests.update(_requests(view, cache))
                if hasattr(maintainer := ref(), "view"):
                    sizes[(view,)] = len(maintainer.view)  # the newest of a name wins
            self.metrics.get(PLAN_CACHE_REQUESTS.name).reset(+requests)  # + drops zeros
            self.metrics.get(VIEW_ROWS.name).reset(sizes)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """The tracer's ring of finished root spans, oldest first (a
        copy: the tracer keeps appending)."""
        return list(self.tracer.spans)

    def dashboard(self) -> str:
        if not self.enabled:
            return "== Maintenance dashboard ==\n(telemetry disabled)"
        self._scrape()
        return self.health.render()

    def metrics_text(self) -> str:
        if not self.enabled:
            return ""
        self._scrape()
        return self.metrics.render_prometheus()

    def openmetrics_text(self) -> str:
        """OpenMetrics 1.0 exposition, SLO gauges refreshed first."""
        if not self.enabled:
            return "# EOF\n"
        self._scrape()
        self.slo.export()
        return render_openmetrics(self.metrics)

    def totals(self) -> Dict[str, Dict[str, int]]:
        return self.health.totals()

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def write_metrics(self, path: str) -> None:
        """Dump the registry in exposition format to *path*."""
        with open(path, "w") as handle:
            handle.write(self.metrics_text())

    def flush(self, environ=None) -> None:
        """Close the trace file and honour ``REPRO_METRICS_FILE``."""
        if not self.enabled:
            return
        self.tracer.close()
        metrics_path = (os.environ if environ is None else environ).get(METRICS_FILE_ENV)
        if metrics_path:
            self.write_metrics(metrics_path)
