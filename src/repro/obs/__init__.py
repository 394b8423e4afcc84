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

The default everywhere is :meth:`Telemetry.disabled` — a shared no-op
singleton whose tracer hands out a null span and whose recorders return
immediately, so uninstrumented workloads pay nothing.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional

from .dashboard import Dashboard, percentile
from .events import (
    DUMP_TRIGGERS,
    EVENT_KINDS,
    Event,
    severity_of,
)
from .exposition import (
    CONTENT_TYPE_OPENMETRICS,
    ObsServer,
    render_openmetrics,
    validate_openmetrics,
)
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .recorder import FlightRecorder
from .slo import DEFAULT_OBJECTIVE, SLOTracker
from .tracing import (
    InMemorySink,
    JsonLinesSink,
    NULL_SPAN,
    NullTracer,
    Span,
    Tracer,
    TreeSink,
    current_span,
    load_jsonl,
    record_operator,
)

__all__ = [
    "Telemetry",
    "Tracer",
    "NullTracer",
    "Span",
    "InMemorySink",
    "JsonLinesSink",
    "TreeSink",
    "current_span",
    "record_operator",
    "load_jsonl",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Dashboard",
    "percentile",
    "Event",
    "EVENT_KINDS",
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


class Telemetry:
    """Shared tracing + metrics + dashboard state for maintenance runs.

    Parameters
    ----------
    trace_path:
        When given, every finished root span is appended to this
        JSON-lines file.
    echo_tree:
        When true, every finished root span is also printed as a
        human-readable tree (handy in examples and debugging sessions).
    keep_spans:
        How many finished root spans the in-memory sink retains.
    dump_dir:
        When given, the flight recorder writes a JSON dump here on every
        trigger event (quarantine, degraded recovery, shed, ...).
    slo_objective / slo_window_seconds:
        Per-view success-rate objective and sliding-window length for
        the SLO tracker.
    """

    def __init__(
        self,
        trace_path: Optional[str] = None,
        echo_tree: bool = False,
        keep_spans: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        dump_dir: Optional[str] = None,
        recorder_spans: int = 256,
        recorder_events: int = 512,
        sample_target_hz: float = 200.0,
        slo_objective: float = DEFAULT_OBJECTIVE,
        slo_window_seconds: float = 3600.0,
    ):
        self.enabled = True
        self.memory = InMemorySink(keep_spans)
        self._jsonl: Optional[JsonLinesSink] = None
        self.recorder = FlightRecorder(
            span_capacity=recorder_spans,
            event_capacity=recorder_events,
            dump_dir=dump_dir,
            sample_target_hz=sample_target_hz,
        )
        sinks: List = [self.memory, self.recorder]
        if trace_path:
            self._jsonl = JsonLinesSink(trace_path)
            sinks.append(self._jsonl)
        if echo_tree:
            sinks.append(TreeSink())
        self.tracer = Tracer(sinks)
        self.metrics = metrics or MetricsRegistry()
        self.health = Dashboard()
        self.slo = SLOTracker(
            objective=slo_objective, window_seconds=slo_window_seconds
        )
        # Serializes the dashboard (which has no internal locking) and
        # keeps multi-instrument recordings atomic; reentrant because
        # record_* methods emit events while already holding it.
        self._record_lock = threading.RLock()
        self._declare_metrics()

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
            instance.memory = InMemorySink(0)
            instance._jsonl = None
            instance.tracer = NullTracer()
            instance.metrics = MetricsRegistry()
            instance.health = Dashboard()
            instance.recorder = FlightRecorder(
                span_capacity=0, event_capacity=0
            )
            instance.slo = SLOTracker()
            instance._record_lock = threading.RLock()
            cls._disabled_singleton = instance
        return cls._disabled_singleton

    @classmethod
    def from_env(cls, environ=None) -> "Telemetry":
        """Enabled telemetry configured from ``REPRO_TRACE_FILE`` (the
        JSON-lines destination) and ``REPRO_FLIGHT_DIR`` (flight-recorder
        dumps); returns the disabled singleton when both are unset, so
        opt-in stays an environment decision."""
        env = os.environ if environ is None else environ
        trace_path = env.get(TRACE_FILE_ENV)
        dump_dir = env.get(FLIGHT_DIR_ENV)
        if not trace_path and not dump_dir:
            return cls.disabled()
        return cls(trace_path=trace_path, dump_dir=dump_dir)

    # ------------------------------------------------------------------
    # metric instruments
    # ------------------------------------------------------------------
    def _declare_metrics(self) -> None:
        m = self.metrics
        self.maintenance_seconds = m.histogram(
            "repro_maintenance_seconds",
            "Wall time of one view-maintenance pass",
            ("view", "table", "operation"),
        )
        self.rows_changed = m.counter(
            "repro_view_rows_changed_total",
            "View rows inserted or deleted by maintenance",
            ("view", "table", "operation"),
        )
        self.passes = m.counter(
            "repro_maintenance_passes_total",
            "Completed maintenance passes",
            ("view", "table", "operation"),
        )
        self.base_rows = m.counter(
            "repro_base_rows_total",
            "Base-table delta rows processed",
            ("view", "table", "operation"),
        )
        self.errors = m.counter(
            "repro_maintenance_errors_total",
            "Maintenance passes that raised",
            ("view", "table", "operation"),
        )
        self.fk_shortcut = m.counter(
            "repro_fk_shortcut_total",
            "Passes where foreign keys proved the primary delta empty",
            ("view", "table"),
        )
        self.secondary_strategy = m.counter(
            "repro_secondary_strategy_total",
            "Secondary-delta term evaluations by chosen strategy",
            ("view", "strategy"),
        )
        self.view_rows = m.gauge(
            "repro_view_rows",
            "Current cardinality of a materialized view",
            ("view",),
        )
        self.plan_cache_requests = m.counter(
            "repro_plan_cache_requests_total",
            "Maintenance plan-cache lookups by outcome",
            ("view", "outcome"),
        )
        self.plan_compile_seconds = m.histogram(
            "repro_plan_compile_seconds",
            "Wall time spent compiling one physical maintenance plan",
            ("view",),
        )
        self.queue_depth = m.gauge(
            "repro_scheduler_queue_depth",
            "Base-table changes waiting for (or in) fan-out",
        )
        self.view_retries = m.counter(
            "repro_view_retries_total",
            "Maintenance attempts re-run after a transient failure",
            ("view",),
        )
        self.view_quarantines = m.counter(
            "repro_view_quarantined_total",
            "Views quarantined after exhausting their retry budget",
            ("view",),
        )
        self.wal_appends = m.counter(
            "repro_wal_appends_total",
            "Base-table deltas durably recorded in the write-ahead log",
            ("table",),
        )
        self.wal_fsync_seconds = m.histogram(
            "repro_wal_fsync_seconds",
            "Wall time of one WAL fsync (group commit boundary)",
            buckets=(0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
                     0.005, 0.01, 0.025, 0.05, 0.1),
        )
        self.fuzz_cases = m.counter(
            "repro_fuzz_cases_total",
            "Differential fuzz cases executed, by outcome",
            ("outcome",),
        )
        self.fuzz_mismatches = m.counter(
            "repro_fuzz_mismatches_total",
            "Oracle mismatches observed across fuzz cases, by kind",
            ("kind",),
        )
        self.fuzz_shrink_steps = m.counter(
            "repro_fuzz_shrink_steps_total",
            "Accepted shrinker reductions while minimizing a failure",
        )
        self.failpoint_fires = m.counter(
            "repro_failpoint_fires_total",
            "Armed failpoints fired by fault-injection runs",
            ("name",),
        )
        self.load_shed = m.counter(
            "repro_scheduler_load_shed_total",
            "Changes rejected because the bounded queue was full",
            ("table",),
        )
        self.queue_wait_seconds = m.histogram(
            "repro_scheduler_queue_wait_seconds",
            "Time a change waited in the queue before its fan-out",
        )
        self.checkpoint_seconds = m.histogram(
            "repro_checkpoint_seconds",
            "Wall time of one durable checkpoint write",
        )
        self.checkpoint_total = m.counter(
            "repro_checkpoint_total",
            "Checkpoints by outcome (written base / written delta / corrupt)",
            ("outcome", "kind"),
        )
        self.checkpoint_bytes = m.gauge(
            "repro_checkpoint_bytes",
            "Payload size of the most recent checkpoint",
        )
        self.wal_compactions = m.counter(
            "repro_wal_compactions_total",
            "WAL compaction passes that deleted at least one segment",
        )
        self.wal_segments_deleted = m.counter(
            "repro_wal_segments_deleted_total",
            "WAL segment files deleted by compaction",
        )
        self.wal_segments_quarantined = m.counter(
            "repro_wal_segments_quarantined_total",
            "WAL segments moved to the corrupt/ sidecar on open",
        )
        self.events_total = m.counter(
            "repro_events_total",
            "Structured events emitted by the runtime, by kind",
            ("kind", "severity"),
        )
        self.flight_dumps = m.counter(
            "repro_flight_dumps_total",
            "Flight-recorder dumps written, by triggering event kind",
            ("kind",),
        )
        self.read_seconds = m.histogram(
            "repro_read_seconds",
            "Wall time of one snapshot query",
            ("view",),
            buckets=(0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
                     0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05),
        )
        self.snapshot_age_seconds = m.gauge(
            "repro_snapshot_age_seconds",
            "Age of the snapshot serving the most recent read",
        )
        self.snapshot_lag = m.gauge(
            "repro_snapshot_reader_lag",
            "Epochs between the snapshot just read and the latest one",
        )
        self.snapshots_published = m.counter(
            "repro_snapshots_published_total",
            "Consistent read snapshots published by the warehouse",
        )
        self.snapshot_captured_rows = m.counter(
            "repro_snapshot_captured_rows_total",
            "Rows copied by snapshot publication (overlays, folds, full copies)",
        )
        self.snapshot_full_captures = m.counter(
            "repro_snapshot_full_captures_total",
            "Tables and views a publication copied whole (broken journal)",
        )
        self.snapshots_retained = m.gauge(
            "repro_snapshots_retained",
            "Read snapshots currently retained by the store",
        )
        self.snapshot_lsn = m.gauge(
            "repro_snapshot_lsn",
            "Applied LSN of the latest published read snapshot",
        )
        self.snapshot_stale_views = m.gauge(
            "repro_snapshot_stale_views",
            "Quarantined (stale) views in the latest snapshot",
        )
        self.shard_rows = m.gauge(
            "repro_shard_rows",
            "Rows held by one shard, per base table",
            ("shard", "table"),
        )
        self.shard_queue_depth = m.gauge(
            "repro_shard_queue_depth",
            "Commands submitted to a shard worker and not yet answered",
            ("shard",),
        )
        self.shard_skew = m.gauge(
            "repro_shard_skew",
            "Max/mean row-count ratio across shards, per partitioned table",
            ("table",),
        )
        self.shard_changes = m.counter(
            "repro_shard_changes_total",
            "Base-table change statements routed to a shard",
            ("shard", "table"),
        )
        self.shard_queries = m.counter(
            "repro_shard_queries_total",
            "Sharded snapshot queries by routing outcome",
            ("outcome",),
        )
        self.shard_merge_seconds = m.histogram(
            "repro_shard_merge_seconds",
            "Wall time recombining per-shard view fragments at a merge "
            "barrier",
        )
        self.shard_rebalance_hints = m.counter(
            "repro_shard_rebalance_hints_total",
            "Rebalance advisories emitted because skew exceeded threshold",
            ("table",),
        )
        self.shard_compensations = m.counter(
            "repro_shard_compensations_total",
            "Inverse changes applied to undo a partially failed statement",
            ("table",),
        )
        self.shard_deaths = m.counter(
            "repro_shard_deaths_total",
            "Shard workers detected dead or hung, by detection reason",
            ("shard", "reason"),
        )
        self.shard_reincarnations = m.counter(
            "repro_shard_reincarnations_total",
            "Shard workers rebuilt from their WAL/checkpoint lineage",
            ("shard",),
        )
        self.shard_reincarnation_seconds = m.histogram(
            "repro_shard_reincarnation_seconds",
            "Wall time from death detection to the replacement worker "
            "serving",
            buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0),
        )
        self.shard_health = m.gauge(
            "repro_shard_health",
            "Supervisor state per shard: 1 up, 0 reincarnating, "
            "-1 quarantined",
            ("shard",),
        )
        self.txn_indoubt_resolved = m.counter(
            "repro_txn_indoubt_resolved_total",
            "In-doubt cross-shard transactions resolved from the "
            "coordinator decision log, by outcome",
            ("outcome",),
        )

    # ------------------------------------------------------------------
    # structured events
    # ------------------------------------------------------------------
    def record_event(
        self, kind: str, message: str = "", **attrs
    ) -> Optional[str]:
        """Emit one structured event into the flight recorder.

        *kind* must come from :data:`~repro.obs.events.EVENT_KINDS`.
        Returns the dump path when the event triggered a flight-recorder
        dump (error-severity kinds with a dump directory configured),
        else ``None``.
        """
        if not self.enabled:
            return None
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = Event(kind, message, attrs)
        with self._record_lock:
            self.events_total.inc(kind=kind, severity=event.severity)
        dump_path = self.recorder.record_event(event)
        if dump_path is not None:
            with self._record_lock:
                self.flight_dumps.inc(kind=kind)
        return dump_path

    def record_phase(self, phase: str, seconds: float) -> None:
        """One latency sample for an SLO phase (apply/flush/...)."""
        if not self.enabled:
            return
        self.slo.observe(phase, seconds)

    # ------------------------------------------------------------------
    # recording (all no-ops on the disabled singleton)
    # ------------------------------------------------------------------
    def record_maintenance(self, report, span: Optional[Span] = None) -> None:
        """Fold one finished maintenance pass into metrics + dashboard."""
        if not self.enabled:
            return
        labels = dict(
            view=report.view, table=report.table, operation=report.operation
        )
        with self._record_lock:
            self.maintenance_seconds.observe(report.elapsed_seconds, **labels)
            self.rows_changed.inc(report.total_view_changes, **labels)
            self.passes.inc(**labels)
            self.base_rows.inc(report.base_rows, **labels)
            if report.primary_skipped:
                self.fk_shortcut.inc(view=report.view, table=report.table)
            for strategy in report.secondary_strategy_used.values():
                self.secondary_strategy.inc(
                    view=report.view, strategy=strategy
                )
            self.health.record_report(report, span)
        self.slo.observe("maintenance", report.elapsed_seconds)
        self.slo.record_outcome(report.view, ok=True)

    def record_failure(self, view: str, table: str, operation: str) -> None:
        if not self.enabled:
            return
        with self._record_lock:
            self.errors.inc(view=view, table=table, operation=operation)
            self.health.record_error(view)
        self.slo.record_outcome(view, ok=False)
        self.record_event(
            "maintenance.error", view=view, table=table, operation=operation
        )

    def record_view_size(self, view: str, rows: int) -> None:
        if not self.enabled:
            return
        with self._record_lock:
            self.view_rows.set(rows, view=view)

    def record_plan_cache(self, view: str, hit: bool) -> None:
        """One plan-cache lookup (hit or miss) by the maintainer."""
        if not self.enabled:
            return
        with self._record_lock:
            self.plan_cache_requests.inc(
                view=view, outcome="hit" if hit else "miss"
            )

    def record_plan_compile(self, view: str, seconds: float) -> None:
        """One physical-plan compilation (plan-cache miss)."""
        if not self.enabled:
            return
        with self._record_lock:
            self.plan_compile_seconds.observe(seconds, view=view)

    def record_retry(self, view: str, attempt: int = 0) -> None:
        """The scheduler is re-attempting a view after a failure."""
        if not self.enabled:
            return
        with self._record_lock:
            self.view_retries.inc(view=view)
            self.health.record_retry(view)
        self.record_event("view.retry", view=view, attempt=attempt)

    def record_quarantine(self, view: str, reason: str) -> Optional[str]:
        """The scheduler quarantined a view (now stale, excluded).

        Returns the flight-recorder dump path when one was written."""
        if not self.enabled:
            return None
        with self._record_lock:
            self.view_quarantines.inc(view=view)
            self.health.record_quarantine(view, reason)
        dump = self.record_event(
            "view.quarantined", reason, view=view, reason=reason
        )
        if "timed out" in reason:
            # a timeout is also a quarantine; the quarantine event above
            # already captured the dump, so this one just marks the kind
            self.record_event("view.timeout", view=view, reason=reason)
        return dump

    def record_reinstate(self, view: str) -> None:
        """A quarantined view was repaired and rejoined the fan-out."""
        if not self.enabled:
            return
        with self._record_lock:
            self.health.clear_quarantine(view)
        self.record_event("view.reinstated", view=view)

    def record_queue_depth(self, depth: int) -> None:
        """Current number of changes queued for (or in) fan-out."""
        if not self.enabled:
            return
        with self._record_lock:
            self.queue_depth.set(depth)

    def record_shard_rows(self, shard: int, table_rows) -> None:
        """Per-table row counts reported by one shard worker."""
        if not self.enabled:
            return
        with self._record_lock:
            for table, rows in table_rows.items():
                self.shard_rows.set(rows, shard=str(shard), table=table)

    def record_shard_queue_depth(self, shard: int, depth: int) -> None:
        """Outstanding (unanswered) commands on one shard's pipe."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_queue_depth.set(depth, shard=str(shard))

    def record_shard_skew(self, table: str, skew: float) -> None:
        """Max/mean row-count ratio across shards (1.0 = balanced)."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_skew.set(skew, table=table)

    def record_shard_change(self, shard: int, table: str) -> None:
        """One change statement routed to one shard."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_changes.inc(shard=str(shard), table=table)

    def record_shard_query(self, fastpath: bool) -> None:
        """One sharded query: single-shard key probe or full fan-out."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_queries.inc(
                outcome="fastpath" if fastpath else "fanout"
            )

    def record_shard_merge(self, seconds: float) -> None:
        """One merge-barrier recombination of per-shard fragments."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_merge_seconds.observe(seconds)

    def record_shard_rebalance_hint(self, table: str) -> None:
        """Skew crossed the advisory threshold for a partitioned table."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_rebalance_hints.inc(table=table)

    def record_shard_compensation(self, table: str) -> None:
        """One inverse change undoing a partially failed statement."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_compensations.inc(table=table)

    def record_shard_death(self, shard: int, reason: str) -> None:
        """A shard worker died or hung; its replies were failed fast."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_deaths.inc(shard=str(shard), reason=reason)
            self.shard_health.set(0, shard=str(shard))
        self.record_event("shard.dead", shard=shard, reason=reason)

    def record_shard_reincarnated(self, shard: int, seconds: float,
                                  summary=None) -> None:
        """The supervisor swapped in a rebuilt worker for *shard*."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_reincarnations.inc(shard=str(shard))
            self.shard_reincarnation_seconds.observe(seconds)
            self.shard_health.set(1, shard=str(shard))
        self.record_event(
            "shard.reincarnated", shard=shard, seconds=seconds,
            summary=summary,
        )

    def record_shard_flapping(self, shard: int, restarts: int) -> None:
        """A shard exhausted its restart budget and was quarantined."""
        if not self.enabled:
            return
        with self._record_lock:
            self.shard_health.set(-1, shard=str(shard))
        self.record_event("shard.flapping", shard=shard, restarts=restarts)

    def record_txn_resolved(self, txn_id: str, outcome: str) -> None:
        """One in-doubt transaction landed per the decision log."""
        if not self.enabled:
            return
        with self._record_lock:
            self.txn_indoubt_resolved.inc(outcome=outcome)
        self.record_event(
            "txn.indoubt.resolved", txn=txn_id, outcome=outcome
        )

    def record_wal_append(self, table: str) -> None:
        """One base-table delta recorded in the write-ahead log."""
        if not self.enabled:
            return
        with self._record_lock:
            self.wal_appends.inc(table=table)

    def record_wal_fsync(self, seconds: float) -> None:
        """One WAL fsync (a group-commit boundary)."""
        if not self.enabled:
            return
        with self._record_lock:
            self.wal_fsync_seconds.observe(seconds)

    def record_load_shed(self, table: str) -> None:
        """A change was rejected by the bounded queue (shed policy)."""
        if not self.enabled:
            return
        with self._record_lock:
            self.load_shed.inc(table=table)
            self.health.record_load_shed()
        self.record_event("scheduler.load_shed", table=table)

    def record_queue_wait(self, seconds: float) -> None:
        """Queue residency of one admitted change (submit → dequeue)."""
        if not self.enabled:
            return
        with self._record_lock:
            self.queue_wait_seconds.observe(seconds)

    def record_checkpoint(
        self, seconds: float, size_bytes: int, kind: str = "base"
    ) -> None:
        """One durable checkpoint (*kind*: ``base`` | ``delta``) was
        written and published."""
        if not self.enabled:
            return
        with self._record_lock:
            self.checkpoint_seconds.observe(seconds)
            self.checkpoint_total.inc(outcome="written", kind=kind)
            self.checkpoint_bytes.set(size_bytes)
            self.health.record_checkpoint()
        self.record_event(
            "checkpoint.written",
            seconds=seconds,
            size_bytes=size_bytes,
            kind=kind,
        )

    def record_checkpoint_corrupt(self, name: str) -> None:
        """A checkpoint failed verification and was moved aside."""
        if not self.enabled:
            return
        with self._record_lock:
            self.checkpoint_total.inc(outcome="corrupt", kind="")
        self.record_event("checkpoint.corrupt", name=name)

    def record_wal_compaction(self, segments_deleted: int) -> None:
        """One compaction pass removed *segments_deleted* segments."""
        if not self.enabled:
            return
        with self._record_lock:
            self.wal_compactions.inc()
            self.wal_segments_deleted.inc(segments_deleted)
            self.health.record_compaction(segments_deleted)
        self.record_event(
            "wal.compaction", segments_deleted=segments_deleted
        )

    def record_wal_segment_quarantined(self, name: str) -> None:
        """A WAL segment failed verification and was quarantined."""
        if not self.enabled:
            return
        with self._record_lock:
            self.wal_segments_quarantined.inc()
            self.health.record_segment_quarantined(name)
        self.record_event("wal.segment_quarantined", segment=name)

    def record_fuzz_case(self, outcome: str, mismatch_kinds=()) -> None:
        """One differential fuzz case (outcome ``pass`` or ``fail``)."""
        if not self.enabled:
            return
        with self._record_lock:
            self.fuzz_cases.inc(outcome=outcome)
            for kind in mismatch_kinds:
                self.fuzz_mismatches.inc(kind=kind)
        if outcome != "pass":
            self.record_event(
                "fuzz.mismatch", kinds=list(mismatch_kinds)
            )

    def record_recovery(self, summary: Dict) -> Optional[str]:
        """One finished ``Warehouse.recover()``; *summary* is its
        ``last_recovery`` dict.  Emits ``recovery.degraded`` (and dumps
        the flight recorder) when corruption forced any fallback."""
        if not self.enabled:
            return None
        degraded = bool(
            summary.get("corruption_detected")
            or summary.get("quarantined_segments")
            or summary.get("recomputed_views")
        )
        kind = "recovery.degraded" if degraded else "recovery.completed"
        return self.record_event(kind, **summary)

    def record_read(
        self,
        view: str,
        seconds: float,
        snapshot_age: float = 0.0,
        lag: int = 0,
    ) -> None:
        """One snapshot query: latency, snapshot age, reader lag."""
        if not self.enabled:
            return
        with self._record_lock:
            self.read_seconds.observe(seconds, view=view)
            self.snapshot_age_seconds.set(snapshot_age)
            self.snapshot_lag.set(lag)
        self.slo.observe("read", seconds)

    def record_snapshot_publish(
        self,
        lsn: Optional[int],
        retained: int,
        stale_views: int = 0,
        captured_rows: int = 0,
        full_captures: int = 0,
    ) -> None:
        """The warehouse published a consistent read snapshot, copying
        *captured_rows* rows, *full_captures* objects of them whole."""
        if not self.enabled:
            return
        with self._record_lock:
            self.snapshots_published.inc()
            self.snapshot_captured_rows.inc(captured_rows)
            self.snapshot_full_captures.inc(full_captures)
            self.snapshots_retained.set(retained)
            if lsn is not None:
                self.snapshot_lsn.set(lsn)
            self.snapshot_stale_views.set(stale_views)

    def record_fuzz_shrink(self, steps: int = 1) -> None:
        """Accepted reductions while minimizing a failing fuzz case."""
        if not self.enabled:
            return
        with self._record_lock:
            self.fuzz_shrink_steps.inc(steps)

    def record_failpoint(self, name: str, fires: int = 1) -> None:
        """Armed failpoint firings observed by a fault-injection run."""
        if not self.enabled:
            return
        with self._record_lock:
            self.failpoint_fires.inc(fires, name=name)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Finished root spans retained by the in-memory sink."""
        return self.memory.spans

    def dashboard(self) -> str:
        if not self.enabled:
            return "== Maintenance dashboard ==\n(telemetry disabled)"
        return self.health.render()

    def metrics_text(self) -> str:
        if not self.enabled:
            return ""
        return self.metrics.render_prometheus()

    def openmetrics_text(self) -> str:
        """OpenMetrics 1.0 exposition, SLO gauges refreshed first."""
        if not self.enabled:
            return "# EOF\n"
        self.slo.export(self.metrics)
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
        """Close the JSON-lines sink and honour ``REPRO_METRICS_FILE``."""
        if self._jsonl is not None:
            self._jsonl.close()
        env = os.environ if environ is None else environ
        metrics_path = env.get(METRICS_FILE_ENV)
        if self.enabled and metrics_path:
            self.write_metrics(metrics_path)
