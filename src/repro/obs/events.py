"""The occurrence table: everything the runtime may report, declared once.

An *occurrence* is one thing that happened — a maintenance pass, a WAL
append, a view quarantine — reported by the runtime as ``(kind, attrs)``
through :meth:`repro.obs.Telemetry.emit`.  What an occurrence *does* is
data in :data:`OCCURRENCES`: which metric families it writes from which
attributes (:func:`inc` / :func:`set_to` / :func:`observe`), what the
dashboard folds, and — when it has a severity — that it is also a
structured :class:`Event` retained by the
:class:`~repro.obs.recorder.FlightRecorder`.

The table is closed: ``emit`` rejects a kind that is not declared here,
and every metric family on ``/metrics`` is declared here too, exactly
once (:data:`FAMILIES`).  Adding an instrument is adding one row.

Event kinds whose severity is ``error`` — plus the ``warn``-level
degradations listed in :data:`DUMP_TRIGGERS` — dump the flight recorder
when a dump directory is configured, capturing the span history that
explains the incident *before* the ring buffer evicts it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from .metrics import DEFAULT_BUCKETS

__all__ = [
    "Event",
    "Family",
    "Effect",
    "Occurrence",
    "FAMILIES",
    "OCCURRENCES",
    "FUZZ_OUTCOMES",
    "EVENT_KINDS",
    "DUMP_TRIGGERS",
    "SEVERITY_INFO",
    "SEVERITY_WARN",
    "SEVERITY_ERROR",
    "severity_of",
    "recovery_degraded",
]

SEVERITY_INFO = "info"
SEVERITY_WARN = "warn"
SEVERITY_ERROR = "error"


# ---------------------------------------------------------------------------
# metric families
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Family:
    """One metric family exactly as ``/metrics`` exposes it."""

    type: str  # counter | gauge | histogram (a MetricsRegistry method name)
    name: str
    help: str
    labels: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None  # histograms; None = DEFAULT_BUCKETS


#: Every family the telemetry registers, in declaration order.
FAMILIES: List[Family] = []


def _family(type: str, name: str, help: str, labels=(), buckets=None) -> Family:
    family = Family(type, name, help, tuple(labels), buckets)
    FAMILIES.append(family)
    return family


_counter = partial(_family, "counter")
_gauge = partial(_family, "gauge")
_histogram = partial(_family, "histogram")

_PASS = ("view", "table", "operation")
_VIEW, _TABLE, _SHARD, _OUTCOME = ("view",), ("table",), ("shard",), ("outcome",)
# a warm pass takes ~0.1 ms: the SLO and dashboard quantiles interpolate
# inside these bounds, so they start well below it
_PASS_BUCKETS = (0.000025, 0.00005, 0.0001, 0.00025) + DEFAULT_BUCKETS

MAINTENANCE_SECONDS = _histogram(
    "repro_maintenance_seconds", "Wall time of one view-maintenance pass", _PASS, _PASS_BUCKETS
)
ROWS_CHANGED = _counter(
    "repro_view_rows_changed_total", "View rows inserted or deleted by maintenance", _PASS
)
PASSES = _counter("repro_maintenance_passes_total", "Completed maintenance passes", _PASS)
BASE_ROWS = _counter("repro_base_rows_total", "Base-table delta rows processed", _PASS)
ERRORS = _counter("repro_maintenance_errors_total", "Maintenance passes that raised", _PASS)
FK_SHORTCUT = _counter(
    "repro_fk_shortcut_total",
    "Passes where foreign keys proved the primary delta empty",
    ("view", "table"),
)
SECONDARY_STRATEGY = _counter(
    "repro_secondary_strategy_total",
    "Secondary-delta term evaluations by chosen strategy",
    ("view", "strategy"),
)
# these two are read from the watched maintainers at scrape (Telemetry.watch)
VIEW_ROWS = _gauge("repro_view_rows", "Current cardinality of a materialized view", _VIEW)
PLAN_CACHE_REQUESTS = _counter(
    "repro_plan_cache_requests_total",
    "Maintenance plan-cache lookups by outcome",
    ("view", "outcome"),
)
PLAN_COMPILE_SECONDS = _histogram(
    "repro_plan_compile_seconds", "Wall time spent compiling one physical maintenance plan", _VIEW
)
QUEUE_DEPTH = _gauge(
    "repro_scheduler_queue_depth", "Base-table changes waiting for (or in) fan-out"
)
VIEW_QUARANTINES = _counter(
    "repro_view_quarantined_total", "Views quarantined after a failed maintenance pass", _VIEW
)
WAL_APPENDS = _counter(
    "repro_wal_appends_total", "Base-table deltas durably recorded in the write-ahead log", _TABLE
)
WAL_FSYNC_SECONDS = _histogram(
    "repro_wal_fsync_seconds",
    "Wall time of one WAL fsync (group commit boundary)",
    buckets=(0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1),
)
FUZZ_CASES = _counter(
    "repro_fuzz_cases_total", "Differential fuzz cases executed, by outcome", _OUTCOME
)
FUZZ_MISMATCHES = _counter(
    "repro_fuzz_mismatches_total",
    "Oracle mismatches observed across fuzz cases, by kind",
    ("kind",),
)
FUZZ_SHRINK_STEPS = _counter(
    "repro_fuzz_shrink_steps_total", "Accepted shrinker reductions while minimizing a failure"
)
FAILPOINT_FIRES = _counter(
    "repro_failpoint_fires_total", "Armed failpoints fired by fault-injection runs", ("name",)
)
LOAD_SHED = _counter(
    "repro_scheduler_load_shed_total", "Changes rejected because the bounded queue was full", _TABLE
)
QUEUE_WAIT_SECONDS = _histogram(
    "repro_scheduler_queue_wait_seconds", "Time a change waited in the queue before its fan-out"
)
CHECKPOINT_SECONDS = _histogram(
    "repro_checkpoint_seconds", "Wall time of one durable checkpoint write"
)
CHECKPOINT_TOTAL = _counter(
    "repro_checkpoint_total",
    "Checkpoints by outcome (written base / written delta / corrupt)",
    ("outcome", "kind"),
)
CHECKPOINT_BYTES = _gauge("repro_checkpoint_bytes", "Payload size of the most recent checkpoint")
WAL_COMPACTIONS = _counter(
    "repro_wal_compactions_total", "WAL compaction passes that deleted at least one segment"
)
WAL_SEGMENTS_DELETED = _counter(
    "repro_wal_segments_deleted_total", "WAL segment files deleted by compaction"
)
WAL_SEGMENTS_QUARANTINED = _counter(
    "repro_wal_segments_quarantined_total", "WAL segments moved to the corrupt/ sidecar on open"
)
EVENTS_TOTAL = _counter(
    "repro_events_total", "Structured events emitted by the runtime, by kind", ("kind", "severity")
)
FLIGHT_DUMPS = _counter(
    "repro_flight_dumps_total", "Flight-recorder dumps written, by triggering event kind", ("kind",)
)
READ_SECONDS = _histogram(
    "repro_read_seconds",
    "Wall time of one snapshot query",
    _VIEW,
    buckets=(
        0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05
    ),
)
WAREHOUSE_SECONDS = _histogram(
    "repro_warehouse_seconds",
    "Wall time of one synchronous change (apply) or flush() barrier (flush)",
    ("phase",),
    _PASS_BUCKETS,
)
SNAPSHOT_AGE_SECONDS = _gauge(
    "repro_snapshot_age_seconds", "Age of the snapshot serving the most recent read"
)
SNAPSHOT_LAG = _gauge(
    "repro_snapshot_reader_lag", "Epochs between the snapshot just read and the latest one"
)
SNAPSHOTS_PUBLISHED = _counter(
    "repro_snapshots_published_total", "Consistent read snapshots published by the warehouse"
)
SNAPSHOT_CAPTURED_ROWS = _counter(
    "repro_snapshot_captured_rows_total",
    "Rows copied by snapshot publication (overlays, folds, full copies)",
)
SNAPSHOT_FULL_CAPTURES = _counter(
    "repro_snapshot_full_captures_total",
    "Tables and views a publication copied whole (broken journal)",
)
SNAPSHOTS_RETAINED = _gauge(
    "repro_snapshots_retained", "Read snapshots currently retained by the store"
)
SNAPSHOT_LSN = _gauge("repro_snapshot_lsn", "Applied LSN of the latest published read snapshot")
SNAPSHOT_STALE_VIEWS = _gauge(
    "repro_snapshot_stale_views", "Quarantined (stale) views in the latest snapshot"
)
SHARD_ROWS = _gauge(
    "repro_shard_rows", "Rows held by one shard, per base table", ("shard", "table")
)
SHARD_QUEUE_DEPTH = _gauge(
    "repro_shard_queue_depth", "Commands submitted to a shard worker and not yet answered", _SHARD
)
SHARD_SKEW = _gauge(
    "repro_shard_skew", "Max/mean row-count ratio across shards, per partitioned table", _TABLE
)
SHARD_CHANGES = _counter(
    "repro_shard_changes_total",
    "Base-table change statements routed to a shard",
    ("shard", "table"),
)
SHARD_QUERIES = _counter(
    "repro_shard_queries_total", "Sharded snapshot queries by routing outcome", _OUTCOME
)
SHARD_MERGE_SECONDS = _histogram(
    "repro_shard_merge_seconds", "Wall time recombining per-shard view fragments at a merge barrier"
)
SHARD_REBALANCE_HINTS = _counter(
    "repro_shard_rebalance_hints_total",
    "Rebalance advisories emitted because skew exceeded threshold",
    _TABLE,
)
SHARD_DEATHS = _counter(
    "repro_shard_deaths_total",
    "Shard workers detected dead or hung, by detection reason",
    ("shard", "reason"),
)
SHARD_REINCARNATIONS = _counter(
    "repro_shard_reincarnations_total",
    "Shard workers rebuilt from their WAL/checkpoint lineage",
    _SHARD,
)
SHARD_REINCARNATION_SECONDS = _histogram(
    "repro_shard_reincarnation_seconds",
    "Wall time from death detection to the replacement worker serving",
    buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0),
)
SHARD_HEALTH = _gauge(
    "repro_shard_health",
    "Supervisor state per shard: 1 up, 0 reincarnating, -1 quarantined",
    _SHARD,
)
TXN_INDOUBT_RESOLVED = _counter(
    "repro_txn_indoubt_resolved_total",
    "In-doubt cross-shard transactions resolved from the coordinator decision log, by outcome",
    _OUTCOME,
)

# ---------------------------------------------------------------------------
# occurrences
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Effect:
    """One metric write.  Labels come from the same-named attributes of
    the occurrence unless *fixed* pins them; *value* is an attribute
    name or a constant, and a ``None`` attribute skips the write."""

    op: str  # inc | set | observe (a series method name)
    family: Family
    value: Union[str, float]
    fixed: Mapping[str, str] = field(default_factory=dict)


def inc(family: Family, by: Union[str, float] = 1, **fixed: str) -> Effect:
    return Effect("inc", family, by, fixed)


def set_to(family: Family, to: Union[str, float], **fixed: str) -> Effect:
    return Effect("set", family, to, fixed)


def observe(family: Family, of: str = "seconds", **fixed: str) -> Effect:
    return Effect("observe", family, of, fixed)


class Occurrence:
    """One row of the table: what reporting this kind does.

    *effects* are its metric writes.  *severity* makes it also a
    flight-recorder :class:`Event` (counted in EVENTS_TOTAL, and in
    FLIGHT_DUMPS when it triggers a dump) whose message is the attribute
    named *message*.  *fold* is the Dashboard method called with the
    attributes, for what no counter can hold (quarantine reasons, segment
    names).  The irregular few carry *handler* instead, called as
    ``handler(telemetry, *instruments, **attrs)`` with the instruments of
    the families in *writes* — the only ones it can write.
    """

    def __init__(
        self,
        doc: str,
        *effects: Effect,
        severity: Optional[str] = None,
        message: Optional[str] = None,
        fold: Optional[str] = None,
        handler: Optional[Callable] = None,
        writes: Tuple[Family, ...] = (),
    ):
        self.doc = doc
        self.effects = effects
        self.severity = severity
        self.message = message
        self.fold = fold
        self.handler = handler
        self.writes = writes


#: ``fuzz.case`` outcomes (the label values of FUZZ_CASES).
FUZZ_OUTCOMES = ("ok", "mismatch")


def _maintenance_pass(t, seconds, rows, passes, base, fk, strategy, report):
    key = (report.view, report.table, report.operation)
    seconds.child(key).observe(report.elapsed_seconds)
    rows.child(key).inc(report.total_view_changes)
    passes.child(key).inc()
    base.child(key).inc(report.base_rows)
    if report.primary_skipped:
        fk.child(key[:2]).inc()
    for chosen in report.secondary_strategy_used.values():
        strategy.child((report.view, chosen)).inc()


def recovery_degraded(summary: Mapping) -> bool:
    """Whether a ``last_recovery`` summary says corruption forced a fallback."""
    return bool(
        summary.get("corruption_detected")
        or summary.get("quarantined_segments")
        or summary.get("recomputed_views")
    )


def _recovery(t, summary):
    if recovery_degraded(summary):
        return t.emit("recovery.degraded", **summary)
    return t.emit("recovery.completed", **summary)


def _fuzz_case(t, cases, mismatches, outcome, mismatch_kinds=()):
    if outcome not in FUZZ_OUTCOMES:
        raise ValueError(f"unknown fuzz outcome {outcome!r}")
    cases.child((outcome,)).inc()
    for kind in mismatch_kinds:
        mismatches.child((kind,)).inc()
    if outcome == "mismatch":
        t.emit("fuzz.mismatch", kinds=list(mismatch_kinds))


_PASS_FAMILIES = (
    MAINTENANCE_SECONDS,
    ROWS_CHANGED,
    PASSES,
    BASE_ROWS,
    FK_SHORTCUT,
    SECONDARY_STRATEGY,
)

#: kind -> what it does.  The runtime may emit exactly these.
OCCURRENCES: Dict[str, Occurrence] = {
    # -- maintenance ---------------------------------------------------------
    "maintenance.pass": Occurrence(
        "one view-maintenance pass finished (report: MaintenanceReport)",
        handler=_maintenance_pass,
        writes=_PASS_FAMILIES,
    ),
    # warn, not error: the warehouse's outcome (view.quarantined) owns
    # the dump, and an error here would consume the rate-limited dump
    # slot first.
    "maintenance.error": Occurrence(
        "one view-maintenance pass raised (a warehouse quarantines its view)",
        inc(ERRORS),
        severity=SEVERITY_WARN,
    ),
    "plan.compiled": Occurrence(
        "one physical maintenance plan was compiled (a plan-cache miss)",
        observe(PLAN_COMPILE_SECONDS),
    ),
    # -- scheduler / fan-out -------------------------------------------------
    "view.quarantined": Occurrence(
        "a view's maintenance pass failed and the view was quarantined: "
        "stale, excluded from fan-out",
        inc(VIEW_QUARANTINES),
        severity=SEVERITY_ERROR,
        message="reason",
        fold="quarantine",
    ),
    "view.reinstated": Occurrence(
        "a quarantined view was repaired and rejoined the fan-out",
        severity=SEVERITY_INFO,
        fold="clear_quarantine",
    ),
    "scheduler.load_shed": Occurrence(
        "a change was rejected because the bounded queue was full",
        inc(LOAD_SHED),
        severity=SEVERITY_WARN,
    ),
    "scheduler.queue_depth": Occurrence(
        "changes queued for (or in) fan-out right now", set_to(QUEUE_DEPTH, "depth")
    ),
    "scheduler.queue_wait": Occurrence(
        "queue residency of one admitted change (submit to dequeue)", observe(QUEUE_WAIT_SECONDS)
    ),
    # -- warehouse / serving -------------------------------------------------
    "warehouse.apply": Occurrence(
        "one synchronous change, submit to finalize", observe(WAREHOUSE_SECONDS, phase="apply")
    ),
    "warehouse.flush": Occurrence(
        "one flush() barrier over the pending tickets", observe(WAREHOUSE_SECONDS, phase="flush")
    ),
    "snapshot.read": Occurrence(
        "one snapshot query: latency, snapshot age, reader lag in epochs",
        observe(READ_SECONDS),
        set_to(SNAPSHOT_AGE_SECONDS, "snapshot_age"),
        set_to(SNAPSHOT_LAG, "lag"),
    ),
    "snapshot.published": Occurrence(
        "the warehouse published a consistent read snapshot (lsn: None without a WAL)",
        inc(SNAPSHOTS_PUBLISHED),
        inc(SNAPSHOT_CAPTURED_ROWS, "captured_rows"),
        inc(SNAPSHOT_FULL_CAPTURES, "full_captures"),
        set_to(SNAPSHOTS_RETAINED, "retained"),
        set_to(SNAPSHOT_LSN, "lsn"),
        set_to(SNAPSHOT_STALE_VIEWS, "stale_views"),
    ),
    # -- durability ----------------------------------------------------------
    "wal.append": Occurrence(
        "one base-table delta recorded in the write-ahead log", inc(WAL_APPENDS)
    ),
    "wal.fsync": Occurrence("one WAL fsync (a group-commit boundary)", observe(WAL_FSYNC_SECONDS)),
    "wal.segment_quarantined": Occurrence(
        "a WAL segment failed CRC verification and was moved to corrupt/",
        inc(WAL_SEGMENTS_QUARANTINED),
        severity=SEVERITY_ERROR,
        fold="segment_quarantined",
    ),
    "wal.compaction": Occurrence(
        "a compaction pass deleted checkpoint-covered WAL segments",
        inc(WAL_COMPACTIONS),
        inc(WAL_SEGMENTS_DELETED, "segments_deleted"),
        severity=SEVERITY_INFO,
    ),
    "checkpoint.written": Occurrence(
        "a durable checkpoint was written and published (kind: base | delta)",
        observe(CHECKPOINT_SECONDS),
        inc(CHECKPOINT_TOTAL, outcome="written"),
        set_to(CHECKPOINT_BYTES, "size_bytes"),
        severity=SEVERITY_INFO,
    ),
    "checkpoint.corrupt": Occurrence(
        "a checkpoint failed verification and was moved aside",
        inc(CHECKPOINT_TOTAL, outcome="corrupt", kind=""),
        severity=SEVERITY_ERROR,
    ),
    # -- recovery ------------------------------------------------------------
    "recovery": Occurrence(
        "one recover() finished (summary: its last_recovery dict); "
        "re-emitted as recovery.completed or recovery.degraded",
        handler=_recovery,
    ),
    "recovery.completed": Occurrence(
        "Warehouse.recover() finished with an intact log", severity=SEVERITY_INFO
    ),
    "recovery.degraded": Occurrence(
        "recovery detected corruption and built the views over what survived", severity=SEVERITY_ERROR
    ),
    # -- sharding ------------------------------------------------------------
    "shard.rows": Occurrence(
        "row count of one base table on one shard", set_to(SHARD_ROWS, "rows")
    ),
    "shard.queue_depth": Occurrence(
        "unanswered commands on one shard's pipe", set_to(SHARD_QUEUE_DEPTH, "depth")
    ),
    "shard.skew": Occurrence(
        "max/mean row-count ratio across shards (1.0 = balanced)", set_to(SHARD_SKEW, "skew")
    ),
    "shard.change": Occurrence("one change statement routed to one shard", inc(SHARD_CHANGES)),
    "shard.query": Occurrence("one sharded query (outcome: fastpath | fanout)", inc(SHARD_QUERIES)),
    "shard.merge": Occurrence(
        "one merge-barrier recombination of per-shard fragments", observe(SHARD_MERGE_SECONDS)
    ),
    "shard.rebalance_hint": Occurrence(
        "skew crossed the advisory threshold for a partitioned table", inc(SHARD_REBALANCE_HINTS)
    ),
    # -- shard supervision ---------------------------------------------------
    "shard.dead": Occurrence(
        "a shard worker died or hung past its deadline; outstanding "
        "replies were resolved with ShardUnavailableError",
        inc(SHARD_DEATHS),
        set_to(SHARD_HEALTH, 0),
        severity=SEVERITY_ERROR,
    ),
    "shard.reincarnated": Occurrence(
        "the supervisor rebuilt a dead shard's worker from its "
        "WAL/checkpoint lineage and swapped it in",
        inc(SHARD_REINCARNATIONS),
        observe(SHARD_REINCARNATION_SECONDS),
        set_to(SHARD_HEALTH, 1),
        severity=SEVERITY_INFO,
    ),
    "shard.flapping": Occurrence(
        "a shard exhausted its restart budget and was quarantined into "
        "degraded mode (fails fast until rebuilt)",
        set_to(SHARD_HEALTH, -1),
        severity=SEVERITY_ERROR,
    ),
    "txn.indoubt.resolved": Occurrence(
        "an in-doubt cross-shard transaction was committed or aborted "
        "per the coordinator decision log during recovery",
        inc(TXN_INDOUBT_RESOLVED),
        severity=SEVERITY_WARN,
    ),
    # -- fuzzing -------------------------------------------------------------
    "fuzz.case": Occurrence(
        "one differential fuzz case ran (outcome: ok | mismatch); a "
        "mismatch is re-emitted as fuzz.mismatch",
        handler=_fuzz_case,
        writes=(FUZZ_CASES, FUZZ_MISMATCHES),
    ),
    "fuzz.mismatch": Occurrence(
        "a differential fuzz case disagreed with the recompute oracle", severity=SEVERITY_ERROR
    ),
    "fuzz.shrink": Occurrence(
        "accepted reductions while minimizing a failing fuzz case", inc(FUZZ_SHRINK_STEPS, "steps")
    ),
    "failpoint.fired": Occurrence(
        "armed failpoint firings observed by a fault-injection run", inc(FAILPOINT_FIRES, "fires")
    ),
}

#: kind -> (severity, description): the occurrences that are also events.
EVENT_KINDS: Dict[str, tuple] = {
    kind: (occurrence.severity, occurrence.doc)
    for kind, occurrence in OCCURRENCES.items()
    if occurrence.severity is not None
}

#: Kinds that dump the flight recorder when they fire.  Every
#: ``error``-severity kind triggers, plus the listed degradations that
#: are warnings individually but incidents worth a capture.
DUMP_TRIGGERS = frozenset(
    kind for kind, (severity, _doc) in EVENT_KINDS.items() if severity == SEVERITY_ERROR
) | {"scheduler.load_shed"}


def severity_of(kind: str) -> str:
    """The declared severity of *kind* (``info`` for unknown kinds,
    which only tests construct directly)."""
    entry = EVENT_KINDS.get(kind)
    return entry[0] if entry else SEVERITY_INFO


@dataclass
class Event:
    """One structured incident record."""

    kind: str
    message: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)
    severity: Optional[str] = None
    ts: Optional[float] = None  # epoch seconds

    def __post_init__(self):
        if self.severity is None:
            self.severity = severity_of(self.kind)
        if self.ts is None:
            self.ts = time.time()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ts": self.ts,
            "kind": self.kind,
            "severity": self.severity,
        }
        if self.message:
            out["message"] = self.message
        if self.attrs:
            out["attrs"] = _jsonable(self.attrs)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def _jsonable(value):
    """Best-effort JSON coercion: events must never fail to serialize,
    whatever the runtime stuffed into ``attrs`` (exceptions included)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
