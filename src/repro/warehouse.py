"""Multi-view maintenance: one database, many materialized views.

A real deployment maintains *several* materialized views per fact table
(the paper's motivation is OLAP systems full of them).  :class:`Warehouse`
owns the database and fans every insert/delete/update out to all
registered views — plain outer-join views and Section 3.3 aggregated
views alike — applying each base-table change exactly once.

Example::

    wh = Warehouse(db)
    wh.create_view("order_lines", expr)
    wh.create_aggregated_view("revenue", expr2, ["customer.c_mktsegment"],
                              [agg_sum("lineitem.l_extendedprice", "rev")])
    reports = wh.insert("lineitem", rows)   # both views maintained

Runtime options (see :mod:`repro.runtime` and ``docs/DURABILITY.md``)::

    wh = Warehouse(db, wal_path="changes.wal",   # durable change log
                   checkpoint_dir="checkpoints", # bounded recovery
                   checkpoint_interval=1000,     # auto-checkpoint cadence
                   workers=1,                    # queue on a dispatcher
                   max_queue_depth=256)          # admission control
    ticket = wh.apply_async("lineitem", "insert", rows)
    ...
    wh.flush()        # wait for queued changes, fsync the WAL
    wh.checkpoint()   # snapshot state, compact the WAL behind it

The inline, undurable path is simply the default (``workers=0``, no WAL).
Either way a view gets one attempt per change, and a view whose pass
fails is quarantined.

``Warehouse(db, shards=N)`` builds the sharded flavour
(:mod:`repro.sharded`), which shares the change surface defined here and
swaps only the *transport* behind it: ``_submit`` (one change -> a
:class:`ChangeTicket`), ``_settle`` (the flush barrier), ``_shutdown``,
the settled-state readers and the ``_txn_*`` steps under the one
:class:`Transaction`.  ``docs/ARCHITECTURE.md`` ("Facade contract") has
the method-by-method table.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .algebra.expr import RelExpr
from .core.aggregate import Aggregate, AggregatedView
from .core.maintain import MaintenanceOptions, MaintenanceReport, SharedResults, ViewMaintainer
from .core.secondary import DELETE, INSERT
from .core.view import MaterializedView, RowPool, ViewDefinition
from .engine.catalog import Database
from .engine.table import Row, Table
from .errors import (
    CatalogError,
    CheckpointError,
    FanOutError,
    MaintenanceError,
    ShardingError,
)
from .obs import ObsServer, Telemetry
from .runtime import (
    DEFAULT_SEGMENT_BYTES,
    ChangeTicket,
    CheckpointData,
    CheckpointManager,
    FanOutResult,
    MaintenanceScheduler,
    Snapshot,
    SnapshotStore,
    Task,
    WriteAheadLog,
)

Reports = Dict[str, MaintenanceReport]

#: ``_submit`` operation for a delete given as keys; it is logged and
#: maintained as a plain ``DELETE`` of the rows the keys resolve to
DELETE_BY_KEY = "delete_by_key"

# Plain and aggregated views sit in one registry and answer the same
# calls: maintain / rebuild / rows / check_consistency.  A maintain that
# raises leaves its view exactly as it was before the change.
Maintained = Union[ViewMaintainer, AggregatedView]


class Warehouse:
    """A database plus a registry of incrementally maintained views.

    Pass a :class:`~repro.obs.Telemetry` to meter every view the
    warehouse maintains: each maintainer emits spans and metrics into the
    shared object, and :meth:`dashboard` / :meth:`metrics_text` expose
    the aggregate health view.  The default is the disabled no-op
    singleton.

    Runtime parameters
    ------------------
    wal_path:
        When given, every base-table delta is durably appended to
        this write-ahead log *before* any view is maintained, and after
        a restart :meth:`recover` replays it over a restore point.
    workers:
        ``0`` (default): changes apply inline on the caller's thread.
        ``>= 1``: changes queue through one dispatcher thread, which
        maintains each change's views in registration order (any count
        above 1 behaves as 1).  Either way each view gets one attempt
        per change: a view whose pass fails is quarantined — marked
        stale, excluded from fan-out, surfaced on the dashboard,
        repaired with :meth:`repair_view` (the synchronous caller still
        gets the :class:`~repro.errors.FanOutError`).
    fsync_batch:
        WAL group-commit size (records per fsync); see
        :class:`~repro.runtime.WriteAheadLog`.
    segment_bytes:
        WAL segment rotation threshold; see
        :class:`~repro.runtime.WriteAheadLog`.
    checkpoint_dir:
        When given, :meth:`checkpoint` writes durable checkpoints of base
        tables + last-applied LSN here (a base file, then deltas of what
        changed since), and :meth:`recover` restores the newest one and
        replays only the WAL suffix past it (bounded recovery).  Each
        checkpoint compacts the WAL behind the oldest restore point kept.
    checkpoint_interval:
        Auto-checkpoint every N changes that changed a table (counted as
        each applies, taken on the caller's thread at the next synchronous
        change or :meth:`flush`).  ``None`` (default) means manual
        :meth:`checkpoint` only.
    max_queue_depth / overflow:
        Admission control for the change queue.  ``None`` (default)
        keeps the queue unbounded.  With a depth, a full queue either
        blocks the submitter (``overflow="block"``) or sheds the change
        with :class:`~repro.errors.BackpressureError` before any
        base-table effect (``overflow="shed"``); sheds and queue-wait
        times are metered through :class:`~repro.obs.Telemetry`.
    obs_http_port / obs_http_host:
        When a port is given (``0`` = ephemeral), an
        :class:`~repro.obs.ObsServer` starts on a daemon thread serving
        ``/metrics``, ``/healthz``, ``/dashboard.json`` and
        ``/flight-recorder`` for this warehouse once its transport is
        up, local or sharded alike; it stops on :meth:`close`.  See
        ``docs/OBSERVABILITY.md``.

    The store keeps the newest :data:`~repro.runtime.snapshots.RETAIN`
    (8) published read snapshots.  Readers holding older
    :class:`~repro.runtime.Snapshot` objects keep them alive
    independently, and :meth:`checkpoint` additionally prunes snapshots
    older than the checkpoint LSN.  See ``docs/SERVING.md``.
    """

    def __new__(cls, *args, **kwargs):
        # Warehouse(db, shards=N) transparently constructs the sharded
        # flavour (repro.sharded.ShardedWarehouse): __new__ returns the
        # subclass instance, so Python dispatches __init__ to it with
        # these same arguments.
        shards = kwargs.get("shards")
        if shards is not None and shards < 1:
            raise ShardingError(f"shards must be >= 1, got {shards!r}")
        if cls is Warehouse and (shards or kwargs.get("sharding")):
            from .sharded import ShardedWarehouse

            return super().__new__(ShardedWarehouse)
        return super().__new__(cls)

    def __init__(
        self,
        db: Database,
        telemetry: Optional[Telemetry] = None,
        *,
        obs_http_port: Optional[int] = None,
        obs_http_host: str = "127.0.0.1",
        **transport,
    ):
        # the facade's own state, whatever the transport
        self.db = db
        self.telemetry = telemetry or Telemetry.disabled()
        self.last_recovery: Optional[Dict] = None
        self.checkpoint_interval: Optional[int] = None
        self._pending_tickets: List[ChangeTicket] = []
        self.obs_server: Optional[ObsServer] = None
        self._open_transport(**transport)
        if obs_http_port is not None:
            try:
                self.serve_obs(host=obs_http_host, port=obs_http_port)
            except BaseException:
                self.close()
                raise

    def _open_transport(
        self,
        *,
        wal_path: Optional[str] = None,
        workers: int = 0,
        fsync_batch: int = 1,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        overflow: str = "block",
    ) -> None:
        """The local transport: view registry, WAL, checkpoints,
        scheduler and snapshot store, all in this process."""
        self._views: Dict[str, Maintained] = {}
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog(
                wal_path,
                fsync_batch,
                self.telemetry,
                segment_bytes=segment_bytes,
            )
            if wal_path
            else None
        )
        self.checkpoints: Optional[CheckpointManager] = (
            CheckpointManager(checkpoint_dir, self.telemetry)
            if checkpoint_dir
            else None
        )
        if checkpoint_interval:
            if self.checkpoints is None:
                raise MaintenanceError(
                    "checkpoint_interval requires a checkpoint_dir"
                )
            self.checkpoint_interval = max(1, int(checkpoint_interval))
        # opened over a log that has assigned an LSN, the warehouse owes a
        # recover(): view name -> the build deferred to it (_build_owed)
        self._owed: Optional[Dict[str, Callable]] = {} if self.wal and self.wal.last_lsn else None
        # views built before the first change share rows; None once a
        # change reached the tables (they are no restore point then)
        self._pool: Optional[RowPool] = {}
        self._changes_since_checkpoint = 0
        self._checkpointing = False
        # open transactions: a checkpoint must not cover their effects
        self._open_txns: set = set()
        # prepared transactions the last recover() reopened, by id
        self._in_doubt: Dict[str, "Transaction"] = {}
        self.scheduler = MaintenanceScheduler(
            workers=workers,
            telemetry=self.telemetry,
            max_queue_depth=max_queue_depth,
            overflow=overflow,
        )
        self.snapshots = SnapshotStore()
        self._recovering = False
        self._publish_errors = 0
        # the store is never empty: readers can always get *a* snapshot
        self._publish()

    # ------------------------------------------------------------------
    # view DDL
    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        view: Union[RelExpr, ViewDefinition],
        build: Callable[[ViewDefinition, Optional[RowPool]], Maintained],
    ) -> Optional[Maintained]:
        if name in self._views or name in (self._owed or ()):
            raise CatalogError(f"view {name!r} already exists")
        self.scheduler.drain()  # materialize against a settled database
        definition = (
            view
            if isinstance(view, ViewDefinition)
            else ViewDefinition(name, view)
        )
        if self._owed is not None:
            definition.validate(self.db)  # refuse a bad view now, not at its build
            self._owed[name] = partial(build, definition)
            return None
        target = self._views[name] = build(definition, self._pool)
        self._publish()  # queue is drained: a consistent point
        return target

    def _build_owed(self) -> None:
        """Build the views deferred to a recover() over the tables as they
        stand: every read and change calls this first (recover() builds them)."""
        if self._owed is None or self._recovering:
            return
        owed, self._owed = self._owed, None
        for name, build in owed.items():
            self._views[name] = build(self._pool)
        self._publish()

    def create_view(
        self,
        name: str,
        view: Union[RelExpr, ViewDefinition],
        options: Optional[MaintenanceOptions] = None,
    ) -> Optional[MaterializedView]:
        """Define, materialize and register an SPOJ view (register only,
        returning None, on a warehouse that owes a recover(); see
        ``docs/DURABILITY.md``)."""
        maintainer = self._register(
            name,
            view,
            lambda definition, pool: ViewMaintainer(
                self.db,
                MaterializedView.materialize(definition, self.db, pool),
                options,
                telemetry=self.telemetry,
            ),
        )
        return None if maintainer is None else maintainer.view

    def create_aggregated_view(
        self,
        name: str,
        view: Union[RelExpr, ViewDefinition],
        group_by: Sequence[str],
        aggregates: Sequence[Aggregate],
    ) -> Optional[AggregatedView]:
        """Define and register a Section 3.3 aggregated view (as
        :meth:`create_view` while a recover() is owed)."""
        return self._register(
            name,
            view,
            lambda definition, pool: AggregatedView(
                definition, group_by, aggregates, self.db, self.telemetry
            ),
        )

    def drop_view(self, name: str) -> None:
        self._build_owed()
        self.scheduler.drain()
        target = self._views.pop(name, None)
        if target is None:
            raise CatalogError(f"no view named {name!r}")
        self.telemetry.unwatch(target)
        self.scheduler.forget(name)
        self._publish()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def view_names(self) -> List[str]:
        """Plain views first, then aggregated ones, each sorted."""
        self._build_owed()
        return sorted(
            self._views,
            key=lambda n: (isinstance(self._views[n], AggregatedView), n),
        )

    def _registered(
        self, name: str, aggregated: Optional[bool] = None
    ) -> Maintained:
        """The registry entry for *name*; *aggregated* narrows the
        lookup to one kind of view."""
        self._build_owed()
        target = self._views.get(name)
        if target is None or aggregated not in (
            None,
            isinstance(target, AggregatedView),
        ):
            kind = {None: "", True: "aggregated ", False: "plain "}[aggregated]
            raise CatalogError(f"no {kind}view named {name!r}")
        return target

    def view(self, name: str) -> MaterializedView:
        return self._registered(name, aggregated=False).view

    def aggregated_view(self, name: str) -> AggregatedView:
        return self._registered(name, aggregated=True)

    def maintainer(self, name: str) -> ViewMaintainer:
        return self._registered(name, aggregated=False)

    def definition(self, name: str) -> ViewDefinition:
        return self._registered(name).definition

    def view_rows(self, name: str) -> List[Row]:
        """Settled contents of one view (plain or aggregated)."""
        self.scheduler.drain()
        return self._registered(name).rows()

    def table_rows(self, table: str) -> List[Row]:
        """Settled rows of one base table."""
        self.scheduler.drain()
        return list(self.db.table(table).rows)

    def merged_database(self) -> Database:
        """The settled base tables as one database: here simply
        ``self.db`` (a sharded warehouse merges its partitions into a
        standalone copy)."""
        self.scheduler.drain()
        return self.db

    @property
    def quarantined_views(self) -> List[str]:
        """Views excluded from fan-out until :meth:`repair_view`."""
        return self.scheduler.quarantined

    # ------------------------------------------------------------------
    # snapshot reads (MVCC — see docs/SERVING.md)
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """The latest published consistent :class:`~repro.runtime.Snapshot`.

        Never blocks on maintenance: this is an O(1) handle grab, even
        while a fan-out is mid-flight.  The snapshot reflects all
        changes up to its ``lsn`` and nothing of any later change —
        reads from it can never observe a torn batch.
        """
        self._build_owed()
        snapshot = self.snapshots.latest()
        assert snapshot is not None  # one is published at construction
        return snapshot

    def query(
        self,
        view: str,
        predicate: Optional[Callable[[Dict[str, object]], bool]] = None,
        snapshot: Optional[Snapshot] = None,
        limit: Optional[int] = None,
        **equalities,
    ) -> List[Row]:
        """Read *view* at a consistent snapshot (the latest by default).

        ``equalities`` are column=value filters — a full view-key match
        is a single hash probe; *predicate* sees each candidate row as a
        column->value dict.  Pass an explicit *snapshot* (from
        :meth:`snapshot`) to run several queries against one epoch.
        Read latency, snapshot age and reader-visible lag are metered
        through :class:`~repro.obs.Telemetry`.
        """
        started = time.perf_counter()
        snap = snapshot if snapshot is not None else self.snapshot()
        rows = snap.query(
            view, predicate=predicate, limit=limit, **equalities
        )
        elapsed = time.perf_counter() - started
        self.telemetry.emit(
            "snapshot.read",
            view=view,
            seconds=elapsed,
            snapshot_age=snap.age_seconds(),
            lag=max(0, self.snapshots.last_seq - snap.seq),
        )
        return rows

    def serving_stats(self) -> Dict[str, object]:
        """Read-path counters for the dashboard (see ``/dashboard.json``)."""
        latest = self.snapshots.latest()
        return {
            "snapshots_published": self.snapshots.published_count,
            "snapshots_retained": self.snapshots.retained,
            "snapshots_invalidated": self.snapshots.invalidated_count,
            "publish_errors": self._publish_errors,
            "captured_rows": self.snapshots.captured_rows,
            "full_captures": self.snapshots.full_captures,
            "overlay_folds": self.snapshots.overlay_folds,
            "latest_lsn": latest.lsn if latest is not None else None,
            "latest_age_seconds": (
                latest.age_seconds() if latest is not None else None
            ),
            "stale_views": (
                sorted(latest.stale_views) if latest is not None else []
            ),
        }

    # ------------------------------------------------------------------
    # DML with fan-out — written once, against the transport seam
    # ------------------------------------------------------------------
    def insert(self, table: str, rows: Iterable[Row]) -> Reports:
        return self._change(table, INSERT, rows)

    def delete(self, table: str, rows: Iterable[Row]) -> Reports:
        return self._change(table, DELETE, rows)

    def delete_by_key(self, table: str, keys: Iterable[Row]) -> Reports:
        return self._change(table, DELETE_BY_KEY, keys)

    def update(
        self,
        table: str,
        old_rows: Iterable[Row],
        new_rows: Iterable[Row],
    ) -> List[Reports]:
        """UPDATE as one transaction of a delete and an insert across
        every view, with foreign-key shortcuts disabled (the paper's
        Section 6 caveat 1): one journal record, one publish, and a
        failure leaves nothing behind.  The insert is checked like any
        insert; the delete is not, so an absent old row is skipped and
        the new row is still inserted."""
        with self.transaction() as txn:
            return [
                txn._statement(table, DELETE, old_rows, fk_allowed=False, check=False),
                txn._statement(table, INSERT, new_rows, fk_allowed=False),
            ]

    def apply_async(
        self, table: str, operation: str, rows: Iterable[Row]
    ) -> ChangeTicket:
        """Queue one change and return without waiting for the fan-out.

        The change is WAL-logged and applied in submission order by the
        dispatcher (inline immediately when ``workers=0``).  Call
        :meth:`flush` to wait for every queued change and surface any
        failures, or ``ticket.wait()`` for just this one.

        With ``max_queue_depth`` set, a full queue blocks here
        (``overflow="block"``) or raises
        :class:`~repro.errors.BackpressureError` *before* any
        base-table effect (``overflow="shed"``) — memory stays bounded
        either way.
        """
        if operation not in (INSERT, DELETE):
            raise MaintenanceError(
                f"unknown operation {operation!r} (expected "
                f"{INSERT!r} or {DELETE!r})"
            )
        ticket = self._submit(table, operation, [tuple(r) for r in rows])
        self._pending_tickets.append(ticket)
        return ticket

    def flush(self) -> List[FanOutResult]:
        """Wait for every queued change, fsync the WAL, surface failures.

        A flush boundary is the consistent point of the durability
        contract: all changes submitted so far are applied and their WAL
        acknowledgements are on disk, so this is when to snapshot base
        tables (see ``docs/DURABILITY.md``).  Raises
        :class:`~repro.errors.FanOutError` if any flushed change failed
        on some view (after waiting for all of them and syncing).
        """
        started = time.perf_counter()
        tickets, self._pending_tickets = self._pending_tickets, []
        results = [ticket.wait() for ticket in tickets]
        self._settle()
        self.telemetry.emit(
            "warehouse.flush", seconds=time.perf_counter() - started
        )
        failed: Dict[str, Exception] = {}
        quarantined: List[str] = []
        for result in results:
            failed.update(result.failures)
            quarantined.extend(result.quarantined)
            if result.error is not None:
                raise result.error
        if failed:
            names = ", ".join(sorted(failed))
            raise FanOutError(
                f"maintenance failed for view(s) {names} during flush of "
                f"{len(results)} queued change(s)",
                failures=failed,
                quarantined=quarantined,
            ) from next(iter(failed.values()))
        self._maybe_checkpoint()
        return results

    def _change(self, table: str, operation: str, rows: Iterable[Row]) -> Reports:
        """One synchronous change: submit, wait, raise what failed."""
        started = time.perf_counter()
        ticket = self._submit(table, operation, [tuple(r) for r in rows])
        reports = self._finalize(ticket.wait())
        self.telemetry.emit(
            "warehouse.apply", seconds=time.perf_counter() - started
        )
        self._maybe_checkpoint()
        return reports

    def _finalize(self, result: FanOutResult) -> Reports:
        """Raise a completed change's failure; else return its reports."""
        if result.error is not None:
            raise result.error
        if result.failures:
            failed = ", ".join(sorted(result.failures))
            raise FanOutError(
                f"maintenance failed for view(s) {failed} "
                f"({result.operation} on {result.table!r}); the remaining "
                f"{len(result.reports)} view(s) were maintained",
                reports=result.reports,
                failures=result.failures,
                quarantined=result.quarantined,
            ) from next(iter(result.failures.values()))
        return result.reports

    # ------------------------------------------------------------------
    # the local transport
    # ------------------------------------------------------------------
    def _submit(self, table: str, operation: str, rows: List[Row]) -> ChangeTicket:
        """Queue (prepare → fan out → ack) for one base-table change.

        ``prepare`` runs serialized (dispatcher thread, or inline when
        ``workers=0``): it mutates the base table, then WAL-logs the
        exact delta **before any view is touched** — write-ahead of the
        recoverable work, which here is the multi-view maintenance.

        A change whose delta is empty changed nothing: it is not logged,
        maintained, published or counted towards ``checkpoint_interval``.
        """
        self._build_owed()
        logged = DELETE if operation == DELETE_BY_KEY else operation
        changed = False

        def prepare():
            nonlocal changed
            if operation == DELETE_BY_KEY:
                delta = self.db.delete_by_key(table, rows)
            elif operation == DELETE:
                delta = self.db.delete(table, rows)
            else:
                delta = self.db.insert(table, rows)
            if not len(delta):
                return [], None
            changed, self._pool = True, None
            self._changes_since_checkpoint += 1
            lsn = None
            if self.wal is not None:
                try:
                    lsn = self.wal.append(table, logged, delta.rows)
                except BaseException:
                    # the log withdrew the entry and no view has seen the
                    # delta: take it back out, so a failed append leaves
                    # what a failed constraint check leaves — nothing
                    self._apply_inverse(table, logged, delta.rows)
                    raise
            return self._tasks(table, delta, logged, True), lsn

        def complete(result: FanOutResult) -> None:
            if changed:
                self._ack(result)

        return self.scheduler.submit(prepare, table, logged, on_complete=complete)

    def _apply_inverse(self, table: str, operation: str, rows: List[Row]) -> Tuple[str, Table]:
        """Take an applied change back out of the base table, unchecked;
        returns the inverse operation and its delta."""
        if operation == INSERT:
            return DELETE, self.db.delete(table, rows, check=False)
        return INSERT, self.db.insert(table, rows, check=False)

    def _tasks(
        self, table: str, delta: Table, operation: str, fk_allowed: bool
    ) -> List[Task]:
        """One scheduler task per view the change reaches, in registration
        order; an empty delta reaches none.  A view whose pass record is
        statically empty gets none (if it reads *table*, the skipped pass
        is metered as primary-skipped);
        one whose record fails to compile does, so ``maintain`` raises
        inside the scheduler and the view is quarantined.  A failed ``maintain``
        leaves its view exactly pre-change.  The tasks share one memo: a
        sub-plan several views' plans hold runs once for the change."""
        if not len(delta):
            return []
        shared: SharedResults = {}
        tasks = []
        for name, target in self._views.items():
            try:
                empty = target.pass_record(table, operation, fk_allowed).empty
            except Exception:
                empty = False
            if not empty:
                run = partial(target.maintain, table, delta, operation, fk_allowed, shared)
                tasks.append(Task(name, run))
            elif table in target.definition.tables:
                skipped = MaintenanceReport(target.definition.name, table, operation, len(delta))
                skipped.primary_skipped = True
                self.telemetry.emit("maintenance.pass", report=skipped)
        return tasks

    def _maintain_now(
        self, table: str, delta: Table, operation: str, fk_allowed: bool
    ) -> Reports:
        """Fan an already-applied, unlogged delta out through the
        scheduler and wait (transaction statements: their WAL journal
        and snapshot publish happen at commit, not per statement)."""
        ticket = self.scheduler.submit(
            lambda: (self._tasks(table, delta, operation, fk_allowed), None),
            table,
            operation,
        )
        return self._finalize(ticket.wait())

    def _ack(self, result: FanOutResult) -> None:
        """Completion hook (dispatcher thread): the change reached every
        non-quarantined view.  The ack is advisory: recovery replays every
        entry past its restore point into the tables, then builds the views.

        This is also the MVCC publish point: the fan-out is complete and
        the next change's prepare has not started (the dispatcher is
        serial), so the current state is a consistent epoch.  A view
        that failed is quarantined by now, and the snapshot store reuses
        its last good capture."""
        if self.wal is not None and result.lsn is not None:
            self.wal.ack(result.lsn)
        if result.error is None:
            self._publish(lsn=result.lsn)

    def _publish(self, lsn: Optional[int] = None) -> Optional[Snapshot]:
        """Publish a read snapshot of the current state.  Never raises —
        it runs inside the dispatcher's completion hook, where an
        exception would be misreported as a change failure; a failed
        publish just leaves readers on the previous snapshot."""
        if self._recovering:
            return None
        try:
            if lsn is None and self.wal is not None:
                lsn = self.wal.last_lsn  # 0 before any append
            views = self._views.items()
            plain = {n: t.view for n, t in views if not isinstance(t, AggregatedView)}
            aggregated = {n: t for n, t in views if isinstance(t, AggregatedView)}
            snapshot = self.snapshots.publish(
                self.db.tables,
                plain,
                aggregated,
                stale=self.scheduler.quarantined,
                lsn=lsn,
            )
        except Exception:
            # a failed capture must not fail a change whose views are
            # already maintained; the store broke its journals, so the
            # next publish copies in full
            self._publish_errors += 1
            return None
        self.telemetry.emit(
            "snapshot.published",
            lsn=snapshot.lsn,
            retained=self.snapshots.retained,
            stale_views=len(snapshot.stale_views),
            captured_rows=snapshot.captured_rows,
            full_captures=snapshot.full_captures,
        )
        return snapshot

    def _settle(self) -> None:
        """The flush barrier: queue empty, WAL acknowledgements on disk."""
        self.scheduler.drain()
        if self.wal is not None:
            self.wal.sync()

    def _shutdown(self) -> None:
        self.scheduler.shutdown()
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------
    # checkpoint, recovery & repair
    # ------------------------------------------------------------------
    def checkpoint(self) -> str:
        """Write a durable checkpoint and compact the WAL behind it.

        Flushes first (the checkpoint must capture a quiescent,
        fully-acknowledged state); then
        :class:`~repro.runtime.CheckpointManager` writes a *delta* file
        netted from the WAL entries since the previous checkpoint, or a
        *base* (every table; no view is ever written) when those cannot
        stand for the change or the lineage is due for compaction.
        Finally the WAL drops the segments no retained restore point needs
        (:meth:`~repro.runtime.WriteAheadLog.compact`).  Returns the
        checkpoint path.
        """
        if self.checkpoints is None:
            raise MaintenanceError("checkpoint() requires a checkpoint_dir")
        if self._open_txns:
            raise MaintenanceError(
                "checkpoint() with a transaction open would record its "
                "uncommitted effects; commit or roll it back first"
            )
        self._checkpointing = True
        try:
            self.flush()
            lsn = self.wal.last_lsn if self.wal is not None else 0
            path = self.checkpoints.write(self.db, lsn=lsn, wal=self.wal)
            # Compact only as far as the *oldest* restore point kept has
            # reached: if the newest file is ever found damaged, the one
            # recovery falls back to still finds its WAL suffix.
            through = self.checkpoints.compactable_lsn()
            if self.wal is not None and through is not None:
                self.wal.compact(through)
            # snapshot retention follows the checkpoint boundary:
            # epochs the checkpoint covers need not be kept in the store
            self.snapshots.prune(lsn)
            self._changes_since_checkpoint = 0
            return path
        finally:
            self._checkpointing = False

    def _maybe_checkpoint(self) -> None:
        """Auto-checkpoint from caller-thread paths only (never from the
        dispatcher's completion hook — :meth:`checkpoint` flushes, and a
        flush from the dispatcher thread would deadlock the drain)."""
        if (
            self.checkpoint_interval is None
            or self._checkpointing
            or self._open_txns  # deferred to a change after they end
            or self._changes_since_checkpoint < self.checkpoint_interval
        ):
            return
        self.checkpoint()

    def recover(self) -> List[FanOutResult]:
        """Restart from a restore point, replay every WAL entry past it
        into the tables, then build each view once.

        The restore point is the newest verifiable checkpoint (when a
        ``checkpoint_dir`` is configured: a base rolled forward through
        its deltas), restored into the tables in place; with none, it is
        the tables this warehouse was opened with, at LSN 0.  Every entry
        past it replays, acknowledged or not: the restored state predates
        their effects.  A cold restart therefore reopens over the
        database it first opened with.  Two cases are refused before any
        state is touched: a warehouse that has applied a change since it
        opened, with no checkpoint to restore
        (:class:`~repro.errors.MaintenanceError` — its tables are no
        longer a restore point), and a replay that would have to start
        inside the WAL's compacted prefix
        (:class:`~repro.errors.CheckpointError`).
        Replay touches the tables only (``check=False``: each entry
        passed its checks when first logged) and re-acks each entry; a
        prepared transaction's entries reopen it in doubt instead (an
        abort maintains their inverses like any change).  Then the views
        deferred to this call are built, and the other non-quarantined
        ones rebuilt if the tables moved, all sharing one row pool.
        Corruption never aborts recovery: CRC-failed segments were
        quarantined by the WAL on open, and a replayed insert evicts the
        rows holding its keys (it is newer than any lost record).
        :attr:`last_recovery` says what happened (checkpoint, entries
        replayed, segments quarantined, views built over a lossy log).
        """
        if self.wal is None:
            raise MaintenanceError("recover() requires a wal_path")
        checkpoint: Optional[CheckpointData] = (
            self.checkpoints.latest()
            if self.checkpoints is not None
            else None
        )
        if checkpoint is None and self._pool is None:
            raise MaintenanceError(
                "cannot recover: no checkpoint to restore, and the tables "
                "have changed since this warehouse opened — reopen it over "
                "the database it first opened with, then recover()"
            )
        restore_lsn = checkpoint.lsn if checkpoint is not None else 0
        if restore_lsn < self.wal.compacted_through:
            # the replay would start inside the prefix compaction
            # deleted: refuse before anything is touched
            raise CheckpointError(
                "cannot recover: the newest verifiable restore point is at "
                f"LSN {restore_lsn}, but the WAL was compacted through LSN "
                f"{self.wal.compacted_through} — the entries between them "
                "are gone"
            )
        # Snapshots published before the crash may include changes whose
        # acknowledgements never became durable — after recovery they no
        # longer correspond to any applied LSN.  Flag them invalid for any
        # reader still holding one; publish and build nothing till the end.
        self.snapshots.invalidate("recovery")
        self._recovering = True
        if checkpoint is not None:
            # swap table contents in place: registered maintainers keep their
            # Database reference (and compiled plans read tables live)
            fresh = checkpoint.build_database()
            self.db.tables, self.db.foreign_keys = fresh.tables, fresh.foreign_keys
        entries = self.wal.entries_after(restore_lsn)
        lost = self.wal.corruption_detected
        doubt = self.wal.in_doubt()
        self._in_doubt = {}
        results = []
        for entry in entries:
            table, txn_id = self.db.tables[entry.table], doubt.get(entry.lsn)
            if entry.operation == DELETE:
                delta = self.db.delete(entry.table, entry.rows, check=False)
            else:
                if lost and txn_id is None and table.key is not None:
                    keys = list(map(table.key_of, entry.rows))
                    self.db.delete_by_key(entry.table, keys, check=False)
                delta = self.db.insert(entry.table, entry.rows, check=False)
            if txn_id is None:
                self.wal.ack(entry.lsn)
                results.append(FanOutResult(entry.table, entry.operation, lsn=entry.lsn))
                continue
            txn = self._in_doubt.get(txn_id)
            if txn is None:
                txn = self._in_doubt[txn_id] = Transaction(self)
                txn.txn_id = txn_id
            statement = (entry.table, entry.operation, delta.rows, entry.fk_allowed, False)
            txn._statements.append(statement)
            txn._lsns.append(entry.lsn)
        self.wal.sync()
        owed, self._owed = self._owed or {}, None
        pool, built = {}, []  # one row pool for the whole build
        if checkpoint is not None or entries:
            self._pool = None  # the tables moved
            for name, target in self._views.items():
                if not self.scheduler.is_quarantined(name):
                    target.rebuild(pool)
                    built.append(name)
        for name, build in owed.items():
            self._views[name] = build(pool)
            built.append(name)
        self._changes_since_checkpoint = 0
        # resume publishing and issue the post-recovery epoch.  (If
        # recovery itself raised above, the flag stays set and readers
        # keep seeing only invalidated snapshots — state is uncertain,
        # so that is the honest answer.)
        self._recovering = False
        self._publish(lsn=self.wal.last_lsn)
        self.last_recovery = {
            "checkpoint_lsn": checkpoint.lsn if checkpoint else None,
            "checkpoint_path": checkpoint.path if checkpoint else None,
            "replayed": len(entries),
            "corruption_detected": lost,
            "torn_tail_dropped": self.wal.torn_tail_dropped,
            "quarantined_segments": list(self.wal.quarantined_segments),
            "recomputed_views": built if lost else [],
        }
        self.telemetry.emit("recovery", summary=self.last_recovery)
        return results

    def repair_view(self, name: str) -> None:
        """Rebuild a (typically quarantined) view from the current base
        tables and reinstate it into the fan-out."""
        self.scheduler.drain()
        self._registered(name).rebuild()
        self.scheduler.reinstate(name)
        self._publish()  # the repaired view is fresh again

    def serve_obs(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> ObsServer:
        """Start (or return) the HTTP introspection endpoint for this
        warehouse — ``/metrics``, ``/healthz``, ``/dashboard.json``,
        ``/flight-recorder`` — on a daemon thread."""
        if self.obs_server is None:
            self.obs_server = ObsServer(
                self.telemetry, warehouse=self, host=host, port=port
            ).start()
        return self.obs_server

    def close(self) -> None:
        """Flush queued changes, shut the transport down, stop the
        introspection endpoint."""
        try:
            self.flush()
        finally:
            self._shutdown()
            if self.obs_server is not None:
                self.obs_server.stop()
                self.obs_server = None

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # transactions: one state machine (Transaction), the local seam here
    # ------------------------------------------------------------------
    def transaction(self) -> "Transaction":
        """A multi-statement atomic batch (the paper's Section 6 caveat-3
        setting)::

            with warehouse.transaction() as txn:
                txn.insert("orders", new_orders)
                txn.insert("lineitem", their_lines)  # FK deferrable → ok

        Statements execute (and views maintain) immediately, but
        DEFERRABLE foreign keys are only checked at commit, and any
        failure — constraint or otherwise — rolls the database *and*
        every registered view back to the transaction start."""
        return Transaction(self)

    def _txn_begin(self, txn: "Transaction") -> None:
        """Settle the queue, so no concurrent change interleaves with
        the statements (or their inverses on rollback)."""
        self._build_owed()
        self.scheduler.drain()
        txn._quarantined_at_entry = frozenset(self.scheduler.quarantined)
        self._open_txns.add(txn)

    def _txn_apply(
        self, txn: "Transaction", table: str, operation: str, rows: List[Row],
        fk_allowed: bool = True, check: bool = True,
    ) -> Reports:
        """Apply one statement now, DEFERRABLE foreign keys unchecked
        (*check* ``False``: nothing checked, as for an update's delete);
        record a non-empty delta (for the journal and the undo) *before*
        the fan-out, which may fail after the table has changed."""
        if operation == DELETE_BY_KEY:
            operation, delta = DELETE, self.db.delete_by_key(table, rows, check=check)
        elif operation == INSERT:
            delta = self.db.insert(table, rows, check=check, defer_deferrable=True)
        else:
            delta = self.db.delete(table, rows, check=check)
        if len(delta):
            self._pool = None
            txn._statements.append((table, operation, delta.rows, fk_allowed, check))
        return self._maintain_now(table, delta, operation, fk_allowed)

    def _txn_prepare(self, txn: "Transaction") -> None:
        """Check the deferred foreign keys.  A named transaction (a
        shard's part of a cross-shard one) also journals its statements
        here, tagged with its id: the prepare is durable, in doubt until
        the commit acks it or the abort resolves it."""
        for table, operation, rows, _, check in txn._statements:
            if operation == INSERT and check:
                self.db.check_deferred_fks(table, rows)
        if txn.txn_id is not None:
            self._txn_decide(txn)

    def _txn_decide(self, txn: "Transaction") -> List[int]:
        """The commit point: every statement not journaled yet, as one
        WAL record — logged together or not at all."""
        fresh = txn._statements[len(txn._lsns):]
        if self.wal is not None and fresh:
            txn._lsns += self.wal.journal(
                [statement[:4] for statement in fresh], txn.txn_id
            )
        return txn._lsns

    def _txn_commit(self, txn: "Transaction", lsns: List[int]) -> None:
        """The statements are already maintained: ack them and sync (a
        prepare's commit must be durable), then publish it — intermediate
        statement states were never visible to readers.  A commit counts
        as one change towards ``checkpoint_interval``, an empty one as none."""
        self._open_txns.discard(txn)
        if self.wal is not None:
            for lsn in lsns:
                self.wal.ack(lsn)
            self.wal.sync()
        if txn._statements:
            self._publish()
            self._changes_since_checkpoint += 1
            self._maybe_checkpoint()

    def _txn_abort(self, txn: "Transaction") -> None:
        """Undo as an inverse change: a durable prepare's ``resolve``
        marker first, then each statement's inverse, newest first,
        unchecked and maintained like any change.  The walk passes back
        through states every non-deferrable foreign key held in, and a
        deferrable key never licenses a shortcut, so a statement's FK
        shortcuts stay as it had them.  A view failing on the way is
        quarantined and the walk goes on; every view quarantined since
        entry is then rebuilt from the restored tables, and the
        pre-transaction epoch published."""
        self._open_txns.discard(txn)
        if txn._lsns:
            self.wal.resolve(txn.txn_id)
        for table, operation, rows, fk_allowed, _ in reversed(txn._statements):
            inverse, delta = self._apply_inverse(table, operation, rows)
            try:
                self._maintain_now(table, delta, inverse, fk_allowed)
            except FanOutError:
                pass  # quarantined: rebuilt below
        for name in self.scheduler.quarantined:
            if name not in txn._quarantined_at_entry:
                self._registered(name).rebuild()
                self.scheduler.reinstate(name)
        self._publish()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def dashboard(self) -> str:
        """The per-view health dashboard (p50/p95 latency, rows touched,
        strategy mix, FK-shortcut rate, slowest terms) as text."""
        return self.telemetry.dashboard()

    def metrics_text(self) -> str:
        """Prometheus text exposition of every maintenance metric."""
        return self.telemetry.metrics_text()

    def openmetrics_text(self) -> str:
        """OpenMetrics 1.0 exposition (what ``/metrics`` serves)."""
        return self.telemetry.openmetrics_text()

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Every registered non-quarantined view must equal its
        recompute (quarantined views are stale by contract)."""
        self._build_owed()
        self.scheduler.drain()
        for name, target in self._views.items():
            if not self.scheduler.is_quarantined(name):
                target.check_consistency()


class Transaction:
    """An atomic multi-statement batch over either transport (see
    :meth:`Warehouse.transaction`): this class is the state machine, the
    warehouse's ``_txn_*`` seam methods are the transport.

    Construction begins it.  :meth:`prepare` checks the DEFERRABLE
    foreign keys the statements left unchecked (on every participating
    shard, whose part it also makes durable), without committing;
    idempotent.  :meth:`commit` prepares, passes the *commit
    point* — the statements journaled as one WAL record, or the
    coordinator's durable decision record — and lands the commit; past
    that point nothing rolls back (a later failure surfaces, and a
    sharded transaction is finished by the reincarnated shard or
    ``recover()``).  :meth:`rollback` undoes every statement by its
    inverse change — no copy of the database or of any view is ever
    taken.  As a context manager it commits on success and rolls back on
    any exception; a crash before the commit point loses the whole
    transaction.
    """

    def __init__(self, warehouse: Warehouse):
        self.warehouse = warehouse
        self.txn_id: Optional[str] = None  # the sharded seam names it
        # the local seam's record: statements as applied (journal,
        # deferred checks, undo), the LSNs journaled so far and the
        # views quarantined before entry
        self._statements: List[tuple] = []
        self._lsns: List[int] = []
        self._quarantined_at_entry: frozenset = frozenset()
        # the sharded seam's record: participating shard -> prepared
        self._shards: Dict[int, bool] = {}
        self._prepared = False
        warehouse._txn_begin(self)
        self._active = True

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._rollback_after(exc)
            return False
        try:
            self.commit()
        except Exception as failure:
            self._rollback_after(failure)
            raise
        return False

    # ------------------------------------------------------------------
    def insert(self, table: str, rows: Iterable[Row]) -> Reports:
        return self._statement(table, INSERT, rows)

    def delete(self, table: str, rows: Iterable[Row]) -> Reports:
        return self._statement(table, DELETE, rows)

    def _statement(
        self, table: str, operation: str, rows: Iterable[Row], **flags
    ) -> Reports:
        """One statement; *flags* (``fk_allowed``, ``check``) are
        :meth:`Warehouse.update`'s: no other statement sets them."""
        self._require_active()
        self._prepared = False  # a new statement may defer a new check
        return self.warehouse._txn_apply(
            self, table, operation, [tuple(r) for r in rows], **flags
        )

    def _require_active(self) -> None:
        if not self._active:
            raise CatalogError("transaction is no longer active")

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Check the deferred foreign keys without committing.  A
        failure raises and leaves the transaction active (to be rolled
        back); a repeated call after success does nothing."""
        self._require_active()
        if not self._prepared:
            self.warehouse._txn_prepare(self)
            self._prepared = True

    def commit(self) -> None:
        self.prepare()
        decision = self.warehouse._txn_decide(self)
        self._active = False  # the commit point: no rollback past here
        self.warehouse._txn_commit(self, decision)

    def rollback(self) -> None:
        """Undo every statement; a no-op once committed or rolled back."""
        if self._active:
            self._active = False
            self.warehouse._txn_abort(self)

    def _rollback_after(self, exc: BaseException) -> None:
        """Roll back on *exc*.  The rollback rebuilds every view
        quarantined since entry, so a :class:`FanOutError` is left
        naming only the views still quarantined after it."""
        self.rollback()
        if isinstance(exc, FanOutError) and exc.quarantined:
            still = set(self.warehouse.quarantined_views)
            exc.quarantined = [name for name in exc.quarantined if name in still]
