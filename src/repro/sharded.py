"""Sharded warehouse: process-parallel maintenance behind one facade.

:class:`ShardedWarehouse` hash- or range-partitions the base tables on
join keys into N shards, each owned by a **worker** running a private,
fully ordinary :class:`~repro.warehouse.Warehouse` — its own WAL segment
directory, checkpoint lineage, scheduler, snapshot store and plan cache.
Maintenance fans out across worker *processes* (``multiprocessing``
spawn; see :mod:`repro.runtime.shardproc`), so the per-view join work of
the paper's delta propagation runs on separate cores instead of
time-slicing one GIL.

Construction is transparent through the base class::

    wh = Warehouse(db, shards=4, wal_path="wal/", checkpoint_dir="ckpt/")
    wh.create_view("order_lines", expr)     # validated shard-local, then
    wh.insert("lineitem", rows)             # routed to the owning shard
    wh.query("order_lines", **{"orders.o_orderkey": 7})  # one-shard probe
    wh.flush()                              # merge barrier

``Warehouse(db, shards=N)`` returns a ``ShardedWarehouse``; the sharding
rules themselves (routing soundness, co-partitioning, the
witness/residue merge) live in :mod:`repro.runtime.sharding`.  The
change surface (``insert`` ... ``flush``) is the base class's; this
module is the *transport* behind it — routing, the wire, 2PC and merged
reads (``docs/ARCHITECTURE.md``, "Facade contract").

Semantics and caveats
---------------------
* **Statement atomicity** — a statement owned by one shard is one
  ``change`` round trip.  A statement touching several shards is a
  one-statement :class:`~repro.warehouse.Transaction`: one message per
  shard applies *and* prepares it, and its ticket then decides and
  commits (or rolls back everywhere), so every statement is
  all-or-nothing, and a worker dying mid-statement leaves whatever the
  decision log says.  With :meth:`apply_async` the decision happens
  when the ticket resolves (at the latest, the :meth:`flush` barrier);
  until then the statement is prepared but not committed on its shards.
* **Transactions** — :meth:`transaction` runs the same two-phase commit
  over every statement: a shard joins with its first statement, a
  prepare round checks deferred FKs and makes each shard's part durable,
  so a deferrable violation on any shard rolls the whole transaction
  back everywhere.
* **Reads** — :meth:`query` and :meth:`snapshot` recombine per-shard
  fragments through :func:`~repro.runtime.sharding.merge_view_rows`.  A
  query whose equality filters pin every routing column of some
  partitioned table in the view is answered by that single owning shard.
* **``.db`` is a schema template.**  The parent never maintains base
  rows; read merged state via :meth:`table_rows`, :meth:`view_rows`
  or :meth:`merged_database`.
* **Recovery** is the local rule on every shard: :meth:`recover` has
  each worker reopen over the partition rows it was seeded with and
  restore its newest checkpoint (or take those rows as LSN 0), replay
  every WAL entry past it, and then resolves in-doubt transactions from
  the coordinator's decision log.  A reincarnated worker runs the same
  path, and a cold restart is a facade reopened over the original
  database, then :meth:`recover`.

``docs/SHARDING.md`` is the long-form contract and runbook.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import Counter
from typing import Dict, Iterable, List, Optional, Union

from .core.maintain import MaintenanceOptions
from .core.secondary import DELETE
from .core.view import MaterializedView, ViewDefinition
from .engine.catalog import Database
from .engine.table import Row
from .errors import (
    CatalogError,
    MaintenanceError,
    ReproError,
    ShardingError,
    ShardUnavailableError,
)
from .planner import wire
from .runtime import DEFAULT_SEGMENT_BYTES, ChangeTicket, FanOutResult
from .runtime.failpoints import FAILPOINTS
from .runtime.sharding import (
    ShardingSpec,
    ShardRouter,
    ViewShardPlan,
    merge_view_rows,
    plan_view,
)
from .runtime.shardproc import ShardHandle, raise_shard_error, unavailable
from .runtime.supervisor import ShardSupervisor
from .runtime.txnlog import TxnDecisionLog
from .warehouse import DELETE_BY_KEY, Reports, Transaction, Warehouse

__all__ = ["ShardedWarehouse", "ShardedSnapshot"]

#: skew (max/mean partition size) above which shard_stats() emits a
#: rebalance advisory for a partitioned table
REBALANCE_SKEW_THRESHOLD = 2.0


class _ShardedTicket(ChangeTicket):
    """One routed change.  The coordinator has no dispatcher thread, so
    the ticket resolves on the first :meth:`wait` (the flush barrier
    waits every outstanding ticket, in order): shard replies are merged
    into one :class:`~repro.runtime.FanOutResult` and a multi-shard
    statement's transaction is committed — or, on a failure, rolled back
    and the error lands in ``result.error``."""

    def __init__(self, warehouse, table, operation, replies, txn):
        super().__init__(table, operation)
        self._warehouse = warehouse
        self._replies = replies  # {shard: _Reply}
        self._txn = txn  # the statement's Transaction, or None
        self._resolving = threading.Lock()

    def wait(self, timeout: Optional[float] = None) -> FanOutResult:
        with self._resolving:
            if not self.done():
                self._complete(self._warehouse._resolve(self, timeout))
        return super().wait()

    def add_done_callback(self, fn) -> None:
        super().add_done_callback(fn)
        if not self.done():
            # nobody may ever wait() on this ticket (the asyncio front
            # end does not): a short-lived waiter resolves it
            threading.Thread(
                target=self.wait, name="repro-shard-ticket", daemon=True
            ).start()


class ShardedSnapshot:
    """Consistent cross-shard read epoch: one pinned worker snapshot per
    shard, queried through the merge barrier.  Pin at a flush boundary
    for global consistency; :meth:`release` (or the context manager)
    drops the worker pins."""

    def __init__(self, warehouse: "ShardedWarehouse", pins: Dict[int, Dict]):
        self._warehouse = warehouse
        self._pins = pins
        self.lsn = max(p["lsn"] for p in pins.values())
        self.shard_lsns = {s: p["lsn"] for s, p in pins.items()}
        self.stale_views = frozenset().union(
            *(frozenset(p["stale"]) for p in pins.values())
        )
        self._released = False

    def query(
        self,
        view: str,
        predicate=None,
        limit: Optional[int] = None,
        **equalities,
    ) -> List[Row]:
        if self._released:
            raise ShardingError("sharded snapshot was released")
        seqs = {s: p["seq"] for s, p in self._pins.items()}
        return self._warehouse._query_merged(
            view, equalities, predicate, limit, seqs=seqs
        )

    def view_rows(self, view: str) -> List[Row]:
        return self.query(view)

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        for shard, pin in self._pins.items():
            try:
                self._warehouse._call(
                    "snapshot_release", shard, seq=pin["seq"]
                )
            except ShardUnavailableError:
                # the pin died with the worker; nothing left to release
                pass

    def __enter__(self) -> "ShardedSnapshot":
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False


def _worker_side(message: str):
    """A :class:`Warehouse` member with no coordinator-side meaning:
    the object it names lives inside the shard workers."""

    def unsupported(self, *args, **kwargs):
        raise ShardingError(message)

    return unsupported


class ShardedWarehouse(Warehouse):
    """N partitioned warehouses behind the :class:`Warehouse` facade.

    Parameters (beyond the facade's own ``db`` / ``telemetry`` /
    ``obs_http_port`` / ``obs_http_host``, which mean what they mean
    locally):

    shards:
        Shard count.  ``Warehouse(db, shards=N)`` routes here.
    sharding:
        An explicit :class:`~repro.runtime.ShardingSpec` — which tables
        to partition, on what columns, by hash or by range split points.
        Default: :meth:`ShardingSpec.for_database` (the largest
        un-referenced table, hash-partitioned on its key).
    shard_backend:
        What runs each worker's end of the pipe: ``"process"`` (default —
        a spawned process per shard) or ``"thread"`` (a thread in this
        process; deterministic, and the chaos failpoints reach it — what
        the fuzz oracle uses).
    wal_path / checkpoint_dir:
        *Root* directories; shard *i* uses ``<root>/shard-<i>``.
    workers / segment_bytes / checkpoint_interval:
        Passed unchanged to every per-shard warehouse, so they are
        checked exactly as the local facade checks them.
    call_deadline_seconds:
        Per-call reply deadline (default 30).  A reply that misses it
        raises :class:`~repro.errors.ShardUnavailableError` and tips
        the supervisor off to probe (and, if the worker is gone or
        stuck, reincarnate) the shard — no caller ever blocks forever
        on a dead worker.
    probe_timeout_seconds / restart_budget:
        :class:`~repro.runtime.supervisor.ShardSupervisor` knobs — see
        ``docs/SHARDING.md`` ("Partial failure runbook"); restarts are
        counted over a fixed 60 s window.  A dead worker is detected by
        pipe EOF, a hung one by the next call's deadline plus a ping
        probe.
    """

    def _open_transport(
        self,
        *,
        shards: Optional[int] = None,
        sharding: Optional[ShardingSpec] = None,
        shard_backend: str = "process",
        wal_path: Optional[str] = None,
        workers: int = 0,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: Optional[int] = None,
        call_deadline_seconds: float = 30.0,
        probe_timeout_seconds: float = 5.0,
        restart_budget: int = 5,
    ) -> None:
        """Spawn the shard workers.  ``.db`` stays a schema template:
        tables, WAL, scheduler and snapshot store all live in them."""
        db = self.db
        if sharding is None:
            sharding = ShardingSpec.for_database(db, shards or 1)
        else:
            sharding.validate(db)
        self.spec = sharding
        if shards is not None and shards != self.spec.shards:
            raise ShardingError(
                f"shards={shards} disagrees with the sharding spec's "
                f"{self.spec.shards}"
            )
        self.router = ShardRouter(self.spec, db)
        self.shards = self.spec.shards
        self.backend = shard_backend
        self._definitions: Dict[str, ViewDefinition] = {}
        self._plans: Dict[str, ViewShardPlan] = {}
        self._outputs: Dict[str, List[str]] = {}
        self._options: Dict[str, Optional[MaintenanceOptions]] = {}
        self._closed = False
        self.call_deadline = call_deadline_seconds
        self._txn_counter = itertools.count(1)
        # coordinator 2PC decisions: durable next to the WAL lineage so
        # a coordinator restart resolves in-doubt transactions the same
        # way a live recover() does (volatile without a wal_path)
        self.txnlog = TxnDecisionLog(
            f"{wal_path}/txnlog" if wal_path else None
        )
        # transactions whose decision is still being made: a
        # reincarnated shard leaves these in doubt for the coordinator
        self._undecided: set = set()
        self._txn_lock = threading.Lock()  # a decision vs. recover()

        # shallow lists sharing the row tuples: the inits kept for
        # reincarnation hold no second copy of the database
        schema = wire.encode_schema(db)
        replicated_rows = {
            name: list(table.rows)
            for name, table in db.tables.items()
            if not self.spec.is_partitioned(name)
        }
        partitioned_rows: Dict[int, Dict[str, List]] = {}
        for name in self.spec.partitioned:
            split = self.router.split_rows(name, db.tables[name].rows)
            for shard, rows in split.items():
                partitioned_rows.setdefault(shard, {})[name] = rows
        # every shard's Warehouse(db, **settings); only the directories
        # differ, one shard-<i> below each root
        settings = dict(
            workers=workers, segment_bytes=segment_bytes,
            checkpoint_interval=checkpoint_interval,
        )
        self._handles: List[ShardHandle] = []
        self._inits: List[Dict] = []  # retained for shard reincarnation
        try:
            for shard in range(self.shards):
                rows = dict(replicated_rows)
                rows.update(partitioned_rows.get(shard, {}))
                init = {"schema": schema, "rows": rows, "settings": dict(
                    settings,
                    wal_path=wal_path and f"{wal_path}/shard-{shard}",
                    checkpoint_dir=checkpoint_dir and f"{checkpoint_dir}/shard-{shard}",
                )}
                self._inits.append(init)
                self._handles.append(ShardHandle(shard, init, shard_backend))
        except Exception:
            # terminate (not close) the workers that did spawn: close()
            # waits out a graceful round-trip per shard, and the caller
            # holds no reference to clean up with after we re-raise
            for handle in self._handles:
                handle.terminate()
            raise
        self.supervisor = ShardSupervisor(
            self,
            probe_timeout=probe_timeout_seconds,
            restart_budget=restart_budget,
        )
        self.supervisor.attach()

    def _shard_init(self, shard: int) -> Dict:
        """The init a reincarnated worker for *shard* starts from: the
        retained construction init (initial partition rows, runtime
        directories) plus every view created since."""
        return dict(self._inits[shard], views=[
            (self._definitions[name], self._options[name])
            for name in self.view_names
        ])

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ShardingError("sharded warehouse is closed")

    def _wait_for(
        self, shard: int, reply, timeout: Optional[float] = None
    ) -> Dict:
        """Wait one reply under the per-call deadline.  A timeout means
        the worker is dead or stuck: tip the supervisor off (it probes
        and reincarnates off-thread) and hand back an error envelope so
        the caller fails fast through the normal error path."""
        limit = self.call_deadline if timeout is None else timeout
        try:
            return reply.wait(limit)
        except ShardUnavailableError as exc:
            self._note_unresponsive(shard, str(exc))
            return unavailable(f"shard {shard}: {exc}")

    def _call(
        self, cmd: str, shard: int,
        timeout: Optional[float] = None, **payload,
    ) -> Dict:
        """Deadline-guarded synchronous command against one shard."""
        reply = self._handles[shard].submit(cmd, **payload)
        return raise_shard_error(self._wait_for(shard, reply, timeout))

    def _note_unresponsive(self, shard: int, reason: str) -> None:
        supervisor = getattr(self, "supervisor", None)
        if supervisor is not None and not self._closed:
            supervisor.worker_unresponsive(shard, reason)

    def _note_shard_recovery(
        self,
        shard: int,
        *,
        summary: Optional[Dict],
        reason: str,
        degraded: bool,
        duration_seconds: Optional[float],
        quarantined: bool = False,
    ) -> None:
        """Supervisor callback: surface a reincarnation (or quarantine)
        through :attr:`last_recovery`, the same channel ``recover()``
        reports on — ``/healthz`` turns 503 while ``degraded``."""
        self.last_recovery = {
            "kind": "quarantine" if quarantined else "reincarnation",
            "shard": shard,
            "reason": reason,
            "summary": summary,
            "duration_seconds": duration_seconds,
            "quarantined_shards": sorted(self.supervisor.quarantined),
            "degraded": bool(degraded or self.supervisor.degraded),
        }

    def _broadcast(
        self,
        cmd: str,
        _tolerate_unavailable: bool = False,
        _shards: Optional[Iterable[int]] = None,
        **payload,
    ) -> Dict[int, Dict]:
        """Send *cmd* to every shard (or to ``_shards``) and wait them
        all out (see :meth:`_wait_all`)."""
        replies = {
            shard: self._handles[shard].submit(cmd, **payload)
            for shard in (range(self.shards) if _shards is None else _shards)
        }
        return self._wait_all(replies, tolerate_unavailable=_tolerate_unavailable)

    def _wait_all(
        self, replies: Dict, timeout: Optional[float] = None,
        tolerate_unavailable: bool = False,
    ) -> Dict[int, Dict]:
        """Every reply, then the first failure raised (after waiting: no
        shard is left mid-command).  With *tolerate_unavailable* dead
        shards' error envelopes are returned instead of raised, so
        health endpoints keep answering while a shard is down."""
        responses = {
            shard: self._wait_for(shard, reply, timeout)
            for shard, reply in replies.items()
        }
        for shard in sorted(responses):
            response = responses[shard]
            if not (
                tolerate_unavailable
                and response.get("error") == "ShardUnavailableError"
            ):
                raise_shard_error(response)
        return responses

    def _route(
        self, table: str, rows: List[Row], keys: bool = False
    ) -> Dict[int, List[Row]]:
        """``{shard: rows}`` for one statement (*keys*: the rows are
        unique-key values — routing ⊆ key, so the owner is determined
        without the full row).  Replicated tables go everywhere."""
        if not rows:
            return {}
        if not self.spec.is_partitioned(table):
            return {shard: rows for shard in range(self.shards)}
        if keys:
            return self.router.split_keys(table, rows)
        return self.router.split_rows(table, rows)

    def _merge_reports(self, responses: Dict[int, Dict]) -> Reports:
        """Recombine the shards' reports in *responses* into the first one
        per view (each shard's reports are this process's own copies): row
        counts add, term lists union, the slowest shard's time stands
        and the first strategy per term stays.  No report is
        primary-skipped: a shard runs no task for a view whose pass
        record is statically empty (``Warehouse._tasks``)."""
        merged: Reports = {}
        for shard in sorted(responses):
            for view, report in responses[shard]["reports"].items():
                into = merged.setdefault(view, report)
                if into is report:
                    continue
                into.base_rows += report.base_rows
                into.primary_rows += report.primary_rows
                for field in ("secondary_rows", "primary_term_rows"):
                    counts = getattr(into, field)
                    for key, count in getattr(report, field).items():
                        counts[key] = counts.get(key, 0) + count
                for field in ("direct_terms", "indirect_terms"):
                    terms = getattr(into, field)
                    terms += [t for t in getattr(report, field) if t not in terms]
                into.elapsed_seconds = max(into.elapsed_seconds, report.elapsed_seconds)
                for key, strategy in report.secondary_strategy_used.items():
                    into.secondary_strategy_used.setdefault(key, strategy)
        return merged

    # ------------------------------------------------------------------
    # view DDL
    # ------------------------------------------------------------------
    def create_view(
        self,
        name: str,
        view: Union[object, ViewDefinition],
        options: Optional[MaintenanceOptions] = None,
    ) -> None:
        self._require_open()
        if name in self._definitions:
            raise CatalogError(f"view {name!r} already exists")
        definition = (
            view
            if isinstance(view, ViewDefinition)
            else ViewDefinition(name, view)
        )
        plan = plan_view(definition, self.db, self.spec)
        self._broadcast("create_view", view=definition, options=options)
        self._definitions[name] = definition
        self._plans[name] = plan
        self._outputs[name] = list(definition.output_columns(self.db))
        self._options[name] = options

    def drop_view(self, name: str) -> None:
        """Drop *name* on every shard, then forget it here, so that no
        reincarnated worker re-creates it."""
        self._require_open()
        self._plan_of(name)  # CatalogError for an unknown view
        self._broadcast("drop_view", view=name)
        for registry in (self._definitions, self._plans, self._outputs, self._options):
            del registry[name]

    @property
    def view_names(self) -> List[str]:
        return sorted(self._definitions)

    def definition(self, name: str) -> ViewDefinition:
        self._plan_of(name)  # CatalogError for an unknown view
        return self._definitions[name]

    # what the local transport keeps in-process has no coordinator-side
    # counterpart: typed errors that name the sharded way to get there
    create_aggregated_view = _worker_side(
        "aggregated views are not supported in sharded mode yet; "
        "create them on a per-shard warehouse or unsharded"
    )
    view = aggregated_view = _worker_side(
        "a sharded warehouse has no single materialized view object; "
        "use query()/view_rows() to read merged contents"
    )
    maintainer = _worker_side(
        "view maintainers live inside shard workers; use "
        "shard_stats() or query() from the parent"
    )
    serving_stats = _worker_side(
        "snapshot stores live inside shard workers; use shard_stats()"
    )
    scheduler = property(
        _worker_side(
            "every shard worker runs its own scheduler; use "
            "quarantined_views / shard_stats() / repair_view()"
        )
    )
    snapshots = property(
        _worker_side(
            "every shard worker owns its snapshot store; use "
            "snapshot() / query() for pinned cross-shard reads"
        )
    )
    wal = checkpoints = property(
        _worker_side(
            "WAL and checkpoint lineages are per shard "
            "(<root>/shard-<i>); use shard_stats() / last_recovery"
        )
    )

    @property
    def quarantined_views(self) -> List[str]:
        quarantined = set()
        responses = self._broadcast("stats", _tolerate_unavailable=True)
        for response in responses.values():
            if response.get("ok"):
                quarantined.update(response["quarantined"])
        return sorted(quarantined)

    # ------------------------------------------------------------------
    # the change transport (the base class owns insert ... flush)
    # ------------------------------------------------------------------
    def _submit(self, table: str, operation: str, rows: List[Row]) -> ChangeTicket:
        """Route one statement and return the ticket that merges its
        replies (see :class:`_ShardedTicket`): one owning shard gets a
        plain ``change``; several get a one-statement transaction whose
        single message per shard applies and prepares it."""
        self._require_open()
        parts = self._route(table, rows, keys=operation == DELETE_BY_KEY)
        txn = Transaction(self) if len(parts) > 1 else None
        replies = self._send(txn, table, operation, parts, prepare=True)
        if operation == DELETE_BY_KEY:
            operation = DELETE
        return _ShardedTicket(self, table, operation, replies, txn)

    def _send(
        self, txn: Optional[Transaction], table: str, operation: str,
        parts: Dict[int, List[Row]], prepare: bool = False, **flags,
    ) -> Dict:
        """Submit one statement's rows to their owning shards: a plain
        ``change``, or a ``txn_stmt`` of *txn* that joins each shard on
        its first statement (and, with *prepare*, also prepares it);
        *flags* are an update's (see :meth:`Transaction._statement`)."""
        replies = {}
        for shard in sorted(parts):
            extra = {}
            if txn is not None:
                extra = {"txn_id": txn.txn_id, "prepare": prepare,
                         "join": shard not in txn._shards}
                txn._shards[shard] = prepare
            replies[shard] = self._handles[shard].submit(
                "change" if txn is None else "txn_stmt",
                table=table,
                operation=operation,
                rows=parts[shard],
                **flags,
                **extra,
            )
            self.telemetry.emit("shard.change", shard=shard, table=table)
        return replies

    def _resolve(
        self, ticket: _ShardedTicket, timeout: Optional[float]
    ) -> FanOutResult:
        """Wait one statement's shard replies out and merge the per-view
        reports; a multi-shard statement then commits through its
        transaction.  Any failure before the commit point rolls it back
        on every shard, and the first typed error lands in
        ``result.error`` — all-or-nothing, like a constraint failure on
        the local transport, naming only views it left quarantined."""
        result = FanOutResult(ticket.table, ticket.operation)
        try:
            responses = self._wait_all(ticket._replies, timeout)
            if ticket._txn is not None:
                ticket._txn.commit()
            result.reports = self._merge_reports(responses)
        except ReproError as exc:
            if ticket._txn is not None:
                ticket._txn._rollback_after(exc)  # a no-op past the commit point
            result.error = exc
        return result

    def _settle(self) -> None:
        """The merge barrier: every shard drains its queue and fsyncs
        its WAL.  After it, per-shard snapshots recombine consistently."""
        self._require_open()
        self._broadcast("flush")

    def _shutdown(self) -> None:
        self._closed = True
        for handle in self._handles:
            handle.close()

    # ------------------------------------------------------------------
    # the transaction seam (Transaction is the base class's): a
    # worker-local transaction on every shard a statement reaches,
    # committed two-phase.  Each shard's prepare is durable, and after
    # every participant prepares a durable decision record
    # (TxnDecisionLog) is written *before* the first commit message, so
    # a crash anywhere in the window is deterministic: a prepared shard
    # commits when the record exists and aborts (presumed abort) when it
    # does not — on reincarnation, or at recover().
    # ------------------------------------------------------------------
    def _txn_begin(self, txn: Transaction) -> None:
        # counter for human-readable ordering; uuid suffix so ids never
        # collide across facade restarts sharing one decision-log dir.
        # No shard hears of it yet: each joins with its first statement.
        txn.txn_id = f"t{next(self._txn_counter)}-{uuid.uuid4().hex[:8]}"
        self._undecided.add(txn.txn_id)

    def _txn_apply(
        self, txn: Transaction, table: str, operation: str,
        rows: List[Row], **flags,
    ) -> Reports:
        # a failed statement leaves every worker transaction open; the
        # caller rolls them back together
        parts = self._route(table, rows)
        responses = self._wait_all(self._send(txn, table, operation, parts, **flags))
        return self._merge_reports(responses)

    def _txn_prepare(self, txn: Transaction) -> None:
        """Phase 1: every participant not prepared yet validates its
        deferred FKs and makes its part durable; nobody commits."""
        unprepared = [s for s, prepared in txn._shards.items() if not prepared]
        self._broadcast("txn_prepare", _shards=unprepared, txn_id=txn.txn_id)
        txn._shards.update(dict.fromkeys(unprepared, True))
        FAILPOINTS.hit("txn.coordinator.prepared", txn=txn.txn_id)

    def _txn_decide(self, txn: Transaction) -> None:
        """The commit point: one durable record of the participants flips
        the transaction from presumed-abort to must-commit.  One that a
        ``recover()`` already resolved can no longer commit."""
        with self._txn_lock:
            if txn.txn_id not in self._undecided:
                raise ShardingError(
                    f"transaction {txn.txn_id} was resolved by recover() "
                    "before its decision"
                )
            self.txnlog.decide(txn.txn_id, sorted(txn._shards))
            self._undecided.discard(txn.txn_id)

    def _txn_commit(self, txn: Transaction, decision: None) -> None:
        """Phase 2, shard by shard; each send has its own crash window
        (``txn.coordinator.commit``) leaving a committed prefix and an
        in-doubt suffix.  A failed commit keeps the decision record: the
        shard's prepared part is durable, and its reincarnation commits
        it (``recover()`` then retires the record)."""
        FAILPOINTS.hit("txn.coordinator.decided", txn=txn.txn_id)
        replies = {}
        for shard in sorted(txn._shards):
            FAILPOINTS.hit("txn.coordinator.commit", txn=txn.txn_id, shard=shard)
            replies[shard] = self._handles[shard].submit(
                "txn_commit", txn_id=txn.txn_id
            )
        self._wait_all(replies)
        self.txnlog.forget(txn.txn_id)

    def _txn_abort(self, txn: Transaction) -> None:
        # decided: presumed abort from here on.  A shard that lost the
        # transaction (or whose reincarnation resolved it) answers no-op
        self._undecided.discard(txn.txn_id)
        self._broadcast(
            "txn_abort", _tolerate_unavailable=True,
            _shards=sorted(txn._shards), txn_id=txn.txn_id,
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _plan_of(self, view: str) -> ViewShardPlan:
        try:
            return self._plans[view]
        except KeyError:
            raise CatalogError(f"no view named {view!r}") from None

    def _fastpath_shard(self, view: str, equalities: Dict) -> Optional[int]:
        """The single shard that can answer alone: any one (shard 0) for
        a replicated-only view, else the owning shard when the equality
        filters pin every routing column of some partitioned table in
        *view* (non-null values only: residue rows cannot match such a
        filter)."""
        plan = self._plan_of(view)
        if plan.replicated_only:
            return 0
        output = self._outputs[view]
        normalized = {}
        for name, value in equalities.items():
            if name in output:
                normalized[name] = value
                continue
            matches = [
                c for c in output if c.split(".", 1)[-1] == name
            ]
            if len(matches) == 1:
                normalized[matches[0]] = value
        for table in plan.partitioned_tables:
            columns = self.spec.qualified_routing(table)
            if all(
                c in normalized and normalized[c] is not None
                for c in columns
            ):
                return self.spec.shard_of_values(
                    tuple(normalized[c] for c in columns)
                )
        return None

    def _query_merged(
        self,
        view: str,
        equalities: Dict,
        predicate,
        limit: Optional[int],
        seqs: Optional[Dict[int, int]] = None,
    ) -> List[Row]:
        shard = self._fastpath_shard(view, equalities)
        targets = range(self.shards) if shard is None else [shard]
        replies = {
            target: self._handles[target].submit(
                "query",
                view=view,
                equalities=dict(equalities),
                seq=None if seqs is None else seqs[target],
            )
            for target in targets
        }
        fragments = [
            raise_shard_error(self._wait_for(target, reply))["rows"]
            for target, reply in replies.items()
        ]
        rows = fragments[0] if shard is not None else self._merge(self._plan_of(view), fragments)
        self.telemetry.emit(
            "shard.query",
            outcome="fanout" if shard is None else "fastpath",
        )
        if predicate is not None:
            columns = self._outputs[view]
            rows = [
                row for row in rows if predicate(dict(zip(columns, row)))
            ]
        if limit is not None:
            rows = rows[:limit]
        return rows

    def query(
        self,
        view: str,
        predicate=None,
        snapshot: Optional[ShardedSnapshot] = None,
        limit: Optional[int] = None,
        **equalities,
    ) -> List[Row]:
        """Read merged view contents (each shard answers from its latest
        published snapshot; pass a pinned :meth:`snapshot` for a stable
        cross-shard epoch)."""
        self._require_open()
        if snapshot is not None:
            return snapshot.query(
                view, predicate=predicate, limit=limit, **equalities
            )
        return self._query_merged(view, equalities, predicate, limit)

    def snapshot(self) -> ShardedSnapshot:
        """Pin one snapshot per shard (their latest published epochs).
        Pin right after :meth:`flush` for global consistency."""
        self._require_open()
        return ShardedSnapshot(self, self._broadcast("snapshot_pin"))

    # ------------------------------------------------------------------
    # merged state (settled reads: a worker drains, then ships what is named)
    # ------------------------------------------------------------------
    def _dump(self, tables: Dict[int, List[str]], views: Iterable[str] = ()) -> Dict[int, Dict]:
        """Each shard in *tables* ships its named tables and *views*."""
        self._require_open()
        return self._wait_all({
            s: self._handles[s].submit("dump", tables=names, views=list(views))
            for s, names in tables.items()
        })

    def _table_rows(self, table: str, dumps: Dict[int, Dict]) -> List[Row]:
        """Partitions concatenated; a replicated table from shard 0."""
        shards = sorted(dumps) if self.spec.is_partitioned(table) else [0]
        return [row for shard in shards for row in dumps[shard]["tables"][table]]

    def _merge(self, plan: ViewShardPlan, fragments: List[List[Row]]) -> List[Row]:
        """One view's per-shard fragments recombined, the merge metered."""
        started = time.perf_counter()
        rows = merge_view_rows(plan, fragments)
        self.telemetry.emit("shard.merge", seconds=time.perf_counter() - started)
        return rows

    def table_rows(self, table: str) -> List[Row]:
        """Merged rows of one base table across all shards."""
        if table not in self.db.tables:
            raise CatalogError(f"no table named {table!r}")
        shards = range(self.shards) if self.spec.is_partitioned(table) else [0]
        return self._table_rows(table, self._dump({s: [table] for s in shards}))

    def view_rows(self, name: str) -> List[Row]:
        """One view's merged global contents."""
        plan = self._plan_of(name)
        dumps = self._dump({s: [] for s in range(self.shards)}, [name])
        return self._merge(plan, [dumps[s]["views"][name] for s in sorted(dumps)])

    def merged_database(self) -> Database:
        """A standalone database holding the merged base tables
        (replicated tables from shard 0)."""
        every, partitioned = list(self.db.tables), list(self.spec.partitioned)
        dumps = self._dump({s: partitioned if s else every for s in range(self.shards)})
        return wire.build_database(
            wire.encode_schema(self.db),
            {t: self._table_rows(t, dumps) for t in self.db.tables},
        )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[int, str]:
        """Flush, then checkpoint every shard.  Returns per-shard paths."""
        self.flush()
        return {
            shard: response["path"]
            for shard, response in self._broadcast("checkpoint").items()
        }

    def recover(self) -> List:
        """Recover every shard by the local rule, then settle the
        coordinator's transactions.  Each worker drops its in-memory
        state, reopens over the partition rows it was seeded with and
        recovers: its newest checkpoint (or those rows, at LSN 0), then
        every WAL entry past it.  The prepared transactions the replays
        reopened in doubt land where the coordinator decision log says —
        a durable commit decision commits everywhere, no decision means
        presumed abort — and changes queued but not yet resolved are
        dropped, as a coordinator restart drops them.  The per-shard
        summaries aggregate into :attr:`last_recovery`, ``degraded``
        when any shard quarantined WAL segments or detected corruption."""
        self._require_open()
        responses = self._broadcast("recover")
        self._pending_tickets = []
        self._aggregate_recovery(responses, self._resolve_indoubt())
        return []

    def _resolve_indoubt(self) -> List[Dict]:
        """Drive every shard's open transactions to the outcome the
        coordinator decision log recorded — commit when a durable commit
        decision exists, presumed abort otherwise — then forget the
        decisions.  Whatever the coordinator was still deciding is
        resolved too: a recover() stands in for a coordinator restart.
        Idempotent."""
        with self._txn_lock:
            self._undecided.clear()
            records = self.txnlog.pending()
        responses = self._broadcast(
            "txn_resolve", commits=[r.txn_id for r in records]
        )
        resolved = []
        for shard in sorted(responses):
            for item in responses[shard]["resolved"]:
                resolved.append({"shard": shard, **item})
                self.telemetry.emit(
                    "txn.indoubt.resolved", txn=item["txn_id"],
                    outcome=item["outcome"],
                )
        # only forget once every shard acknowledged its resolution: a
        # failure above leaves the decisions for the next recover()
        for record in records:
            self.txnlog.forget(record.txn_id)
        return resolved

    def _aggregate_recovery(
        self, responses: Dict[int, Dict], resolved: List[Dict]
    ) -> None:
        """Fold every shard's ``recover`` summary into
        :attr:`last_recovery`."""
        shard_summaries = {
            shard: response["summary"] or {}
            for shard, response in responses.items()
        }
        quarantined = {
            s: list(info.get("quarantined_segments") or [])
            for s, info in shard_summaries.items()
            if info.get("quarantined_segments")
        }
        corruption = any(
            info.get("corruption_detected") for info in shard_summaries.values()
        )
        self.last_recovery = {
            "shards": shard_summaries,
            "replayed": sum(
                info.get("replayed", 0) for info in shard_summaries.values()
            ),
            "corruption_detected": corruption,
            "torn_tail_dropped": any(
                info.get("torn_tail_dropped")
                for info in shard_summaries.values()
            ),
            "quarantined_segments": quarantined,
            "recomputed_views": sorted(
                set().union(
                    *(
                        info.get("recomputed_views") or []
                        for info in shard_summaries.values()
                    )
                )
            ),
            "resolved_transactions": resolved,
            "degraded": bool(quarantined) or corruption,
        }
        self.telemetry.emit("recovery", summary=self.last_recovery)

    def repair_view(self, name: str) -> None:
        if name not in self._definitions:
            raise CatalogError(f"no view named {name!r}")
        self._broadcast("repair_view", view=name)

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def shard_stats(self) -> Dict:
        """Each worker's ``stats`` (row counts, GC counts, ...), queue depths
        and skew, plus rebalance advisories for partitioned tables whose
        max/mean partition size exceeds :data:`REBALANCE_SKEW_THRESHOLD`.
        Rows, depths and skew also go through :class:`~repro.obs.Telemetry`.  Dead or
        quarantined shards are reported under ``unavailable`` instead
        of failing the whole call, and ``supervisor`` carries each
        shard's liveness state and restart history."""
        self._require_open()
        responses = self._broadcast("stats", _tolerate_unavailable=True)
        stats, down = {}, {}
        for shard, response in responses.items():
            if response.pop("ok"):
                stats[shard] = response
            else:
                down[shard] = response["message"]
        for shard, info in stats.items():
            for table, rows in info["table_rows"].items():
                self.telemetry.emit(
                    "shard.rows", shard=shard, table=table, rows=rows
                )
            self.telemetry.emit(
                "shard.queue_depth",
                shard=shard,
                depth=self._handles[shard].queue_depth,
            )
        skew: Dict[str, float] = {}
        rebalance: List[Dict] = []
        for table in sorted(self.spec.partitioned):
            counts = [
                stats[shard]["table_rows"].get(table, 0) for shard in stats
            ]
            mean = sum(counts) / len(counts) if counts else 0.0
            ratio = (max(counts) / mean) if mean else 1.0
            skew[table] = ratio
            self.telemetry.emit("shard.skew", table=table, skew=ratio)
            if ratio > REBALANCE_SKEW_THRESHOLD:
                hottest = max(stats, key=lambda s: stats[s]["table_rows"].get(table, 0))
                rebalance.append(
                    {
                        "table": table,
                        "skew": ratio,
                        "hottest_shard": hottest,
                        "suggestion": (
                            "routing values concentrate on shard "
                            f"{hottest}; consider range split points or "
                            "wider routing columns"
                        ),
                    }
                )
                self.telemetry.emit("shard.rebalance_hint", table=table)
        return {
            "shards": {
                shard: {**info, "queue_depth": self._handles[shard].queue_depth}
                for shard, info in stats.items()
            },
            "unavailable": down,
            "supervisor": self.supervisor.status(),
            "skew": skew,
            "rebalance": rebalance,
        }

    def check_consistency(self) -> None:
        """Three layers, in order: every shard's views equal its local
        recompute; replicated tables agree on every shard; each merged
        view, fetched and checked one at a time, equals a recompute over
        the merged database.  A settled read: run no change concurrently."""
        self._broadcast("check")
        merged_db = self.merged_database()
        replicated = [t for t in self.db.tables if not self.spec.is_partitioned(t)]
        replicas = self._dump({s: replicated for s in range(1, self.shards)})
        for shard, replica in sorted(replicas.items()):
            for table, rows in replica["tables"].items():
                differ = frozenset(rows) ^ frozenset(merged_db.table(table).rows)
                if differ:
                    raise MaintenanceError(f"replicated table {table!r} diverged "
                                           f"on shard {shard}: {len(differ)} row(s) differ")
        del replicas  # only shard 0's copies stay, in the merged database
        for name in sorted(self._definitions):
            merged = self.view_rows(name)
            expected = MaterializedView.materialize(self._definitions[name], merged_db).rows()
            # a multiset compare (rows carry SQL NULLs, so sorting would die
            # on None < int) of plain dicts: Counter's == loops in Python
            if dict(Counter(merged)) != dict(Counter(map(tuple, expected))):
                raise MaintenanceError(
                    f"sharded view {name!r} diverged from its recompute over the merged "
                    f"database: {len(merged)} merged row(s) vs {len(expected)} recomputed"
                )
            del merged, expected  # one view at a time: freed before the next is fetched

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        # stop supervision first so shutdown can't race a reincarnation
        self.supervisor.stop()
        try:
            super().close()
        except ReproError:
            pass  # a dead or dying shard must not wedge shutdown

