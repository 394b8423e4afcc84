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
witness/residue merge) live in :mod:`repro.runtime.sharding`.

Semantics and caveats
---------------------
* **Statement atomicity** — a statement touching several shards that
  fails on one is *compensated* on the shards where it succeeded
  (inverse change, ``check=False``) before the error is re-raised, so
  synchronous callers observe all-or-nothing per statement.  With
  :meth:`apply_async` the compensation happens at the :meth:`flush`
  barrier; between submission and flush a cross-shard statement may be
  transiently half-applied (invisible to :meth:`snapshot` readers taken
  at barriers, which is where the consistency contract lives).
* **Transactions** — :meth:`transaction` broadcasts a worker-local
  transaction to every shard and commits with a prepare round (deferred
  FK checks) before the commit round, so a deferrable violation on any
  shard rolls the whole transaction back everywhere.
* **Reads** — :meth:`query` and :meth:`snapshot` recombine per-shard
  fragments through :func:`~repro.runtime.sharding.merge_view_rows`.  A
  query whose equality filters pin every routing column of some
  partitioned table in the view is answered by that single owning shard.
* **``.db`` is a schema template.**  The parent never maintains base
  rows; read merged state via :meth:`table_rows`, :meth:`merged_views`
  or :meth:`merged_database`.
* **Cold-start recovery** needs a checkpoint lineage: workers are seeded
  with the constructor database's partitions, and :meth:`recover`
  restores each shard's newest checkpoint before replaying its WAL
  suffix.  (In-process restart — :meth:`crash_restart` — keeps each
  worker's current state and replays only unacknowledged entries,
  exactly like :meth:`Warehouse.recover`.)

``docs/SHARDING.md`` is the long-form contract and runbook.
"""

from __future__ import annotations

import itertools
import time
import uuid
from collections import Counter
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .core.maintain import MaintenanceOptions
from .core.secondary import DELETE, INSERT
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
from .obs import Telemetry
from .planner import wire
from .runtime import RetryPolicy
from .runtime.failpoints import FAILPOINTS
from .runtime.sharding import (
    ShardingSpec,
    ShardRouter,
    ViewShardPlan,
    merge_view_rows,
    plan_view,
)
from .runtime.shardproc import make_handle, raise_shard_error
from .runtime.supervisor import ShardSupervisor
from .runtime.txnlog import TxnDecisionLog
from .warehouse import Reports, Warehouse

__all__ = ["ShardedWarehouse", "ShardedSnapshot", "ShardedTransaction"]

#: skew (max/mean partition size) above which shard_stats() emits a
#: rebalance advisory for a partitioned table
REBALANCE_SKEW_THRESHOLD = 2.0


class ShardedChangeTicket:
    """Handle for one routed change; resolves at :meth:`wait` (which the
    flush barrier calls for every outstanding ticket, in order)."""

    def __init__(self, warehouse, table, operation, parts, replies):
        self._warehouse = warehouse
        self.table = table
        self.operation = operation
        self._parts = parts  # {shard: rows} as routed
        self._replies = replies  # {shard: _Reply}
        self._reports: Optional[Reports] = None
        self._error: Optional[ReproError] = None
        self._done = False

    def wait(self, timeout: Optional[float] = None) -> Reports:
        if not self._done:
            responses = {
                shard: self._warehouse._wait_for(shard, reply, timeout)
                for shard, reply in self._replies.items()
            }
            self._done = True
            failures = {
                s: resp for s, resp in responses.items() if not resp["ok"]
            }
            if failures:
                succeeded = {
                    s: self._parts[s] for s in responses if s not in failures
                }
                self._warehouse._compensate(
                    self.table,
                    self.operation,
                    succeeded,
                    unavailable=[
                        s
                        for s, resp in failures.items()
                        if resp.get("error") == "ShardUnavailableError"
                    ],
                )
                try:
                    raise_shard_error(failures[min(failures)])
                except ReproError as exc:
                    self._error = exc
            else:
                self._reports = self._warehouse._merge_report_blobs(
                    [responses[s]["reports"] for s in sorted(responses)]
                )
        if self._error is not None:
            raise self._error
        assert self._reports is not None
        return self._reports


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


class ShardedWarehouse(Warehouse):
    """N partitioned warehouses behind the :class:`Warehouse` facade.

    Parameters (beyond the base constructor's ``db``/``telemetry``):

    shards:
        Shard count.  ``Warehouse(db, shards=N)`` routes here.
    sharding:
        An explicit :class:`~repro.runtime.ShardingSpec`; overrides
        *shards*/*routing*/*ranges*.
    routing:
        ``{table: [bare routing columns]}`` — which tables to partition
        and on what.  Default: derived via
        :meth:`ShardingSpec.for_database` (largest un-referenced table,
        partitioned on its key).
    ranges:
        Optional range split points (see :class:`ShardingSpec`).
    shard_backend:
        ``"process"`` (default — spawn one worker process per shard) or
        ``"thread"`` (in-process workers that still pickle every
        message; deterministic, failpoint-reachable — what the fuzz
        oracle uses).
    wal_path / checkpoint_dir:
        *Root* directories; shard *i* uses ``<root>/shard-<i>``.
    workers / retry / segment_bytes / checkpoint_interval /
    snapshot_retain:
        Forwarded to every per-shard warehouse.
    call_deadline_seconds:
        Per-call reply deadline (default 30).  A reply that misses it
        raises :class:`~repro.errors.ShardUnavailableError` and tips
        the supervisor off to probe (and, if the worker is gone or
        stuck, reincarnate) the shard — no caller ever blocks forever
        on a dead worker.
    heartbeat_interval_seconds / probe_timeout_seconds /
    restart_budget / restart_window_seconds:
        :class:`~repro.runtime.supervisor.ShardSupervisor` knobs — see
        ``docs/SHARDING.md`` ("Partial failure runbook").  Heartbeating
        is off by default (death is still detected via pipe EOF and
        call deadlines); set an interval to also catch silent hangs
        between calls.
    """

    def __init__(
        self,
        db: Database,
        telemetry: Optional[Telemetry] = None,
        *,
        shards: Optional[int] = None,
        sharding: Optional[ShardingSpec] = None,
        routing: Optional[Dict[str, Sequence[str]]] = None,
        ranges: Optional[Sequence] = None,
        shard_backend: str = "process",
        start_method: str = "spawn",
        wal_path: Optional[str] = None,
        workers: int = 0,
        retry: Optional[RetryPolicy] = None,
        segment_bytes: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: Optional[int] = None,
        snapshot_retain: int = 8,
        call_deadline_seconds: float = 30.0,
        heartbeat_interval_seconds: Optional[float] = None,
        probe_timeout_seconds: float = 5.0,
        restart_budget: int = 5,
        restart_window_seconds: float = 60.0,
    ):
        # deliberately no super().__init__: the parent holds no tables,
        # no WAL and no scheduler — only routing state and worker pipes
        if sharding is not None:
            self.spec = sharding
            self.spec.validate(db)
        elif routing is not None:
            self.spec = ShardingSpec(shards or 1, routing, ranges=ranges)
            self.spec.validate(db)
        else:
            self.spec = ShardingSpec.for_database(
                db, shards or 1, ranges=ranges
            )
        if shards is not None and shards != self.spec.shards:
            raise ShardingError(
                f"shards={shards} disagrees with the sharding spec's "
                f"{self.spec.shards}"
            )
        self.db = db  # schema template; rows are NOT maintained here
        self.router = ShardRouter(self.spec, db)
        self.shards = self.spec.shards
        self.backend = shard_backend
        self.telemetry = telemetry or Telemetry.disabled()
        self._definitions: Dict[str, ViewDefinition] = {}
        self._plans: Dict[str, ViewShardPlan] = {}
        self._outputs: Dict[str, List[str]] = {}
        self._options: Dict[str, Optional[Dict]] = {}
        self._pending: List[ShardedChangeTicket] = []
        self._closed = False
        self.last_recovery: Optional[Dict] = None
        self._start_method = start_method
        self.call_deadline = call_deadline_seconds
        self._txn_counter = itertools.count(1)
        # coordinator 2PC decisions: durable next to the WAL lineage so
        # a coordinator restart resolves in-doubt transactions the same
        # way a live recover() does (volatile without a wal_path)
        self.txnlog = TxnDecisionLog(
            f"{wal_path}/txnlog" if wal_path else None
        )
        # inherited observability helpers iterate these; keep them empty
        self._maintainers = {}
        self._aggregates = {}
        self.wal = None
        self.obs_server = None

        schema = wire.encode_schema(db)
        replicated_rows = {
            name: wire.encode_rows(table.rows)
            for name, table in db.tables.items()
            if not self.spec.is_partitioned(name)
        }
        partitioned_rows: Dict[int, Dict[str, List]] = {}
        for name in self.spec.partitioned:
            split = self.router.split_rows(name, db.tables[name].rows)
            for shard, rows in split.items():
                partitioned_rows.setdefault(shard, {})[name] = (
                    wire.encode_rows(rows)
                )
        self._handles = []
        self._inits: List[Dict] = []  # retained for shard reincarnation
        try:
            for shard in range(self.shards):
                rows = dict(replicated_rows)
                rows.update(partitioned_rows.get(shard, {}))
                init = {
                    "schema": schema,
                    "rows": rows,
                    "workers": workers,
                    "snapshot_retain": snapshot_retain,
                }
                if wal_path:
                    init["wal_dir"] = f"{wal_path}/shard-{shard}"
                if checkpoint_dir:
                    init["checkpoint_dir"] = f"{checkpoint_dir}/shard-{shard}"
                    if checkpoint_interval:
                        init["checkpoint_interval"] = checkpoint_interval
                if segment_bytes:
                    init["segment_bytes"] = segment_bytes
                if retry is not None:
                    init["retry"] = asdict(retry)
                self._inits.append(init)
                self._handles.append(
                    make_handle(
                        shard_backend, shard, init, start_method=start_method
                    )
                )
        except Exception:
            # terminate (not close) the workers that did spawn: close()
            # waits out a graceful round-trip per shard, and the caller
            # holds no reference to clean up with after we re-raise
            for handle in self._handles:
                handle.terminate()
            raise
        self.supervisor = ShardSupervisor(
            self,
            heartbeat_interval=heartbeat_interval_seconds,
            probe_timeout=probe_timeout_seconds,
            restart_budget=restart_budget,
            restart_window=restart_window_seconds,
        )
        self.supervisor.attach()

    def _shard_init(self, shard: int) -> Dict:
        """The init blob a reincarnated worker for *shard* starts from:
        the retained construction blob (initial partition rows, runtime
        directories) plus every view created since."""
        init = dict(self._inits[shard])
        init["views"] = [
            {"view": wire.encode_view(self._definitions[name]),
             "options": self._options[name]}
            for name in self.view_names
        ]
        return init

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
            return {
                "ok": False,
                "error": "ShardUnavailableError",
                "message": f"shard {shard}: {exc}",
            }

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
        self, cmd: str, _tolerate_unavailable: bool = False, **payload
    ) -> Dict[int, Dict]:
        """Send *cmd* to every shard, wait for all, raise the first
        failure (after waiting: no shard is left mid-command).  With
        ``_tolerate_unavailable`` dead shards' error envelopes are
        returned instead of raised, so health endpoints keep answering
        while a shard is down."""
        replies = [
            (handle.shard_id, handle.submit(cmd, **payload))
            for handle in self._handles
        ]
        responses = {
            shard: self._wait_for(shard, reply) for shard, reply in replies
        }
        for shard in sorted(responses):
            response = responses[shard]
            if (
                _tolerate_unavailable
                and not response.get("ok")
                and response.get("error") == "ShardUnavailableError"
            ):
                continue
            raise_shard_error(response)
        return responses

    def _route(self, table: str, rows: List[Row]) -> Dict[int, List[Row]]:
        if not rows:
            return {}
        if self.spec.is_partitioned(table):
            return self.router.split_rows(table, rows)
        return {shard: rows for shard in range(self.shards)}

    def _merge_report_blobs(self, blob_maps: List[Dict]) -> Reports:
        """Recombine per-shard report dicts: row counts add, term lists
        union, the primary shortcut only counts if every shard took it."""
        merged: Dict[str, Dict] = {}
        for blob_map in blob_maps:
            for view, blob in blob_map.items():
                if view not in merged:
                    merged[view] = {
                        k: (dict(v) if isinstance(v, dict) else
                            list(v) if isinstance(v, list) else v)
                        for k, v in blob.items()
                    }
                    continue
                tgt = merged[view]
                tgt["base_rows"] += blob.get("base_rows", 0)
                tgt["primary_rows"] += blob.get("primary_rows", 0)
                for field in ("secondary_rows", "primary_term_rows"):
                    for key, count in (blob.get(field) or {}).items():
                        bucket = tgt.setdefault(field, {})
                        bucket[key] = bucket.get(key, 0) + count
                for field in ("direct_terms", "indirect_terms"):
                    for term in blob.get(field) or []:
                        if term not in tgt.setdefault(field, []):
                            tgt[field].append(term)
                tgt["primary_skipped"] = (
                    tgt.get("primary_skipped", False)
                    and blob.get("primary_skipped", False)
                )
                tgt["elapsed_seconds"] = max(
                    tgt.get("elapsed_seconds", 0.0),
                    blob.get("elapsed_seconds", 0.0),
                )
                for key, strategy in (
                    blob.get("secondary_strategy_used") or {}
                ).items():
                    tgt.setdefault("secondary_strategy_used", {}).setdefault(
                        key, strategy
                    )
        return {
            view: wire.decode_report(blob) for view, blob in merged.items()
        }

    def _compensate(
        self,
        table: str,
        operation: str,
        parts: Dict[int, List[Row]],
        unavailable: Iterable[int] = (),
    ) -> None:
        """Undo a statement on the shards where it succeeded (inverse
        change, unchecked) so a cross-shard failure is all-or-nothing."""
        inverse = DELETE if operation == INSERT else INSERT
        dead = set(unavailable)
        for shard, rows in sorted(parts.items()):
            if not rows:
                continue
            try:
                self._call(
                    "change",
                    shard,
                    table=table,
                    operation=inverse,
                    rows=wire.encode_rows(rows),
                    fk_allowed=True,
                    check=False,
                )
            except ShardUnavailableError:
                # best effort: a shard that dies before compensation
                # keeps the applied half in its WAL lineage — surfaced
                # as divergence by check_consistency, not hidden here
                dead.add(shard)
                continue
            self.telemetry.record_shard_compensation(table)
        if dead and not self.spec.is_partitioned(table):
            # A replicated statement half-landed on a shard that died:
            # its reincarnation may have copied the donor *before* the
            # inverse above — realign once the supervisor settles.
            # (Partitioned halves legitimately survive in the dead
            # shard's WAL lineage; check_consistency stays green.)
            self._realign_after_failure(dead)

    def _realign_after_failure(self, shards: Iterable[int]) -> None:
        supervisor = getattr(self, "supervisor", None)
        if supervisor is None or self._closed:
            return
        # bounded: a revive normally settles in milliseconds (thread
        # backend) to a few seconds (process backend); past that the
        # divergence is surfaced by check_consistency instead
        supervisor.wait_quiesced(5.0)
        for shard in sorted(set(shards)):
            try:
                supervisor.realign_replicated(shard)
            except ReproError:
                continue

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
        blob = wire.encode_view(definition)
        opt_blob = wire.encode_options(options)
        self._broadcast("create_view", view=blob, options=opt_blob)
        self._definitions[name] = definition
        self._plans[name] = plan
        self._outputs[name] = list(definition.output_columns(self.db))
        self._options[name] = opt_blob

    def create_aggregated_view(self, *args, **kwargs):
        raise ShardingError(
            "aggregated views are not supported in sharded mode yet; "
            "create them on a per-shard warehouse or unsharded"
        )

    def drop_view(self, name: str) -> None:
        raise ShardingError("drop_view is not supported in sharded mode")

    @property
    def view_names(self) -> List[str]:
        return sorted(self._definitions)

    def view(self, name: str):
        raise ShardingError(
            "a sharded warehouse has no single materialized view object; "
            "use query()/merged_views() to read merged contents"
        )

    def maintainer(self, name: str):
        raise ShardingError(
            "view maintainers live inside shard workers; use "
            "shard_stats() or query() from the parent"
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
    # changes
    # ------------------------------------------------------------------
    def _change(
        self,
        table: str,
        operation: str,
        rows: List[Row],
        fk_allowed: bool,
        check: bool = True,
    ) -> Reports:
        started = time.perf_counter()
        ticket = self._submit_change(table, operation, rows, fk_allowed, check)
        reports = ticket.wait()
        self.telemetry.record_phase("apply", time.perf_counter() - started)
        return reports

    def _submit_change(
        self,
        table: str,
        operation: str,
        rows: List[Row],
        fk_allowed: bool,
        check: bool = True,
    ) -> ShardedChangeTicket:
        self._require_open()
        parts = self._route(table, rows)
        replies = {}
        for shard in sorted(parts):
            replies[shard] = self._handles[shard].submit(
                "change",
                table=table,
                operation=operation,
                rows=wire.encode_rows(parts[shard]),
                fk_allowed=fk_allowed,
                check=check,
            )
            self.telemetry.record_shard_change(shard, table)
        return ShardedChangeTicket(self, table, operation, parts, replies)

    def insert(self, table: str, rows: Iterable[Row]) -> Reports:
        return self._change(
            table, INSERT, [tuple(r) for r in rows], fk_allowed=True
        )

    def delete(self, table: str, rows: Iterable[Row]) -> Reports:
        return self._change(
            table, DELETE, [tuple(r) for r in rows], fk_allowed=True
        )

    def delete_by_key(self, table: str, keys: Iterable[Row]) -> Reports:
        self._require_open()
        wanted = [tuple(k) for k in keys]
        if not wanted:
            return {}
        if self.spec.is_partitioned(table):
            parts = self.router.split_keys(table, wanted)
        else:
            parts = {shard: wanted for shard in range(self.shards)}
        # worker-side delete_by_key resolves keys to rows; route by key
        # (routing ⊆ key, so the owner is determined without the rows)
        responses = {}
        replies = {
            shard: self._handles[shard].submit(
                "change",
                table=table,
                operation="delete_by_key",
                rows=wire.encode_rows(parts[shard]),
            )
            for shard in sorted(parts)
        }
        failures = {}
        deleted: Dict[int, List[Row]] = {}
        for shard, reply in replies.items():
            resp = self._wait_for(shard, reply)
            if resp["ok"]:
                responses[shard] = resp
                deleted[shard] = wire.decode_rows(resp.get("deleted") or [])
            else:
                failures[shard] = resp
        if failures:
            self._compensate(
                table,
                DELETE,
                deleted,
                unavailable=[
                    s
                    for s, resp in failures.items()
                    if resp.get("error") == "ShardUnavailableError"
                ],
            )
            raise_shard_error(failures[min(failures)])
        return self._merge_report_blobs(
            [responses[s]["reports"] for s in sorted(responses)]
        )

    def update(
        self,
        table: str,
        old_rows: Iterable[Row],
        new_rows: Iterable[Row],
    ) -> List[Reports]:
        delete_reports = self._change(
            table, DELETE, [tuple(r) for r in old_rows],
            fk_allowed=False, check=False,
        )
        insert_reports = self._change(
            table, INSERT, [tuple(r) for r in new_rows],
            fk_allowed=False, check=False,
        )
        return [delete_reports, insert_reports]

    def apply_async(
        self,
        table: str,
        operation: str,
        rows: Iterable[Row],
        fk_allowed: bool = True,
    ) -> ShardedChangeTicket:
        if operation not in (INSERT, DELETE):
            raise MaintenanceError(
                f"unknown operation {operation!r} (expected "
                f"{INSERT!r} or {DELETE!r})"
            )
        ticket = self._submit_change(
            table, operation, [tuple(r) for r in rows], fk_allowed
        )
        self._pending.append(ticket)
        return ticket

    def flush(self) -> List:
        """The merge barrier: wait for every routed change on every
        shard, compensate and surface failures, then fsync each shard's
        WAL.  After flush, per-shard snapshots recombine consistently."""
        self._require_open()
        started = time.perf_counter()
        pending, self._pending = self._pending, []
        first_error: Optional[ReproError] = None
        for ticket in pending:
            try:
                ticket.wait()
            except ReproError as exc:
                if first_error is None:
                    first_error = exc
        self._broadcast("flush")
        self.telemetry.record_phase("flush", time.perf_counter() - started)
        if first_error is not None:
            raise first_error
        return []

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def transaction(self) -> "ShardedTransaction":
        self._require_open()
        return ShardedTransaction(self)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _plan_of(self, view: str) -> ViewShardPlan:
        try:
            return self._plans[view]
        except KeyError:
            raise CatalogError(f"no view named {view!r}") from None

    def _fastpath_shard(self, view: str, equalities: Dict) -> Optional[int]:
        """The single owning shard, when the equality filters pin every
        routing column of some partitioned table in *view* (non-null
        values only: residue rows cannot match such a filter)."""
        plan = self._plan_of(view)
        if plan.replicated_only:
            return None
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
        plan = self._plan_of(view)
        shard = self._fastpath_shard(view, equalities)
        if shard is not None:
            resp = self._call(
                "query",
                shard,
                view=view,
                equalities=dict(equalities),
                seq=None if seqs is None else seqs[shard],
            )
            rows = wire.decode_rows(resp["rows"])
            self.telemetry.record_shard_query(True)
        elif plan.replicated_only:
            resp = self._call(
                "query",
                0,
                view=view,
                equalities=dict(equalities),
                seq=None if seqs is None else seqs[0],
            )
            rows = wire.decode_rows(resp["rows"])
            self.telemetry.record_shard_query(True)
        else:
            replies = {
                handle.shard_id: handle.submit(
                    "query",
                    view=view,
                    equalities=dict(equalities),
                    seq=None if seqs is None else seqs[handle.shard_id],
                )
                for handle in self._handles
            }
            fragments = []
            for shard_id in sorted(replies):
                resp = raise_shard_error(
                    self._wait_for(shard_id, replies[shard_id])
                )
                fragments.append(wire.decode_rows(resp["rows"]))
            merge_started = time.perf_counter()
            rows = merge_view_rows(plan, fragments)
            self.telemetry.record_shard_merge(
                time.perf_counter() - merge_started
            )
            self.telemetry.record_shard_query(False)
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
        pins = {
            shard: response
            for shard, response in self._broadcast("snapshot_pin").items()
        }
        return ShardedSnapshot(self, pins)

    # ------------------------------------------------------------------
    # merged state (tests, oracle, consistency checks)
    # ------------------------------------------------------------------
    def _dump_all(self) -> Dict[int, Dict]:
        return self._broadcast("dump")

    def table_rows(self, table: str) -> List[Row]:
        """Merged rows of one base table across all shards."""
        self._require_open()
        if table not in self.db.tables:
            raise CatalogError(f"no table named {table!r}")
        if not self.spec.is_partitioned(table):
            resp = self._call("dump", 0)
            return wire.decode_rows(resp["tables"][table])
        rows: List[Row] = []
        for shard, resp in sorted(self._dump_all().items()):
            rows.extend(wire.decode_rows(resp["tables"][table]))
        return rows

    def merged_table_state(self) -> Dict[str, List[Row]]:
        """All base tables, merged (replicated tables from shard 0)."""
        dumps = self._dump_all()
        out: Dict[str, List[Row]] = {}
        for table in self.db.tables:
            if self.spec.is_partitioned(table):
                merged: List[Row] = []
                for shard in sorted(dumps):
                    merged.extend(
                        wire.decode_rows(dumps[shard]["tables"][table])
                    )
                out[table] = merged
            else:
                out[table] = wire.decode_rows(dumps[0]["tables"][table])
        return out

    def merged_views(self) -> Dict[str, List[Row]]:
        """Every view's merged global contents."""
        dumps = self._dump_all()
        started = time.perf_counter()
        out = {}
        for name in self.view_names:
            fragments = [
                wire.decode_rows(dumps[shard]["views"][name])
                for shard in sorted(dumps)
            ]
            out[name] = merge_view_rows(self._plans[name], fragments)
        self.telemetry.record_shard_merge(time.perf_counter() - started)
        return out

    def merged_database(self) -> Database:
        """A standalone database holding the merged base tables."""
        return wire.build_database(
            wire.encode_schema(self.db),
            {
                name: wire.encode_rows(rows)
                for name, rows in self.merged_table_state().items()
            },
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
        """Recover every shard (checkpoint restore + WAL suffix replay,
        shard by shard) and aggregate the per-shard summaries into
        :attr:`last_recovery` — ``degraded`` when any shard quarantined
        WAL segments or detected corruption.  In-doubt cross-shard
        transactions are resolved *first* from the coordinator decision
        log: a durable commit decision commits the open worker
        transaction everywhere; no decision means presumed abort."""
        self._require_open()
        resolved = self._resolve_indoubt()
        summaries = {
            shard: response["summary"]
            for shard, response in self._broadcast("recover").items()
        }
        self._aggregate_recovery(summaries, resolved=resolved)
        return []

    def _resolve_indoubt(self) -> List[Dict]:
        """Drive every shard's open transaction (if any) to the outcome
        the coordinator decision log recorded — commit when a durable
        commit decision exists, presumed abort otherwise — then forget
        the decisions.  Idempotent; shards with no open transaction
        answer ``resolved: None``."""
        records = self.txnlog.pending()
        commits = [r.txn_id for r in records if r.decision == "commit"]
        responses = self._broadcast("txn_resolve", commits=commits)
        resolved = []
        for shard in sorted(responses):
            outcome = responses[shard].get("resolved")
            if outcome is None:
                continue
            txn_id = responses[shard].get("txn_id")
            resolved.append(
                {"shard": shard, "txn_id": txn_id, "outcome": outcome}
            )
            self.telemetry.record_txn_resolved(txn_id, outcome)
        # only forget once every shard acknowledged its resolution: a
        # failure above leaves the decisions for the next recover()
        for record in records:
            self.txnlog.forget(record.txn_id)
        return resolved

    def _aggregate_recovery(
        self,
        summaries: Dict[int, Dict],
        resolved: Optional[List[Dict]] = None,
    ) -> None:
        shard_summaries = {s: summaries[s] or {} for s in summaries}
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
            "resolved_transactions": resolved or [],
            "degraded": bool(quarantined) or corruption,
        }
        self.telemetry.record_recovery(self.last_recovery)

    def repair_view(self, name: str) -> None:
        if name not in self._definitions:
            raise CatalogError(f"no view named {name!r}")
        self._broadcast("repair_view", view=name)

    # crash simulation (fuzz oracle hooks) ------------------------------
    def mark_durability_boundary(self) -> None:
        """Remember each shard's current state as what a simulated hard
        crash falls back to.  Call at a flush boundary."""
        self._broadcast("mark_boundary")

    def crash_hard(self) -> None:
        """Simulate a crash that loses unacknowledged work on every
        shard, then recover each from its WAL + checkpoints."""
        self._pending = []
        summaries = {
            shard: response["summary"]
            for shard, response in self._broadcast("crash_hard").items()
        }
        # a hard crash also takes the coordinator: open worker txns died
        # with their shards, so resolution is a no-op sweep that retires
        # stale decision records
        resolved = self._resolve_indoubt()
        self._aggregate_recovery(summaries, resolved=resolved)

    def crash_restart(self) -> None:
        """Orderly stop + reopen of every shard over its own WAL and
        checkpoint directories (the replay loop's ``crash`` op)."""
        self.flush()
        summaries = {
            shard: response["summary"]
            for shard, response in self._broadcast("restart").items()
        }
        resolved = self._resolve_indoubt()
        self._aggregate_recovery(summaries, resolved=resolved)

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def shard_stats(self) -> Dict:
        """Per-shard row counts, queue depths and skew, plus rebalance
        advisories for partitioned tables whose max/mean partition size
        exceeds :data:`REBALANCE_SKEW_THRESHOLD`.  Everything is also
        pushed through :class:`~repro.obs.Telemetry`.  Dead or
        quarantined shards are reported under ``unavailable`` instead
        of failing the whole call, and ``supervisor`` carries each
        shard's liveness state and restart history."""
        self._require_open()
        responses = self._broadcast("stats", _tolerate_unavailable=True)
        stats = {
            shard: response
            for shard, response in responses.items()
            if response.get("ok")
        }
        unavailable = {
            shard: response.get("message", "shard unavailable")
            for shard, response in responses.items()
            if not response.get("ok")
        }
        for shard, info in stats.items():
            self.telemetry.record_shard_rows(shard, info["table_rows"])
            self.telemetry.record_shard_queue_depth(
                shard, self._handles[shard].queue_depth
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
            self.telemetry.record_shard_skew(table, ratio)
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
                self.telemetry.record_shard_rebalance_hint(table)
        return {
            "shards": {
                shard: {
                    "table_rows": info["table_rows"],
                    "view_rows": info["view_rows"],
                    "quarantined": info["quarantined"],
                    "wal_pending": info["wal_pending"],
                    "queue_depth": self._handles[shard].queue_depth,
                }
                for shard, info in stats.items()
            },
            "unavailable": unavailable,
            "supervisor": self.supervisor.status(),
            "skew": skew,
            "rebalance": rebalance,
        }

    def check_consistency(self) -> None:
        """Three layers: every shard's views equal its local recompute;
        replicated tables are byte-identical on every shard; and every
        merged view equals a recompute over the merged database."""
        self._require_open()
        self._broadcast("check")
        dumps = self._dump_all()
        for table in self.db.tables:
            if self.spec.is_partitioned(table):
                continue
            reference = frozenset(
                wire.decode_rows(dumps[0]["tables"][table])
            )
            for shard in sorted(dumps):
                got = frozenset(wire.decode_rows(dumps[shard]["tables"][table]))
                if got != reference:
                    raise MaintenanceError(
                        f"replicated table {table!r} diverged on shard "
                        f"{shard}: {len(got ^ reference)} row(s) differ"
                    )
        merged_db = wire.build_database(
            wire.encode_schema(self.db),
            {
                name: (
                    [
                        row
                        for shard in sorted(dumps)
                        for row in dumps[shard]["tables"][name]
                    ]
                    if self.spec.is_partitioned(name)
                    else dumps[0]["tables"][name]
                )
                for name in self.db.tables
            },
        )
        for name, definition in sorted(self._definitions.items()):
            fragments = [
                wire.decode_rows(dumps[shard]["views"][name])
                for shard in sorted(dumps)
            ]
            merged = merge_view_rows(self._plans[name], fragments)
            expected = MaterializedView.materialize(
                definition, merged_db
            ).rows()
            # multiset compare: rows carry SQL NULLs, so sorting would
            # die on None < int
            if Counter(map(tuple, merged)) != Counter(map(tuple, expected)):
                raise MaintenanceError(
                    f"sharded view {name!r} diverged from its recompute "
                    f"over the merged database: {len(merged)} merged "
                    f"row(s) vs {len(expected)} recomputed"
                )

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        # stop supervision first so shutdown can't race a reincarnation
        supervisor = getattr(self, "supervisor", None)
        if supervisor is not None:
            supervisor.stop()
        try:
            self.flush()
        except ReproError:
            pass  # a dead or dying shard must not wedge shutdown
        finally:
            self._closed = True
            for handle in self._handles:
                handle.close()


class ShardedTransaction:
    """Cross-shard atomic batch: a worker-local transaction on every
    shard, committed with a prepare round (deferred FK checks) before
    the commit round — any shard's violation rolls all of them back.

    Commit is crash-safe two-phase: after every shard prepares, the
    coordinator writes a durable decision record
    (:class:`~repro.runtime.txnlog.TxnDecisionLog`) *before* the first
    commit message.  A coordinator crash anywhere in the window is then
    deterministic — :meth:`ShardedWarehouse.recover` commits in-doubt
    shards when a decision record exists and aborts them (presumed
    abort) when it does not, so the outcome is all-or-nothing across
    shards no matter where the crash landed."""

    def __init__(self, warehouse: ShardedWarehouse):
        self.warehouse = warehouse
        # counter for human-readable ordering; uuid suffix so ids never
        # collide across facade restarts sharing one decision-log dir
        self.txn_id = (
            f"t{next(warehouse._txn_counter)}-{uuid.uuid4().hex[:8]}"
        )
        self._active = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedTransaction":
        self.warehouse.flush()  # snapshots must bracket a settled state
        try:
            self.warehouse._broadcast("txn_begin", txn_id=self.txn_id)
        except ReproError:
            # a partial begin (e.g. one shard died mid-broadcast) must
            # not leak open transactions on the shards that did begin;
            # an empty-commits resolve is the idempotent abort
            self.warehouse._broadcast(
                "txn_resolve", _tolerate_unavailable=True, commits=[]
            )
            raise
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._rollback()
            return False
        try:
            self._commit()
        except Exception:
            self._rollback()
            raise
        return False

    # ------------------------------------------------------------------
    def _require_active(self) -> None:
        if not self._active:
            raise CatalogError("transaction is no longer active")

    def _statement(self, kind: str, table: str, rows: Iterable[Row]) -> None:
        self._require_active()
        wh = self.warehouse
        materialized = [tuple(r) for r in rows]
        parts = wh._route(table, materialized)
        replies = {
            shard: wh._handles[shard].submit(
                "txn_stmt",
                kind=kind,
                table=table,
                rows=wire.encode_rows(parts[shard]),
            )
            for shard in sorted(parts)
        }
        responses = {
            shard: wh._wait_for(shard, reply)
            for shard, reply in replies.items()
        }
        for shard in sorted(responses):
            # a failed statement leaves the transaction active; __exit__
            # (or the caller) rolls every shard back together
            raise_shard_error(responses[shard])

    def insert(self, table: str, rows: Iterable[Row]) -> None:
        self._statement("insert", table, rows)

    def delete(self, table: str, rows: Iterable[Row]) -> None:
        self._statement("delete", table, rows)

    # ------------------------------------------------------------------
    def _commit(self) -> None:
        self._require_active()
        wh = self.warehouse
        # phase 1: every shard validates its deferred FKs, nobody commits
        replies = [
            (h.shard_id, h.submit("txn_prepare")) for h in wh._handles
        ]
        responses = {
            shard: wh._wait_for(shard, reply) for shard, reply in replies
        }
        for shard in sorted(responses):
            raise_shard_error(responses[shard])  # -> __exit__ rolls back
        FAILPOINTS.hit("txn.coordinator.prepared", txn=self.txn_id)
        # the decision point: one durable record flips the transaction
        # from presumed-abort to must-commit.  Nothing may roll back
        # past this line — recover() replays the decision instead — so
        # _active drops *before* the next crash window opens.
        wh.txnlog.decide(self.txn_id, list(range(wh.shards)))
        self._active = False
        FAILPOINTS.hit("txn.coordinator.decided", txn=self.txn_id)
        # phase 2: commit shard by shard; each send has its own crash
        # window (txn.coordinator.commit) leaving a committed prefix
        # and in-doubt suffix for recover() to finish
        commit_replies = []
        for handle in wh._handles:
            FAILPOINTS.hit(
                "txn.coordinator.commit",
                txn=self.txn_id,
                shard=handle.shard_id,
            )
            commit_replies.append(
                (handle.shard_id, handle.submit("txn_commit"))
            )
        failure: Optional[Dict] = None
        for shard, reply in commit_replies:
            response = wh._wait_for(shard, reply)
            if not response.get("ok") and failure is None:
                failure = response
        if failure is not None:
            # keep the decision record: the unreached shards are in
            # doubt and the next recover()/reincarnation commits them
            raise_shard_error(failure)
        wh.txnlog.forget(self.txn_id)

    def _rollback(self) -> None:
        if not self._active:
            return
        self._active = False
        # resolve-with-no-commits instead of txn_rollback: it aborts an
        # open transaction but is a no-op on a shard that lost (or was
        # reincarnated without) its transaction, so rollback survives a
        # mid-transaction worker death
        self.warehouse._broadcast(
            "txn_resolve", _tolerate_unavailable=True, commits=[]
        )
