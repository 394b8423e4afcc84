"""MVCC-style snapshot reads over the maintained warehouse state.

The maintenance pipeline keeps views correct under a continuous update
stream, but that alone does not make them *servable*: a query reading
``view._rows`` while a fan-out is mid-flight can observe half of a batch
(torn reads), and blocking reads behind the change queue would couple
read latency to maintenance latency.  This module decouples the two with
the classic MVCC move — a reader sees the live state as it stood at one
epoch, by undoing what was written since:

* At every **consistent point** — a completed change (dispatcher's
  completion hook), a transaction commit/rollback, view DDL, repair,
  recovery — the warehouse publishes an immutable :class:`Snapshot` of
  base tables + view contents, keyed by the applied LSN.
* :meth:`Warehouse.snapshot` hands out the latest published snapshot
  without taking any scheduler lock; :meth:`Warehouse.query` serves
  point lookups and predicate scans from it.  Readers therefore never
  block on maintenance and never observe a partially-applied batch —
  every read is consistent with *some* applied LSN.
* **Publishing copies nothing.**  The store hangs a chain of
  :class:`~repro.engine.table.UndoLog` epochs on every table and plain
  view it publishes.  The paths that edit a live container
  (``Database.insert/delete``, ``MaterializedView.insert_rows/
  delete_rows``) record each key's current value into the chain's head
  *before* the edit.  A publish seals the head by linking a fresh log
  and hands the snapshot the live container with that log.  A key probe
  reads the container first, then the logs oldest first: the first log
  naming the key holds its value at the epoch.  A scan copies the
  container once (one C-level call), then applies the logs newest
  first, so the oldest value wins.
* **Wholesale replacement** (``reset_to``: rebuild, repair, a rollback's
  rebuild of a view quarantined inside it; the table swap of a
  checkpoint restore) rebinds the container and drops its chain.  The
  snapshots over the old container keep reading it — nothing edits it
  again — and the next publish starts a new chain.
* **A held snapshot pins only the logs written after its epoch.**  Once
  those hold more entries than the live container has rows, the next
  publish freezes that one slice: it reads its epoch's rows once, keeps
  the copy, and lets the logs go.

Retention is bounded two ways: the store keeps at most :data:`RETAIN`
snapshots (a deque), and :meth:`Warehouse.checkpoint` prunes snapshots
older than the checkpoint LSN — the same boundary that compacts the WAL.
Snapshot objects already handed to readers stay alive (plain Python
references) and remain queryable after pruning; they are only *flagged*
invalid when :meth:`Warehouse.recover` discards unacknowledged history,
because a pre-crash snapshot may reflect changes that recovery rolled
back.

Staleness contract: a snapshot's non-quarantined views equal a full
recompute of their definitions over the snapshot's own base tables (the
``serving`` fuzz config asserts exactly this); views listed in
``stale_views`` were quarantined at publish time and reflect their last
healthy state.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..engine.catalog import Database
from ..engine.table import Row, Table, UndoLog
from ..errors import CatalogError

__all__ = ["Snapshot", "SnapshotStore", "ViewSlice", "TableSlice"]

#: How many published snapshots the store keeps.
RETAIN = 8

_ABSENT = object()


def _bare(qualified: str) -> str:
    """``customer.c_custkey`` -> ``c_custkey`` (checkpoint convention)."""
    return qualified.split(".", 1)[1] if "." in qualified else qualified


class _Tally:
    """How many reads went through at least one sealed log: served by a
    snapshot an epoch behind its container's head (fuzz coverage)."""

    __slots__ = ("lagged",)

    def __init__(self):
        self.lagged = 0


class _Slice:
    """One table's or view's contents at one epoch.  ``_state`` is
    ``(container, log)``: the live container and the first undo log
    written after the epoch — or, once frozen, the epoch's rows and
    ``None``.  A reader loads the pair once, so a freeze never tears its
    read.  Shared between snapshots — never mutate one."""

    __slots__ = ("name", "columns", "_len", "_state", "_tally", "__weakref__")

    def __init__(self, name: str, columns: Tuple[str, ...], container, log, tally: _Tally):
        self.name = name
        self.columns = columns
        self._len = len(container)
        self._state: Tuple[object, Optional[UndoLog]] = (container, log)
        self._tally = tally

    def __len__(self) -> int:
        return self._len

    def _undone(self, by_key: Dict, log: UndoLog) -> Dict:
        """*by_key*, a copy of the container taken before this call, with
        every key logged since set back to its value at this epoch.  Each
        log is read by one C-level ``update``, newest first, so the oldest
        value wins."""
        logs = []
        while log is not None:
            logs.append(log.old)
            log = log.next
        if len(logs) > 1:
            self._tally.lagged += 1
        undo: Dict = {}
        for old in reversed(logs):
            undo.update(old)
        for key, row in undo.items():
            if row is None:
                by_key.pop(key, None)
            else:
                by_key[key] = row
        return by_key

    def _freeze(self) -> None:
        """Keep this epoch's rows and let the logs go."""
        self._state = (self._scan(), None)


class ViewSlice(_Slice):
    """One view's contents at its snapshot's epoch, keyed by the view
    key: a key-equality query is a few hash probes (:meth:`get`),
    everything else scans :meth:`rows`."""

    __slots__ = ("key_cols",)

    def __init__(self, name, columns, key_cols: Tuple[str, ...], rows_by_key: Dict, log, tally):
        super().__init__(name, columns, rows_by_key, log, tally)
        self.key_cols = key_cols

    def get(self, key) -> Optional[Row]:
        """The row under *key*: the container first, then the first log
        since the epoch that names the key."""
        rows_by_key, log = self._state
        row = rows_by_key.get(key)
        if log is not None and log.next is not None:
            self._tally.lagged += 1
        while log is not None:
            old = log.old.get(key, _ABSENT)
            if old is not _ABSENT:
                return old
            log = log.next
        return row

    def _scan(self) -> Dict[Row, Row]:
        """``key -> row`` at this epoch (a frozen slice's own dict:
        callers only read it)."""
        rows_by_key, log = self._state
        return rows_by_key if log is None else self._undone(rows_by_key.copy(), log)

    def rows(self) -> List[Row]:
        return list(self._scan().values())


class TableSlice(_Slice):
    """One base table's rows at its snapshot's epoch.  Tables serve
    scans only (:attr:`rows`, ``len``): rows are keyed by the primary key
    only while a scan undoes logs."""

    __slots__ = ("key", "not_null", "_key_of")

    def __init__(self, name, columns, key, not_null, key_of: Callable, rows: List[Row], log, tally):
        super().__init__(name, columns, rows, log, tally)
        self.key = key
        self.not_null = not_null
        self._key_of = key_of

    def _scan(self) -> Tuple[Row, ...]:
        rows, log = self._state
        rows = tuple(rows)  # before the logs: an edit the copy holds was logged first
        if log is None or (log.next is None and not log.old):
            return rows
        # keyed, so a row a concurrent swap_remove held twice counts once
        return tuple(self._undone(dict(zip(map(self._key_of, rows), rows)), log).values())

    @property
    def rows(self) -> Tuple[Row, ...]:
        return self._scan()


class Snapshot:
    """An immutable, consistent epoch of the warehouse.

    ``lsn`` is the applied LSN the snapshot corresponds to: the WAL LSN
    of the last change it includes (WAL-backed warehouses) or the
    publish sequence number (undurable ones).  ``seq`` is the publish
    sequence, strictly monotonic either way.
    """

    __slots__ = (
        "lsn",
        "seq",
        "created_at",
        "views",
        "tables",
        "stale_views",
        "_valid",
        "_invalid_reason",
        "__weakref__",
    )

    def __init__(
        self,
        lsn: int,
        seq: int,
        created_at: float,
        views: Dict[str, ViewSlice],
        tables: Dict[str, TableSlice],
        stale_views: frozenset,
    ):
        self.lsn = lsn
        self.seq = seq
        self.created_at = created_at
        self.views = views
        self.tables = tables
        self.stale_views = stale_views
        self._valid = True
        self._invalid_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    @property
    def valid(self) -> bool:
        """False once recovery discarded the history this snapshot may
        include (it was published before a crash lost unacked changes)."""
        return self._valid

    @property
    def invalid_reason(self) -> Optional[str]:
        return self._invalid_reason

    def _invalidate(self, reason: str) -> None:
        self._valid = False
        self._invalid_reason = reason

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def view_names(self) -> List[str]:
        return sorted(self.views)

    def view_rows(self, view: str) -> List[Row]:
        return self._slice(view).rows()

    def table_rows(self, table: str) -> List[Row]:
        try:
            return list(self.tables[table].rows)
        except KeyError:
            raise CatalogError(f"snapshot has no base table {table!r}") from None

    def age_seconds(self, now: Optional[float] = None) -> float:
        return max(0.0, (time.time() if now is None else now) - self.created_at)

    def _slice(self, view: str) -> ViewSlice:
        try:
            return self.views[view]
        except KeyError:
            raise CatalogError(f"snapshot has no view {view!r}") from None

    def _positions(self, slice_: ViewSlice, names: Iterable[str]) -> List[int]:
        positions = []
        for name in names:
            if name in slice_.columns:
                positions.append(slice_.columns.index(name))
                continue
            # accept bare column names when unambiguous
            matches = [i for i, col in enumerate(slice_.columns) if _bare(col) == name]
            if len(matches) != 1:
                raise CatalogError(
                    f"view {slice_.name!r} has no column {name!r}"
                    + (" (ambiguous bare name)" if matches else "")
                )
            positions.append(matches[0])
        return positions

    def query(
        self,
        view: str,
        predicate: Optional[Callable[[Dict[str, object]], bool]] = None,
        limit: Optional[int] = None,
        **equalities,
    ) -> List[Row]:
        """Rows of *view* at this snapshot, optionally filtered.

        ``equalities`` are column=value filters (qualified names via
        ``**{"customer.c_custkey": 5}``, or bare names when unambiguous);
        an exact view-key match is answered by hash probes alone.
        *predicate* receives each candidate row as a column->value dict.
        """
        slice_ = self._slice(view)
        rows: Iterable[Row]
        if equalities:
            names = sorted(equalities)
            positions = self._positions(slice_, names)
            values = [equalities[n] for n in names]
            probed = {slice_.columns[p] for p in positions}
            if probed == set(slice_.key_cols) and predicate is None:
                by_col = dict(zip((slice_.columns[p] for p in positions), values))
                key = tuple(by_col[c] for c in slice_.key_cols)
                row = slice_.get(key)
                rows = [row] if row is not None else []
                return list(rows[:limit] if limit is not None else rows)
            rows = (
                row
                for row in slice_._scan().values()
                if all(row[p] == v for p, v in zip(positions, values))
            )
        else:
            rows = slice_._scan().values()
        if predicate is not None:
            columns = slice_.columns
            rows = (
                row for row in rows if predicate(dict(zip(columns, row)))
            )
        if limit is None:
            return list(rows)
        out: List[Row] = []
        for row in rows:
            if len(out) >= limit:
                break
            out.append(row)
        return out

    # ------------------------------------------------------------------
    # recompute support
    # ------------------------------------------------------------------
    def build_database(self) -> Database:
        """A fresh :class:`Database` holding this snapshot's base tables
        (no foreign keys — evaluation does not need them).  Used by the
        ``serving`` fuzz oracle to recompute every view definition at
        this snapshot's LSN and compare against the captured view rows.
        """
        db = Database()
        for name, slice_ in self.tables.items():
            db.create_table(
                name,
                [_bare(c) for c in slice_.columns],
                key=[_bare(c) for c in slice_.key],
                not_null=[_bare(c) for c in slice_.not_null],
            )
            rows = slice_.rows
            if rows:
                db.insert(name, rows, check=False)
        return db

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Snapshot(lsn={self.lsn}, seq={self.seq}, "
            f"views={len(self.views)}, valid={self._valid})"
        )


class _Tracked:
    """One live table's or plain view's chain: its head, the newest
    slice, the entries sealed so far, and the slices still reading it
    (oldest first, each with that count at its epoch, held weakly)."""

    __slots__ = ("head", "slice", "logged", "pinned")

    def __init__(self):
        self.head: Optional[UndoLog] = None
        self.slice: Optional[_Slice] = None
        self.logged = 0
        self.pinned: deque = deque()


class SnapshotStore:
    """Bounded ring of published snapshots over undo-logged containers.

    ``publish`` must only be called from consistent points (the caller
    guarantees no fan-out is mutating views concurrently — the warehouse
    publishes from the dispatcher's completion hook or after a drain).
    ``latest``/``at`` are safe from any thread and never block on
    maintenance: they take only the store's own lock, held for O(1).
    """

    def __init__(self):
        # _lock guards the published ring and is only ever held for
        # O(1) work; _publish_lock serializes publishers (and owns the
        # chain state)
        self._lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._snapshots: "deque[Snapshot]" = deque(maxlen=RETAIN)
        self._seq = 0
        # every snapshot ever published and still referenced somewhere,
        # so invalidate() can flag copies readers are already holding
        self._issued: "weakref.WeakSet[Snapshot]" = weakref.WeakSet()
        self._tables: Dict[str, _Tracked] = {}
        self._views: Dict[str, _Tracked] = {}
        # aggregated views keep no chain (their rows are derived per
        # publish): name -> (version, slice), reused while it stands
        self._aggregates: Dict[str, Tuple[int, ViewSlice]] = {}
        self._tally = _Tally()
        self.published_count = 0
        self.invalidated_count = 0
        #: slices frozen because the logs behind them outgrew their container
        self.freezes = 0

    @property
    def lagged_reads(self) -> int:
        """Reads served by a snapshot at least one epoch behind its
        container's head, through at least one sealed log."""
        return self._tally.lagged

    # ------------------------------------------------------------------
    # publishing (consistent points only)
    # ------------------------------------------------------------------
    def publish(
        self,
        tables: Dict[str, Table],
        views: Dict[str, object],
        aggregates: Dict[str, object],
        stale: Iterable[str] = (),
        lsn: Optional[int] = None,
    ) -> Snapshot:
        """Publish the current state as a new snapshot and retain it.

        *views* maps name -> :class:`~repro.core.view.MaterializedView`;
        *aggregates* maps name -> :class:`~repro.core.aggregate.AggregatedView`.
        *stale* names quarantined views: their previous slice is reused
        (a quarantined view reads as it was last published) and they are
        listed in ``Snapshot.stale_views``.
        *lsn* defaults to the publish sequence number.
        """
        stale = frozenset(stale)
        with self._publish_lock:
            view_slices: Dict[str, ViewSlice] = {}
            for name, view in views.items():
                tracked = self._views.get(name)
                if name in stale and tracked is not None and tracked.slice is not None:
                    view_slices[name] = tracked.slice
                else:
                    view_slices[name] = self._capture(
                        self._views, name, view, view._rows, self._view_slice
                    )
            for name, aggregated in aggregates.items():
                view_slices[name] = self._capture_aggregate(name, aggregated, stale)
            table_slices = {
                name: self._capture(self._tables, name, table, table.rows, self._table_slice)
                for name, table in tables.items()
            }
            # forget views/tables that no longer exist
            for kept, live in (
                (self._views, views),
                (self._aggregates, aggregates),
                (self._tables, tables),
            ):
                for gone in set(kept) - set(live):
                    del kept[gone]
            with self._lock:
                self._seq += 1
                seq = self._seq
                snapshot = Snapshot(
                    lsn=seq if lsn is None else lsn,
                    seq=seq,
                    created_at=time.time(),
                    views=view_slices,
                    tables=table_slices,
                    stale_views=stale & set(view_slices),
                )
                self._snapshots.append(snapshot)  # evicts the oldest
                self._issued.add(snapshot)
                self.published_count += 1
                return snapshot

    def _capture(self, kept: Dict[str, _Tracked], name: str, live, container, make) -> _Slice:
        """The slice of one live table or view for this publish: the
        previous one while nothing was logged, else a new one over the
        container from a freshly linked log.  O(1): nothing is copied."""
        tracked = kept.get(name)
        head = live.journal
        if tracked is None or head is None or head is not tracked.head:
            # a new container (rebinding drops the chain): a new chain
            tracked = kept[name] = _Tracked()
        elif tracked.slice is not None and not head.old:
            return tracked.slice
        log = UndoLog()
        if head is not None:  # seal it: older slices read on through it
            head.next = log
            tracked.logged += len(head.old)
        live.journal = tracked.head = log
        slice_ = tracked.slice = make(name, live, container, log)
        tracked.pinned.append((tracked.logged, weakref.ref(slice_)))
        self._bound(tracked, len(container))
        return slice_

    def _bound(self, tracked: _Tracked, size: int) -> None:
        """Freeze, oldest first, the slices whose logs hold more entries
        than the container has rows; forget the ones nobody holds."""
        pinned = tracked.pinned
        while pinned:
            logged, ref = pinned[0]
            slice_ = ref()
            if slice_ is not None:
                if tracked.logged - logged <= size:
                    return
                slice_._freeze()
                self.freezes += 1
            pinned.popleft()

    def _view_slice(self, name: str, view, rows_by_key: Dict, log: UndoLog) -> ViewSlice:
        columns, key_cols = tuple(view.schema.columns), tuple(view.key_cols)
        return ViewSlice(name, columns, key_cols, rows_by_key, log, self._tally)

    def _table_slice(self, name: str, table: Table, rows: List[Row], log: UndoLog) -> TableSlice:
        return TableSlice(
            name, tuple(table.schema.columns), tuple(table.key), tuple(sorted(table.not_null)),
            table.indexes[0].project,  # create_table registers the key index first
            rows, log, self._tally,
        )

    def _capture_aggregate(self, name: str, aggregated, stale: frozenset) -> ViewSlice:
        cached = self._aggregates.get(name)
        if cached is not None and (cached[0] == aggregated.version or name in stale):
            return cached[1]
        columns = tuple(aggregated.group_by) + tuple(
            f"agg.{a.alias}" for a in aggregated.aggregates
        )
        key_cols = tuple(aggregated.group_by)
        key_len = len(key_cols)
        rows_by_key = {row[:key_len]: row for row in aggregated.rows()}
        slice_ = ViewSlice(name, columns, key_cols, rows_by_key, None, self._tally)
        self._aggregates[name] = (aggregated.version, slice_)
        return slice_

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def latest(self) -> Optional[Snapshot]:
        """The newest published snapshot (never blocks on maintenance)."""
        with self._lock:
            return self._snapshots[-1] if self._snapshots else None

    def at(self, lsn: int) -> Optional[Snapshot]:
        """The newest retained snapshot with ``snapshot.lsn <= lsn``."""
        with self._lock:
            best: Optional[Snapshot] = None
            for snapshot in self._snapshots:
                if snapshot.lsn <= lsn:
                    best = snapshot
            return best

    @property
    def retained(self) -> int:
        with self._lock:
            return len(self._snapshots)

    @property
    def last_seq(self) -> int:
        """Publish sequence of the newest snapshot (0 before any)."""
        with self._lock:
            return self._seq

    def retained_snapshots(self) -> List[Snapshot]:
        with self._lock:
            return list(self._snapshots)

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------
    def prune(self, min_lsn: int) -> int:
        """Drop retained snapshots older than *min_lsn* (the checkpoint
        boundary), always keeping the newest.  Readers holding a pruned
        snapshot keep a perfectly valid object — pruning only bounds the
        store's own retention.  Returns the number dropped."""
        dropped = 0
        with self._lock:
            while (
                len(self._snapshots) > 1
                and self._snapshots[0].lsn < min_lsn
            ):
                self._snapshots.popleft()
                dropped += 1
        return dropped

    def invalidate(self, reason: str = "recovery") -> int:
        """Flag every issued snapshot invalid and clear the ring.

        Called by :meth:`Warehouse.recover`: snapshots published before
        a crash may include changes whose acknowledgements never became
        durable, so post-recovery they no longer correspond to any
        applied LSN.  The chains stay (the flagged snapshots a reader
        still holds keep their bound), but no pre-crash slice is reused.
        Returns the number of snapshots flagged."""
        with self._publish_lock:  # the chain state belongs to publishers
            with self._lock:
                flagged = 0
                for snapshot in list(self._issued):
                    if snapshot._valid:
                        snapshot._invalidate(reason)
                        flagged += 1
                self._snapshots.clear()
                for tracked in (*self._views.values(), *self._tables.values()):
                    tracked.slice = None  # nor pins its container
                self._aggregates.clear()
                self.invalidated_count += flagged
                return flagged
