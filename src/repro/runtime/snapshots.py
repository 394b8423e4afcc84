"""MVCC-style snapshot reads over the maintained warehouse state.

The maintenance pipeline keeps views correct under a continuous update
stream, but that alone does not make them *servable*: a query reading
``view._rows`` while a fan-out is mid-flight can observe half of a batch
(torn reads), and blocking reads behind the change queue would couple
read latency to maintenance latency.  This module decouples the two with
the classic MVCC move — readers never touch live state at all:

* At every **consistent point** — a completed change (dispatcher's
  completion hook), a transaction commit/rollback, view DDL, repair,
  recovery — the warehouse publishes an immutable :class:`Snapshot` of
  base tables + view contents, keyed by the applied LSN.
* :meth:`Warehouse.snapshot` hands out the latest published snapshot
  without taking any scheduler lock; :meth:`Warehouse.query` serves
  point lookups and predicate scans from it.  Readers therefore never
  block on maintenance and never observe a partially-applied batch —
  every read is consistent with *some* applied LSN.
* Capture costs the **delta**, not the database.  The store subscribes a
  :class:`~repro.engine.table.ChangeJournal` to every table and plain
  view it publishes; the paths that edit a live container
  (``Database.insert/delete``, ``MaterializedView.insert_rows/
  delete_rows``) record their ±rows there, and a publish turns the
  journal into one more *overlay* (``key -> row | gone``) on top of the
  previous slice.  A slice is an immutable base dict plus a short chain
  of such overlays, so retained snapshots share everything but their
  deltas.  Only a *broken* journal — first capture, wholesale
  replacement (``reset_to``: rebuild, checkpoint restore, a rollback's
  rebuild of a view quarantined inside it), a failed publish — costs a
  full copy.

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

import copy
import threading
import time
import weakref
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..engine.catalog import Database
from ..engine.table import ChangeJournal, Row, Table
from ..errors import CatalogError

__all__ = ["Snapshot", "SnapshotStore", "ViewSlice", "TableSlice"]

#: One overlay: key -> the row stored under it, or None once it is gone.
Overlay = Dict[object, Optional[Row]]

#: A slice's overlays are folded into a fresh base dict once together
#: they hold more than one entry per this many base entries.  Below that
#: a fold would copy more than it saves; above it probes and scans pay
#: for a chain that describes a large part of the data.
_FOLD_DIVISOR = 4

#: How many published snapshots the store keeps.
RETAIN = 8

_ABSENT = object()


def _bare(qualified: str) -> str:
    """``customer.c_custkey`` -> ``c_custkey`` (checkpoint convention)."""
    return qualified.split(".", 1)[1] if "." in qualified else qualified


def _push(overlays: Tuple[Overlay, ...], top: Overlay) -> Tuple[Overlay, ...]:
    """*overlays* (oldest first) with *top* stacked on as the newest.

    Neighbours merge (into a new dict — published ones are never edited)
    until each overlay is at least twice the size of the one above it, so
    the chain stays logarithmic in its total size and a publish copies
    O(|top|) entries amortised."""
    chain = list(overlays)
    while chain and len(chain[-1]) < 2 * len(top):
        top = {**chain.pop(), **top}
    chain.append(top)
    return tuple(chain)


class _Slice:
    """Frozen contents of one table or view: ``base`` plus ``overlays``
    (oldest first).  Shared between snapshots — never mutate one."""

    __slots__ = ("name", "columns", "version", "_base", "_overlays", "_len")

    def __init__(self, name: str, columns: Tuple[str, ...], base: Dict, version: int):
        self.name = name
        self.columns = columns
        self.version = version
        self._base = base
        self._overlays: Tuple[Overlay, ...] = ()
        self._len = len(base)

    def __len__(self) -> int:
        return self._len

    def get(self, key) -> Optional[Row]:
        """The row stored under *key*, newest overlay first."""
        for overlay in reversed(self._overlays):
            row = overlay.get(key, _ABSENT)
            if row is not _ABSENT:
                return row
        return self._base.get(key)

    def _merged(self) -> Dict:
        """``key -> row`` with every overlay applied.  This is the base
        dict itself when there is no overlay, so callers only read it."""
        if not self._overlays:
            return self._base
        merged = dict(self._base)
        for overlay in self._overlays:
            for key, row in overlay.items():
                if row is None:
                    merged.pop(key, None)
                else:
                    merged[key] = row
        return merged

    def _successor(self, changes: Overlay, length: int, version: int):
        """The slice one publish later; returns ``(slice, folded)``."""
        twin = copy.copy(self)
        twin.version = version
        twin._overlays = _push(self._overlays, changes)
        twin._len = length
        folded = _FOLD_DIVISOR * sum(map(len, twin._overlays)) > len(self._base)
        if folded:
            twin._base = twin._merged()
            twin._overlays = ()
        return twin, folded


class ViewSlice(_Slice):
    """One view's frozen contents inside a snapshot, keyed by the view
    key: a key-equality query is a few hash probes (:meth:`get`),
    everything else scans :meth:`rows`."""

    __slots__ = ("key_cols",)

    def __init__(
        self,
        name: str,
        columns: Tuple[str, ...],
        key_cols: Tuple[str, ...],
        rows_by_key: Dict[Row, Row],
        version: int,
    ):
        super().__init__(name, columns, rows_by_key, version)
        self.key_cols = key_cols

    def rows(self) -> List[Row]:
        return list(self._merged().values())


class TableSlice(_Slice):
    """One base table's frozen contents inside a snapshot, keyed by the
    primary key."""

    __slots__ = ("key", "not_null")

    def __init__(
        self,
        name: str,
        columns: Tuple[str, ...],
        key: Tuple[str, ...],
        not_null: Tuple[str, ...],
        rows_by_key: Dict[object, Row],
        version: int,
    ):
        super().__init__(name, columns, rows_by_key, version)
        self.key = key
        self.not_null = not_null

    @property
    def rows(self) -> Tuple[Row, ...]:
        return tuple(self._merged().values())


class Snapshot:
    """An immutable, consistent epoch of the warehouse.

    ``lsn`` is the applied LSN the snapshot corresponds to: the WAL LSN
    of the last change it includes (WAL-backed warehouses) or the
    publish sequence number (undurable ones).  ``seq`` is the publish
    sequence, strictly monotonic either way.  ``captured_rows`` and
    ``full_captures`` say what publishing it copied.
    """

    __slots__ = (
        "lsn",
        "seq",
        "created_at",
        "views",
        "tables",
        "stale_views",
        "captured_rows",
        "full_captures",
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
        captured_rows: int = 0,
        full_captures: int = 0,
    ):
        self.lsn = lsn
        self.seq = seq
        self.created_at = created_at
        self.views = views
        self.tables = tables
        self.stale_views = stale_views
        self.captured_rows = captured_rows
        self.full_captures = full_captures
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
                for row in slice_._merged().values()
                if all(row[p] == v for p, v in zip(positions, values))
            )
        else:
            rows = slice_._merged().values()
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
    """What the store keeps about one live table or plain view between
    publishes: the journal it subscribed and its newest slice."""

    __slots__ = ("journal", "slice")

    def __init__(self, journal: ChangeJournal):
        self.journal = journal
        self.slice: Optional[_Slice] = None


class SnapshotStore:
    """Bounded ring of published snapshots with journal-driven capture.

    ``publish`` must only be called from consistent points (the caller
    guarantees no fan-out is mutating views concurrently — the warehouse
    publishes from the dispatcher's completion hook or after a drain).
    ``latest``/``at`` are safe from any thread and never block on
    maintenance: they take only the store's own lock, held for O(1).
    """

    def __init__(self):
        # _lock guards the published ring and is only ever held for
        # O(1) work, so readers never wait on a capture in progress;
        # _publish_lock serializes publishers (and owns the capture state)
        self._lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._snapshots: "deque[Snapshot]" = deque(maxlen=RETAIN)
        self._seq = 0
        # every snapshot ever published and still referenced somewhere,
        # so invalidate() can flag copies readers are already holding
        self._issued: "weakref.WeakSet[Snapshot]" = weakref.WeakSet()
        self._tables: Dict[str, _Tracked] = {}
        self._views: Dict[str, _Tracked] = {}
        # aggregated views keep no journal (their rows are derived per
        # publish): name -> slice, reused while the version stands
        self._aggregates: Dict[str, ViewSlice] = {}
        self.published_count = 0
        self.invalidated_count = 0
        self.captured_rows = 0
        self.full_captures = 0
        self.overlay_folds = 0

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
        """Capture the current state as a new snapshot and retain it.

        *views* maps name -> :class:`~repro.core.view.MaterializedView`;
        *aggregates* maps name -> :class:`~repro.core.aggregate.AggregatedView`.
        *stale* names quarantined views: their previous capture is
        reused (a quarantined view reads as it was last published) and
        they are listed in ``Snapshot.stale_views``.
        *lsn* defaults to the publish sequence number.
        """
        stale = frozenset(stale)
        with self._publish_lock:
            captured, full = self.captured_rows, self.full_captures
            # capture happens OUTSIDE the ring lock: a reader calling
            # latest() mid-capture must not wait out the copies
            try:
                view_slices: Dict[str, ViewSlice] = {}
                for name, view in views.items():
                    tracked = self._views.get(name)
                    if name in stale and tracked and tracked.slice:
                        view_slices[name] = tracked.slice
                    else:
                        view_slices[name] = self._capture(self._views, name, view)
                for name, aggregated in aggregates.items():
                    view_slices[name] = self._capture_aggregate(
                        name, aggregated, stale
                    )
                table_slices = {
                    name: self._capture(self._tables, name, table)
                    for name, table in tables.items()
                }
            except BaseException:
                # some journal may have been taken and not applied
                for tracked in (*self._views.values(), *self._tables.values()):
                    tracked.journal.broken = True
                raise
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
                    captured_rows=self.captured_rows - captured,
                    full_captures=self.full_captures - full,
                )
                self._snapshots.append(snapshot)  # evicts the oldest
                self._issued.add(snapshot)
                self.published_count += 1
                return snapshot

    def _capture(self, kept: Dict[str, _Tracked], name: str, live) -> _Slice:
        """The slice of one live table or view for this publish: the
        previous one when nothing was journaled, one more overlay when
        something was, a full copy when the journal is broken."""
        tracked = kept.get(name)
        journal = live.journal
        if tracked is None or journal is None or tracked.journal is not journal:
            # first sight of this object (or another store took it over)
            journal = live.journal = ChangeJournal()
            tracked = kept[name] = _Tracked(journal)
        previous = tracked.slice
        if not journal.broken and journal.changes:
            slice_ = self._advance(tracked, journal.take(), live.version)
            if len(slice_) == len(live):
                tracked.slice = slice_
                return slice_
            # an edit bypassed the journal: only a full copy is safe
        elif previous is not None and previous.version == live.version:
            return previous
        return self._capture_full(tracked, name, live)

    def _advance(self, tracked: _Tracked, changes: Overlay, version: int) -> _Slice:
        """Stack *changes* on the tracked slice.  Its length gains the rows
        *changes* holds and loses the changed keys it held; each layer,
        newest first, settles the keys no newer one named, by set ops."""
        previous = tracked.slice
        unsettled, held = changes.keys(), 0
        for overlay in reversed(previous._overlays):
            named = unsettled & overlay.keys()
            if named:
                held += len(named) - [overlay[key] for key in named].count(None)
                unsettled = unsettled - named
        held += len(unsettled & previous._base.keys())
        length = len(previous) + len(changes) - list(changes.values()).count(None) - held
        slice_, folded = previous._successor(changes, length, version)
        self.captured_rows += len(changes)
        if folded:
            self.overlay_folds += 1
            self.captured_rows += len(slice_)
        return slice_

    def _capture_full(self, tracked: _Tracked, name: str, live) -> _Slice:
        """Copy *live* whole — the base case: a first capture, or a
        journal that no longer accounts for every edit."""
        journal = tracked.journal
        journal.take()
        full = self._full_table if isinstance(live, Table) else self._full_view
        tracked.slice = slice_ = full(name, live)
        journal.broken = False
        self.full_captures += 1
        self.captured_rows += len(slice_)
        return slice_

    @staticmethod
    def _full_view(name: str, view) -> ViewSlice:
        return ViewSlice(
            name,
            tuple(view.schema.columns),
            tuple(view.key_cols),
            dict(view._rows),
            view.version,
        )

    @staticmethod
    def _full_table(name: str, table: Table) -> TableSlice:
        """The table keyed by its primary key (a database's tables all
        have one, held exactly once by its key index)."""
        rows = table.rows
        return TableSlice(
            name,
            tuple(table.schema.columns),
            tuple(table.key),
            tuple(sorted(table.not_null)),
            dict(zip(map(table.indexes[0].project, rows), rows)),
            table.version,
        )

    def _capture_aggregate(
        self, name: str, aggregated, stale: frozenset
    ) -> ViewSlice:
        cached = self._aggregates.get(name)
        if cached is not None and (
            cached.version == aggregated.version or name in stale
        ):
            return cached
        columns = tuple(aggregated.group_by) + tuple(
            f"agg.{a.alias}" for a in aggregated.aggregates
        )
        key_cols = tuple(aggregated.group_by)
        key_len = len(key_cols)
        rows_by_key = {row[:key_len]: row for row in aggregated.rows()}
        slice_ = self._aggregates[name] = ViewSlice(
            name, columns, key_cols, rows_by_key, aggregated.version
        )
        self.captured_rows += len(slice_)
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
        """Flag every issued snapshot invalid and clear the store.

        Called by :meth:`Warehouse.recover`: snapshots published before
        a crash may include changes whose acknowledgements never became
        durable, so post-recovery they no longer correspond to any
        applied LSN.  Returns the number of snapshots flagged."""
        with self._publish_lock:  # the capture state belongs to publishers
            with self._lock:
                flagged = 0
                for snapshot in list(self._issued):
                    if snapshot._valid:
                        snapshot._invalidate(reason)
                        flagged += 1
                self._snapshots.clear()
                self._views.clear()
                self._tables.clear()
                self._aggregates.clear()
                self.invalidated_count += flagged
                return flagged
