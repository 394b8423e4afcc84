"""Update batching with delta netting.

Warehouse load jobs frequently touch the same keys repeatedly — staging
rows that are inserted and later deleted, corrections that delete and
re-insert.  Maintaining views per statement pays for every intermediate
state; :class:`UpdateBatch` accumulates a table's inserts and deletes,
**nets them by key**, and runs one maintenance pass per table over the
net effect:

* insert then delete of the same key → nothing happens at all;
* delete then insert of the same key → an UPDATE pair (maintained with
  the paper's Section 6 caveat 1: foreign-key shortcuts disabled);
* delete then re-insert of the *identical* row → dropped entirely;
* everything else flows through unchanged.

:meth:`~repro.warehouse.Warehouse.batch` hands out batches whose
flush sends each netted pass through the warehouse's own change path
(WAL, scheduler, every registered view).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..engine.catalog import Database
from ..engine.table import Row
from ..errors import MaintenanceError
from .maintain import MaintenanceReport
from .secondary import DELETE, INSERT


@dataclass(frozen=True)
class NetDelta:
    """One netted per-table pass a flush would perform.

    ``operation`` is ``"delete"`` or ``"insert"``; ``fk_allowed`` is
    False when the table's net effect contains an UPDATE pair (delete +
    insert of the same key), which disables the foreign-key shortcuts
    per the paper's Section 6 caveat 1.  This is the unit the
    write-ahead log records: the *net* effect, not the raw statements.
    """

    table: str
    operation: str
    rows: Tuple[Row, ...]
    fk_allowed: bool = True

    def __len__(self) -> int:
        return len(self.rows)


class _Pending:
    __slots__ = ("deleted", "inserted")

    def __init__(self):
        self.deleted: Optional[Row] = None
        self.inserted: Optional[Row] = None


class UpdateBatch:
    """Accumulate updates, net them, flush as one pass per table."""

    def __init__(
        self, db: Database, apply: Callable[[NetDelta], List[MaintenanceReport]]
    ):
        self.db = db
        self._apply = apply  # one netted pass -> its maintenance reports
        self._pending: Dict[str, Dict[Row, _Pending]] = {}
        self._flushed = False

    # ------------------------------------------------------------------
    def _key(self, table: str, row: Row) -> Row:
        return self.db.table(table).key_of(tuple(row))

    def _slot(self, table: str, row: Row) -> _Pending:
        per_table = self._pending.setdefault(table, {})
        return per_table.setdefault(self._key(table, row), _Pending())

    def insert(self, table: str, rows: Iterable[Row]) -> "UpdateBatch":
        self._require_open()
        for row in rows:
            row = tuple(row)
            slot = self._slot(table, row)
            if slot.inserted is not None:
                raise MaintenanceError(
                    f"duplicate insert for key {self._key(table, row)!r} "
                    f"of {table!r} within the batch"
                )
            slot.inserted = row
        return self

    def delete(self, table: str, rows: Iterable[Row]) -> "UpdateBatch":
        self._require_open()
        for row in rows:
            row = tuple(row)
            slot = self._slot(table, row)
            if slot.inserted is not None:
                # deleting a row inserted earlier in this batch: both
                # sides vanish — the database never sees either.
                if slot.inserted != row:
                    raise MaintenanceError(
                        f"batch delete of {self._key(table, row)!r} does "
                        "not match the row inserted earlier in the batch"
                    )
                slot.inserted = None
            else:
                if slot.deleted is not None:
                    raise MaintenanceError(
                        "duplicate delete for key "
                        f"{self._key(table, row)!r} of {table!r}"
                    )
                slot.deleted = row
        return self

    def _require_open(self) -> None:
        if self._flushed:
            raise MaintenanceError("batch already flushed")

    # ------------------------------------------------------------------
    @property
    def net_counts(self) -> Dict[str, Tuple[int, int]]:
        """``{table: (net deletes, net inserts)}`` if flushed now."""
        out = {}
        for table, slots in self._pending.items():
            deletes, inserts, __ = self._net(slots)
            out[table] = (len(deletes), len(inserts))
        return out

    def net_deltas(self) -> List[NetDelta]:
        """The netted per-table passes a :meth:`flush` would perform, in
        flush order (per table: delete pass, then insert pass; empty
        passes — e.g. a delete fully cancelled by an identical re-insert
        — are omitted).  Public so callers such as the write-ahead log
        can record net effects without flushing."""
        out: List[NetDelta] = []
        for table, slots in self._pending.items():
            deletes, inserts, update_pair = self._net(slots)
            fk_allowed = not update_pair
            if deletes:
                out.append(
                    NetDelta(table, DELETE, tuple(deletes), fk_allowed)
                )
            if inserts:
                out.append(
                    NetDelta(table, INSERT, tuple(inserts), fk_allowed)
                )
        return out

    def __iter__(self) -> Iterator[NetDelta]:
        return iter(self.net_deltas())

    @staticmethod
    def _net(slots: Dict[Row, _Pending]):
        deletes: List[Row] = []
        inserts: List[Row] = []
        update_pair = False
        for slot in slots.values():
            if slot.deleted is not None and slot.deleted == slot.inserted:
                continue  # delete + identical re-insert: no net change
            if slot.deleted is not None:
                deletes.append(slot.deleted)
            if slot.inserted is not None:
                inserts.append(slot.inserted)
            if slot.deleted is not None and slot.inserted is not None:
                update_pair = True
        return deletes, inserts, update_pair

    def flush(self) -> Dict[str, List[MaintenanceReport]]:
        """Apply the net effect table by table; returns the maintenance
        reports per table (delete pass then insert pass, where present).
        """
        self._require_open()
        deltas = self.net_deltas()
        self._flushed = True
        reports: Dict[str, List[MaintenanceReport]] = {
            table: [] for table in self._pending
        }
        for net in deltas:
            reports[net.table].extend(self._apply(net))
        return reports
