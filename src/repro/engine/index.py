"""Persistent hash indexes on tables.

The paper's experiment ran with indexes on the base tables and views
("Both views had the same indexes").  Without them, every maintenance
pass would re-hash the full inner tables of the delta joins — paying a
cost proportional to the database instead of the delta.  A
:class:`HashIndex` is registered on a table once (usually on foreign-key
join columns), edited in place by every catalog write, and picked up
transparently by the join operator whenever its columns match the
equi-join's inner side.

Buckets store row *positions* (indexes into ``table.rows``), not row
tuples: the join operator needs positions to track matched rows on the
outer side, and storing them directly avoids ever materializing a
reverse row→position map over the whole table.

NULL semantics match the join's: rows with a NULL in any indexed column
are not indexed (a NULL key can never match an equi-join probe).
"""

from __future__ import annotations

from copy import copy
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from .table import Row, Table


def projector(positions: Sequence[int]) -> Callable[[Row], Row]:
    """A picklable callable projecting a row tuple onto *positions* as a
    tuple (a one-column ``itemgetter`` would return the bare value, so
    that case slices instead)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


class HashIndex:
    """An equality index mapping column values to row positions of one
    table.

    ``slots[p]`` is where position ``p`` sits inside its bucket (``-1``
    for a NULL-keyed row, which is not indexed), so dropping or
    re-pointing one position is O(1) whatever the bucket's size.
    """

    __slots__ = (
        "table", "columns", "positions", "project", "buckets", "slots", "size"
    )

    def __init__(self, table: Table, columns: Sequence[str]):
        self.table = table
        self.columns: Tuple[str, ...] = tuple(columns)
        if not self.columns:
            raise SchemaError("an index needs at least one column")
        self.positions: Tuple[int, ...] = table.schema.positions(self.columns)
        self.project = projector(self.positions)
        self.rebuild()

    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        self.buckets: Dict[Row, List[int]] = {}
        self.slots: List[int] = []
        self.size = 0  # indexed rows, i.e. slots that are not -1
        self.extend(self.table.rows, 0)

    def copy_for(self, table: Table) -> "HashIndex":
        """This index over *table*, a row-for-row copy of its own table:
        positions are valid verbatim, so nothing is re-hashed."""
        clone = copy(self)
        clone.table = table
        clone.buckets = {k: b[:] for k, b in self.buckets.items()}
        clone.slots = self.slots[:]
        return clone

    # ------------------------------------------------------------------
    # maintenance under DML
    # ------------------------------------------------------------------
    def extend(self, rows: Iterable[Row], start: int) -> None:
        """Register *rows*, already placed in the table from position
        *start* on."""
        project, buckets, slots = self.project, self.buckets, self.slots
        indexed = 0
        for position, row in enumerate(rows, start):
            key = project(row)
            if None in key:  # NULL keys never participate in equi matches
                slots.append(-1)
                continue
            bucket = buckets.setdefault(key, [])
            slots.append(len(bucket))
            bucket.append(position)
            indexed += 1
        self.size += indexed

    def swap_remove(
        self, position: int, row: Row, last: int, last_row: Row
    ) -> None:
        """*row* leaves *position* and *last_row*, the table's final
        row, moves from *last* into the hole (see ``Table.swap_remove``)."""
        buckets, slots = self.buckets, self.slots
        slot = slots[position]
        if slot >= 0:
            key = self.project(row)
            bucket = buckets[key]
            tail = bucket.pop()  # the bucket's own last entry fills the gap
            if tail != position:
                bucket[slot] = tail
                slots[tail] = slot
            elif not bucket:
                del buckets[key]
            self.size -= 1
        if position != last:
            slot = slots[position] = slots[last]
            if slot >= 0:
                buckets[self.project(last_row)][slot] = position
        slots.pop()

    # ------------------------------------------------------------------
    def lookup(self, key: Row) -> List[Row]:
        """Rows whose indexed columns equal *key* (positionally)."""
        rows = self.table.rows
        return [rows[p] for p in self.buckets.get(tuple(key), ())]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HashIndex({self.table.name!r}, {list(self.columns)!r}, "
            f"{len(self.buckets)} keys)"
        )


def find_index(
    table: Table, columns: Sequence[str]
) -> Optional[Tuple[HashIndex, Tuple[int, ...]]]:
    """An index of *table* covering exactly *columns* (any order).

    Returns ``(index, permutation)`` where ``permutation[i]`` is the
    position in *columns* of the index's i-th column — apply it to a
    probe tuple before calling :meth:`HashIndex.lookup`.
    """
    wanted = tuple(columns)
    for index in table.indexes:
        if index.columns == wanted:
            return index, tuple(range(len(wanted)))
        if set(index.columns) == set(wanted) and len(index.columns) == len(
            wanted
        ):
            permutation = tuple(wanted.index(c) for c in index.columns)
            return index, permutation
    return None
