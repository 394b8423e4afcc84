"""Persistent hash indexes on tables.

The paper's experiment ran with indexes on the base tables and views
("Both views had the same indexes").  Without them, every maintenance
pass would re-hash the full inner tables of the delta joins — paying a
cost proportional to the database instead of the delta.  An index is
registered on a table once, edited in place by every catalog write, and
probed by the join operator whenever its columns match the equi-join's
inner side.

Buckets store row *positions* (indexes into ``table.rows``), which the
join operator needs to track matched rows.  Two layouts:

* :class:`KeyIndex`, which ``create_table`` registers on the table's
  unique key: a key is held once, so ``buckets[key]`` is the position.
* :class:`HashIndex`, any other columns: ``buckets[key]`` is a list of
  positions, and ``slots`` makes each edit O(1) whatever its size.

No index refers to its table — callers pass the rows — so
``Table.indexes`` is acyclic and a dropped table is freed by reference
counting.  As in the join, a row with a NULL in an indexed column is in
no :class:`HashIndex` bucket; key columns are NOT NULL.
"""

from __future__ import annotations

from collections import Counter
from copy import copy
from itertools import count
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConstraintError, SchemaError
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

    __slots__ = ("columns", "positions", "project", "buckets", "slots", "size")

    def __init__(self, table: Table, columns: Sequence[str]):
        self.columns: Tuple[str, ...] = tuple(columns)
        if not self.columns:
            raise SchemaError("an index needs at least one column")
        self.positions: Tuple[int, ...] = table.schema.positions(self.columns)
        self.project = projector(self.positions)
        self.rebuild(table.rows)

    # ------------------------------------------------------------------
    def rebuild(self, rows: List[Row]) -> None:
        self.buckets: Dict[Row, List[int]] = {}
        self.slots: List[int] = []
        self.size = 0  # indexed rows, i.e. slots that are not -1
        self.extend(rows, 0)

    def copy(self) -> "HashIndex":
        """This index over a row-for-row copy of its table: positions are
        valid verbatim, so nothing is re-hashed."""
        clone = copy(self)
        clone.buckets = {k: b[:] for k, b in self.buckets.items()}
        clone.slots = self.slots[:]
        return clone

    def extend(self, rows: List[Row], start: int) -> None:
        """Register *rows*, placed in the table from position *start* on."""
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

    def swap_remove(self, position: int, row: Row, last: int, last_row: Row) -> None:
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
    def lookup(self, rows: List[Row], key: Row) -> List[Row]:
        """The rows among *rows* (the table's) whose indexed columns equal
        *key* (positionally)."""
        return [rows[p] for p in self.buckets.get(tuple(key), ())]

    def __len__(self) -> int:
        return self.size


class KeyIndex(HashIndex):
    """The index of a table's unique key: ``buckets[key]`` is the one
    position holding *key*.  A write that would hold a key twice raises
    :class:`~repro.errors.ConstraintError` before anything changes."""

    __slots__ = ()

    def rebuild(self, rows: List[Row]) -> None:
        self.buckets: Dict[Row, int] = {}
        self.extend(rows, 0)

    def copy(self) -> "KeyIndex":
        clone = copy(self)
        clone.buckets = self.buckets.copy()
        return clone

    def extend(self, rows: List[Row], start: int) -> None:
        buckets = self.buckets
        placed = dict(zip(map(self.project, rows), count(start)))
        if len(placed) != len(rows) or not buckets.keys().isdisjoint(placed):
            counts = Counter(map(self.project, rows))
            key = next(k for k in counts if k in buckets or counts[k] > 1)
            raise ConstraintError(f"duplicate key {key!r} of {self.columns}")
        buckets.update(placed)

    def swap_remove(self, position: int, row: Row, last: int, last_row: Row) -> None:
        buckets = self.buckets
        del buckets[self.project(row)]
        if position != last:
            buckets[self.project(last_row)] = position

    def lookup(self, rows: List[Row], key: Row) -> List[Row]:
        position = self.buckets.get(tuple(key))
        return [] if position is None else [rows[position]]

    def __len__(self) -> int:
        return len(self.buckets)


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
        if sorted(index.columns) == sorted(wanted):
            return index, tuple(map(wanted.index, index.columns))
    return None
