"""Tables: named row sets with schemas, unique keys and NOT NULL columns.

A :class:`Table` is the engine's only data container.  It is used both for
base tables registered in a :class:`~repro.engine.catalog.Database` and for
anonymous intermediate results produced by the physical operators; in the
latter case ``name`` is a synthetic label and ``key`` may be ``None``.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConstraintError, SchemaError
from .schema import Schema

Row = Tuple[object, ...]

#: Global monotonic mutation clock shared by tables and materialized
#: views.  Every mutation (and every fresh container) draws the next
#: tick, so a ``version`` value is never reused — a copy that carries
#: its source's version (the snapshot store's rows of an aggregated
#: view) is current exactly while the two agree, even across object
#: replacement.  ``next()`` on a C-level iterator is atomic under the
#: GIL, which is all the hot path needs.
_MUTATION_CLOCK = count(1)


def next_version() -> int:
    """The next tick of the global mutation clock."""
    return next(_MUTATION_CLOCK)


class UndoLog:
    """One epoch of a table's or view's history, kept for the snapshots
    published before it.

    A snapshot store (:mod:`repro.runtime.snapshots`) sets a container's
    ``journal`` to the head of a chain of these; a container nobody
    subscribed to has ``journal = None`` and records nothing.  Before each
    live edit the container passes :meth:`record` the keys it is about
    to change with their current values (``None`` for a key about to be
    inserted).  The first value recorded for a key wins, so ``old`` maps
    every key the epoch touched to its value at the epoch's start.  A
    publish seals the head by linking a fresh log as its ``next``.
    """

    __slots__ = ("old", "next")

    def __init__(self):
        self.old: Dict[Row, Optional[Row]] = {}
        self.next: Optional["UndoLog"] = None

    def record(self, before: Dict[Row, Optional[Row]]) -> None:
        """Note *before* (key -> current value) ahead of the edit."""
        old = self.old
        if old.keys().isdisjoint(before):
            old.update(before)
        else:
            for key, value in before.items():
                old.setdefault(key, value)


class Table:
    """A named collection of rows over a fixed schema.

    Parameters
    ----------
    name:
        Table name; for base tables this is the qualifier of every column.
    schema:
        The table's :class:`Schema` (qualified column names).
    rows:
        Initial rows (tuples aligned with *schema*).
    key:
        Optional unique key: a tuple of column names.  Base tables in the
        paper's setting always have one; intermediate results may not.
    not_null:
        Columns guaranteed to never hold ``None``.  Key columns are
        implicitly NOT NULL, matching the paper's "unique key that does not
        contain nulls" restriction.
    """

    __slots__ = (
        "name", "schema", "rows", "key", "not_null", "indexes", "version",
        "journal",
    )

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Optional[Iterable[Row]] = None,
        key: Optional[Sequence[str]] = None,
        not_null: Iterable[str] = (),
    ):
        self.name = name
        self.schema = schema
        self.rows: List[Row] = list(rows) if rows is not None else []
        if key is not None:
            key = tuple(key)
            for col in key:
                schema.index_of(col)
        self.key: Optional[Tuple[str, ...]] = key
        # NOT NULL is not implied by `key` here: base tables get their key
        # columns marked NOT NULL by the catalog, but join *results* carry
        # concatenated keys that legitimately contain NULLs on the
        # null-extended side.
        nn = set(not_null)
        for col in nn:
            schema.index_of(col)
        self.not_null: frozenset = frozenset(nn)
        # Persistent hash indexes (engine.index), maintained by the
        # catalog's DML and consulted by the join operator; a base table's
        # first is its KeyIndex.
        self.indexes: list = []
        # Mutation-clock tick, advanced by the catalog's DML.
        self.version: int = next_version()
        # The head of a snapshot store's undo chain, if one subscribed:
        # Database.insert/delete record into it before editing ``rows``.
        self.journal: Optional[UndoLog] = None

    def bump_version(self) -> None:
        """Advance the mutation clock after an in-place row change."""
        self.version = next_version()

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, {len(self.rows)} rows)"

    # ------------------------------------------------------------------
    # row accessors
    # ------------------------------------------------------------------
    def key_positions(self) -> Tuple[int, ...]:
        """Positions of the key columns; raises if the table has no key."""
        if self.key is None:
            raise SchemaError(f"table {self.name!r} has no unique key")
        return self.schema.positions(self.key)

    def key_of(self, row: Row) -> Row:
        """Project *row* onto the table's key columns."""
        return tuple(row[p] for p in self.key_positions())

    def row_dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries keyed by column name (for display/tests)."""
        cols = self.schema.columns
        return [dict(zip(cols, row)) for row in self.rows]

    # ------------------------------------------------------------------
    # validation and mutation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check arity, NOT NULL columns and key uniqueness of all rows."""
        width = len(self.schema)
        nn_positions = self.schema.positions(sorted(self.not_null))
        for row in self.rows:
            if len(row) != width:
                raise SchemaError(
                    f"row arity {len(row)} does not match schema width "
                    f"{width} in table {self.name!r}"
                )
            for pos in nn_positions:
                if row[pos] is None:
                    raise ConstraintError(
                        "NULL in NOT NULL column "
                        f"{self.schema.columns[pos]!r} of {self.name!r}"
                    )
        if self.key is not None:
            positions = self.key_positions()
            seen = set()
            for row in self.rows:
                key = tuple(row[p] for p in positions)
                if key in seen:
                    raise ConstraintError(
                        f"duplicate key {key!r} in table {self.name!r}"
                    )
                seen.add(key)

    def swap_remove(self, positions: Iterable[int]) -> None:
        """Remove the rows at the (distinct) *positions* from the same
        ``rows`` list, each by moving the current last row into the hole:
        positions stay dense in ``[0, len)`` and every index is edited,
        never rebuilt — but row order is no longer insertion order.
        Highest position first, so the row that moves is never doomed.
        The moving row is written into the hole before the list shrinks,
        so a concurrent copy of ``rows`` may hold it twice but never
        misses it."""
        rows = self.rows
        for position in sorted(positions, reverse=True):
            row, last_row = rows[position], rows[-1]
            last = len(rows) - 1
            for index in self.indexes:
                index.swap_remove(position, row, last, last_row)
            rows[position] = last_row
            rows.pop()

    def copy(self) -> "Table":
        """Return an independent copy (rows are immutable tuples, shared)
        carrying a copy of every index."""
        clone = Table(
            self.name,
            self.schema,
            list(self.rows),
            key=self.key,
            not_null=self.not_null,
        )
        clone.indexes = [index.copy() for index in self.indexes]
        return clone


def rows_to_set(table: Table) -> frozenset:
    """The rows of *table* as a frozenset — the standard comparison used by
    tests and by the recompute oracle (views have unique keys, so set
    semantics are exact)."""
    return frozenset(table.rows)


def same_rows(left: Table, right: Table) -> bool:
    """True if both tables hold the same rows over the same columns,
    ignoring row order (and, if the column *sets* match, column order)."""
    if left.schema == right.schema:
        return frozenset(left.rows) == frozenset(right.rows)
    if set(left.schema.columns) != set(right.schema.columns):
        return False
    reorder = right.schema.positions(left.schema.columns)
    realigned = frozenset(tuple(row[p] for p in reorder) for row in right.rows)
    return frozenset(left.rows) == realigned
