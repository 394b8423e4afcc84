"""View definitions and materialized views.

A :class:`ViewDefinition` wraps a validated SPOJ expression plus the
output column list (a top-level projection).  For the view to be
maintainable by the paper's algorithm the output must contain the unique
key of **every** referenced base table — exactly what the paper's V3 does
through its clustered index ``(c_custkey, p_partkey, l_orderkey,
l_linenumber, o_orderkey)``.  The concatenation of those keys, with NULLs
on null-extended tables, is the view's unique key.

A :class:`MaterializedView` stores the view rows hash-indexed by that key,
which is what lets deltas be applied with point inserts/deletes.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from ..algebra.evaluate import evaluate, infer_schema
from ..algebra.expr import Project, RelExpr, validate_spoj
from ..algebra.normalform import Term, normal_form
from ..algebra.subsumption import SubsumptionGraph
from ..engine.catalog import Database
from ..engine.index import projector
from ..engine.schema import Schema
from ..engine.table import Row, Table, UndoLog, next_version
from ..errors import MaintenanceError, UnsupportedViewError

#: (output columns, key columns) -> view key -> the (key, row) pair stored first
RowPool = Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], Dict[Row, Tuple[Row, Row]]]


class SubkeyIndex:
    """A secondary view index (the paper's ``V4_idx``) over a column
    subset: for each value combination, the number of view rows
    carrying it.

    The Section 5.2 orphan probe only asks whether any view row still
    carries a term key (``sub in groups``), so a count is all the index
    keeps.  Combinations holding a NULL are counted too; the probe never
    asks for them, and counting every row keeps an insert or delete at
    one dict read and one write per row.
    """

    __slots__ = ("columns", "positions", "project", "groups")

    def __init__(
        self,
        columns: Tuple[str, ...],
        positions: Tuple[int, ...],
        rows: Iterable[Row] = (),
    ):
        self.columns = columns
        self.positions = positions
        self.project = projector(positions)
        # value tuple -> view rows carrying it, built in one C-level
        # pass; a plain dict, as 3.11 specialises subscripts only on
        # exact dicts
        self.groups: Dict[Row, int] = dict(Counter(map(self.project, rows)))

    def add_many(self, rows: Iterable[Row]) -> None:
        """Count view *rows* that were just stored."""
        groups = self.groups
        get = groups.get
        for sub in map(self.project, rows):
            groups[sub] = get(sub, 0) + 1

    def discard_many(self, rows: Iterable[Row]) -> None:
        """Uncount view *rows* that were just removed."""
        groups = self.groups
        for sub in map(self.project, rows):
            count = groups[sub]
            if count == 1:
                del groups[sub]
            else:
                groups[sub] = count - 1

    def copy(self) -> "SubkeyIndex":
        twin = SubkeyIndex(self.columns, self.positions)
        twin.groups = self.groups.copy()
        return twin

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SubkeyIndex({list(self.columns)}, {len(self.groups)} groups)"


class ViewDefinition:
    """A named SPOJ view: expression + output columns.

    Parameters
    ----------
    name:
        View name (also used as the table name of materializations).
    expr:
        The SPOJ expression.  A top-level :class:`Project` is split off as
        the output column list; no projections may appear below joins.
    """

    def __init__(self, name: str, expr: RelExpr):
        self.name = name
        if isinstance(expr, Project):
            self.join_expr: RelExpr = expr.child
            self._output: Optional[Tuple[str, ...]] = tuple(expr.columns)
        else:
            self.join_expr = expr
            self._output = None
        validate_spoj(self.join_expr)
        #: Base tables referenced by the view (``join_expr`` never changes).
        self.tables: frozenset = self.join_expr.base_tables()

    # ------------------------------------------------------------------
    def full_schema(self, db: Database) -> Schema:
        """Schema of the unprojected join expression."""
        return infer_schema(self.join_expr, db)

    def output_columns(self, db: Database) -> Tuple[str, ...]:
        if self._output is not None:
            return self._output
        return self.full_schema(db).columns

    def schema(self, db: Database) -> Schema:
        return Schema(self.output_columns(db))

    def key_columns(self, db: Database) -> Tuple[str, ...]:
        """The view's unique key: concatenated base-table keys, in a
        stable (alphabetical-by-table) order."""
        out: List[str] = []
        for table in sorted(self.tables):
            key = db.table(table).key
            if key is None:
                raise UnsupportedViewError(
                    f"base table {table!r} of view {self.name!r} has no key"
                )
            out.extend(key)
        return tuple(out)

    def key_column_of(self, table: str, db: Database) -> str:
        """One non-null column of *table* exposed by the view — the column
        the paper's ``null(T)`` predicate probes."""
        key = db.table(table).key
        if not key:
            raise UnsupportedViewError(f"table {table!r} has no key")
        return key[0]

    def validate(self, db: Database) -> None:
        """Check maintainability: all base tables exist, keys exposed."""
        output = set(self.output_columns(db))
        full = set(self.full_schema(db).columns)
        missing_cols = sorted(output - full)
        if missing_cols:
            raise UnsupportedViewError(
                f"view {self.name!r} outputs unknown columns {missing_cols}"
            )
        for col in self.key_columns(db):
            if col not in output:
                raise UnsupportedViewError(
                    f"view {self.name!r} must output key column {col!r} to "
                    "be incrementally maintainable"
                )

    # ------------------------------------------------------------------
    def normal_form(self, db: Database, use_foreign_keys: bool = True) -> List[Term]:
        return normal_form(self.join_expr, db, use_foreign_keys=use_foreign_keys)

    def subsumption_graph(
        self, db: Database, use_foreign_keys: bool = True
    ) -> SubsumptionGraph:
        return SubsumptionGraph(self.normal_form(db, use_foreign_keys))

    def evaluate(self, db: Database) -> Table:
        """Fully evaluate the view (the recompute oracle)."""
        result = evaluate(self.join_expr, db)
        columns = self.output_columns(db)
        if tuple(result.schema.columns) != tuple(columns):
            from ..engine.operators import project

            result = project(result, columns, name=self.name)
        return Table(
            self.name,
            result.schema,
            result.rows,
            key=self.key_columns(db),
        )


class MaterializedView:
    """A view instance stored row-by-row, hash-indexed on the view key."""

    def __init__(self, definition: ViewDefinition, db: Database):
        definition.validate(db)
        self.definition = definition
        self.schema = definition.schema(db)
        self.key_cols = definition.key_columns(db)
        self.key_of = projector(self.schema.positions(self.key_cols))
        self._rows: Dict[Row, Row] = {}
        # Secondary view indexes (the paper's V4_idx), lazily built per
        # column tuple for the maintainer's orphan probes; see SubkeyIndex.
        self._subkey_indexes: Dict[Tuple[str, ...], SubkeyIndex] = {}
        # Mutation-clock tick: advanced by every delta application and
        # by wholesale ``_rows`` replacement (bump_version at those
        # sites).
        self.version: int = next_version()
        # The head of a snapshot store's undo chain, if one subscribed:
        # insert_rows/delete_rows record into it before editing _rows,
        # reset_to detaches it.  A bare view records nothing.
        self.journal: Optional[UndoLog] = None

    def bump_version(self) -> None:
        """Advance the mutation clock after a content change."""
        self.version = next_version()

    # ------------------------------------------------------------------
    @classmethod
    def materialize(
        cls, definition: ViewDefinition, db: Database, pool: Optional[RowPool] = None
    ) -> "MaterializedView":
        """Create and populate from a full evaluation.  With a *pool*, a
        row equal to one an earlier view of the same columns stored under
        the same key is stored as that view's (immutable) key and row."""
        view = cls(definition, db)
        rows = definition.evaluate(db).rows
        pairs = zip(map(view.key_of, rows), rows)
        if pool is not None:  # found by key; an equal pair stored before wins
            pooled = pool.setdefault((view.schema.columns, view.key_cols), {}).setdefault
            pairs = [p if (p := pooled(kr[0], kr))[1] == kr[1] else kr for kr in pairs]
        view._rows = dict(pairs)
        return view

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Row) -> bool:
        return tuple(key) in self._rows

    def rows(self) -> List[Row]:
        return list(self._rows.values())

    def as_table(self) -> Table:
        """The current contents as an engine table (shares nothing)."""
        return Table(
            self.definition.name,
            self.schema,
            list(self._rows.values()),
            key=self.key_cols,
        )

    def clone(self) -> "MaterializedView":
        """An independent copy sharing the immutable row tuples (used by
        benchmarks to reset state between rounds)."""
        twin = MaterializedView.__new__(MaterializedView)
        twin.definition = self.definition
        twin.schema = self.schema
        twin.key_cols = self.key_cols
        twin.key_of = self.key_of
        twin._rows = dict(self._rows)
        twin._subkey_indexes = {
            cols: index.copy()
            for cols, index in self._subkey_indexes.items()
        }
        twin.version = next_version()
        twin.journal = None
        return twin

    def reset_to(self, source: "MaterializedView") -> None:
        """Replace the whole contents in place, keeping this object's
        identity for the maintainers that hold it: adopt *source*'s rows
        and subkey indexes (the caller hands *source* over and must not
        use it afterwards).  The old row dict is never edited again, so
        the snapshots reading it keep their chain; the next publish starts
        a new one."""
        self._rows = source._rows
        self._subkey_indexes = source._subkey_indexes
        self.journal = None
        self.bump_version()

    # ------------------------------------------------------------------
    # secondary view indexes
    # ------------------------------------------------------------------
    def subkey_index(self, columns: Tuple[str, ...]) -> SubkeyIndex:
        """The :class:`SubkeyIndex` over *columns*, built from the rows
        on the first call, then maintained by every delta.  This is the
        paper's secondary view index (``V4_idx``): it turns the Section
        5.2 orphan anti-joins into point probes."""
        columns = tuple(columns)
        index = self._subkey_indexes.get(columns)
        if index is None:
            index = SubkeyIndex(
                columns, self.schema.positions(columns), self._rows.values()
            )
            self._subkey_indexes[columns] = index
        return index

    # ------------------------------------------------------------------
    # point queries (what the view is *for*)
    # ------------------------------------------------------------------
    def lookup(self, **equalities) -> List[Row]:
        """Rows matching column=value equalities (all rows for none).

        Column names use underscores for dots in keyword form, or pass a
        dict via ``view.lookup(**{"part.p_partkey": 5})``.  A full
        view-key lookup is a plain hash probe; any other lookup filters
        the rows (the sub-key indexes count rows, they do not hold them).
        """
        columns = tuple(sorted(equalities))
        positions = self.schema.positions(columns)
        if set(columns) == set(self.key_cols):
            row = self._rows.get(tuple(equalities[c] for c in self.key_cols))
            return [row] if row is not None else []
        values = tuple(equalities[c] for c in columns)
        return [
            row
            for row in self._rows.values()
            if all(row[p] == v for p, v in zip(positions, values))
        ]

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------
    # A delta applies whole or not at all: both methods validate the
    # batch before touching rows, sub-key indexes, journal or version.
    def insert_rows(self, rows: Iterable[Row]) -> int:
        """Insert delta rows (aligned to the view schema); returns count."""
        rows = list(map(tuple, rows))
        if not rows:
            return 0
        keys = list(map(self.key_of, rows))
        held = self._rows
        fresh = dict(zip(keys, rows))
        if len(fresh) < len(keys) or not held.keys().isdisjoint(fresh):
            seen = set()
            for key in keys:  # the first one already held, or repeated
                if key in held or key in seen:
                    raise MaintenanceError(
                        f"view {self.definition.name!r}: duplicate key {key!r} "
                        "on insert — maintenance produced an inconsistent delta"
                    )
                seen.add(key)
        if self.journal is not None:
            self.journal.record(dict.fromkeys(fresh))
        held.update(fresh)
        for index in self._subkey_indexes.values():
            index.add_many(rows)
        self.bump_version()
        return len(fresh)

    def delete_rows(self, rows: Iterable[Row]) -> int:
        """Delete delta rows by their view key; returns count."""
        keys = list(map(self.key_of, map(tuple, rows)))
        if not keys:
            return 0
        held = self._rows
        doomed = dict.fromkeys(keys)
        if len(doomed) < len(keys) or not held.keys() >= doomed.keys():
            seen = set()
            for key in keys:  # the first one not held, or repeated
                if key not in held or key in seen:
                    raise MaintenanceError(
                        f"view {self.definition.name!r}: key {key!r} absent on "
                        "delete — maintenance produced an inconsistent delta"
                    )
                seen.add(key)
        if self.journal is not None:
            self.journal.record(dict(zip(doomed, map(held.__getitem__, doomed))))
        stored = list(map(held.pop, keys))
        for index in self._subkey_indexes.values():
            index.discard_many(stored)
        self.bump_version()
        return len(doomed)
