"""The database catalog: tables, keys, foreign keys, and DML.

:class:`Database` is the single stateful object of the engine.  Base-table
updates flow through :meth:`Database.insert` and :meth:`Database.delete`,
which enforce key and foreign-key integrity — important because the
maintenance algorithm's foreign-key optimizations are only sound if the
constraints actually hold.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import CatalogError, ConstraintError, SchemaError
from .constraints import ForeignKey
from .index import HashIndex, KeyIndex, find_index, projector
from .schema import Schema, qualify, split_qualified
from .table import Row, Table


class Database:
    """A named collection of keyed tables plus foreign-key constraints."""

    def __init__(self):
        self.tables: Dict[str, Table] = {}
        self.foreign_keys: List[ForeignKey] = []
        # Plan compilation provisions indexes lazily on the dispatcher
        # thread, racing a user's DDL on the caller's.
        self._ddl_lock = threading.Lock()

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Sequence[str],
        key: Sequence[str],
        not_null: Iterable[str] = (),
    ) -> Table:
        """Create an empty table.

        *columns*, *key* and *not_null* use **bare** column names; they are
        qualified with the table name internally (the engine's convention).
        """
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        schema = Schema([qualify(name, c) for c in columns])
        qualified_key = [qualify(name, c) for c in key]
        # Base-table keys are unique AND non-null (paper Section 2).
        qualified_nn = set(qualify(name, c) for c in not_null) | set(qualified_key)
        table = Table(
            name,
            schema,
            key=qualified_key,
            not_null=sorted(qualified_nn),
        )
        # Primary-key index: every base table gets one (the paper's
        # tables all carry clustered key indexes).  It accelerates key
        # lookups in joins, makes DML integrity checks O(|delta|) and
        # keeps keys exact: a write can never hold a key twice.
        table.indexes.append(KeyIndex(table, qualified_key))
        self.tables[name] = table
        return table

    def create_index(self, table: str, columns: Sequence[str]):
        """Create (or return) a hash index on *table* over *columns*
        (bare names).  Indexes are kept current by insert/delete and are
        used automatically by equi-joins probing this table.

        An index over the same column set is returned as it is, so its
        columns may be listed in another order than *columns*: probe it
        through :func:`~repro.engine.index.find_index`'s permutation."""
        with self._ddl_lock:
            base = self.table(table)
            qualified = [qualify(table, c) for c in columns]
            existing = find_index(base, qualified)
            if existing is not None:
                return existing[0]
            index = HashIndex(base, qualified)
            base.indexes.append(index)
            return index

    def add_foreign_key(
        self,
        source: str,
        source_columns: Sequence[str],
        target: str,
        target_columns: Sequence[str],
        cascading_deletes: bool = False,
        deferrable: bool = False,
    ) -> ForeignKey:
        """Declare a foreign key (bare column names, qualified internally)."""
        src = self.table(source)
        dst = self.table(target)
        src_cols = tuple(qualify(source, c) for c in source_columns)
        dst_cols = tuple(qualify(target, c) for c in target_columns)
        for col in src_cols:
            src.schema.index_of(col)
        if dst.key is None or tuple(dst_cols) != tuple(dst.key):
            # The paper requires the target side to be a non-null unique key.
            if set(dst_cols) != set(dst.key or ()):
                raise ConstraintError(
                    f"foreign key target {dst_cols} is not the unique key "
                    f"of {target!r}"
                )
        fk = ForeignKey(
            source=source,
            source_columns=src_cols,
            target=target,
            target_columns=dst_cols,
            source_not_null=all(c in src.not_null for c in src_cols),
            cascading_deletes=cascading_deletes,
            deferrable=deferrable,
        )
        self.foreign_keys.append(fk)
        return fk

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def foreign_keys_from(self, source: str) -> List[ForeignKey]:
        return [fk for fk in self.foreign_keys if fk.source == source]

    def foreign_keys_to(self, target: str) -> List[ForeignKey]:
        return [fk for fk in self.foreign_keys if fk.target == target]

    def foreign_key_between(
        self, source: str, target: str
    ) -> Optional[ForeignKey]:
        for fk in self.foreign_keys:
            if fk.source == source and fk.target == target:
                return fk
        return None

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert(
        self,
        name: str,
        rows: Iterable[Row],
        check: bool = True,
        defer_deferrable: bool = False,
    ) -> Table:
        """Insert *rows* into table *name*; returns the inserted rows as a
        delta table (same schema/key as the base table).

        A key held twice raises :class:`ConstraintError` before anything
        changes, even with ``check=False`` (which skips the other checks).
        With *defer_deferrable*, foreign keys declared DEFERRABLE are not
        checked now (SQL's per-transaction checking); the caller is
        responsible for checking them at commit (see
        :meth:`check_deferred_fks`).
        """
        table = self.table(name)
        new_rows = [tuple(row) for row in rows]
        if check:
            self._check_new_rows(table, new_rows)
            self._check_outgoing_fks(name, new_rows, skip_deferrable=defer_deferrable)
        start = len(table.rows)
        key_index, *others = table.indexes  # create_table registers it first
        key_index.extend(new_rows, start)  # raises on a held key
        if new_rows and table.journal is not None:
            table.journal.record(dict.fromkeys(map(key_index.project, new_rows)))
        table.rows.extend(new_rows)
        for index in others:
            index.extend(new_rows, start)
        if new_rows:
            table.bump_version()
        return self._delta(table, new_rows)

    def delete(self, name: str, rows: Iterable[Row], check: bool = True) -> Table:
        """Delete exact *rows* from table *name*; returns the deleted rows
        as a delta table.  Raises — before anything changes — if a row is
        absent or repeated, or if the deletion would strand referencing
        rows (no cascading deletes here).  With ``check=False`` such rows
        are skipped instead, and the delta holds only what was removed.

        Costs one primary-key probe per row, one probe per row into each
        referencing table and one bucket edit per index
        (:meth:`Table.swap_remove`), whatever the table's size.  The
        first checked delete from a referenced table indexes each
        referencing table's foreign-key columns.
        """
        table = self.table(name)
        key_index = table.indexes[0]  # create_table registers it first
        key_of, probe = key_index.project, key_index.buckets.get
        held, width = table.rows, len(table.schema)
        found: Dict[int, Row] = {}  # position -> row, in input order
        for row in map(tuple, rows):
            position = probe(key_of(row)) if len(row) == width else None
            if position is None or held[position] != row:
                if check:
                    raise ConstraintError(f"cannot delete absent row {row!r} from {name!r}")
            elif position not in found:
                found[position] = row
            elif check:
                raise ConstraintError(f"cannot delete repeated row {row!r} from {name!r}")
        delta = self._delta(table, list(found.values()))
        if check:
            self._check_incoming_fks(name, delta)
        if found and table.journal is not None:
            table.journal.record(dict(zip(map(key_of, found.values()), found.values())))
        table.swap_remove(found)
        if found:
            table.bump_version()
        return delta

    def delete_by_key(self, name: str, keys: Iterable[Row], check: bool = True) -> Table:
        """Delete rows of *name* whose unique key is in *keys*."""
        return self.delete(name, self.rows_by_key(name, keys), check=check)

    def rows_by_key(self, name: str, keys: Iterable[Row]) -> List[Row]:
        """Rows of *name* whose unique key is in *keys*, in key order —
        one primary-key probe each; keys nothing holds are skipped."""
        table = self.table(name)
        held = map(table.indexes[0].buckets.get, dict.fromkeys(map(tuple, keys)))
        return [table.rows[p] for p in held if p is not None]

    @staticmethod
    def _delta(table: Table, rows: List[Row]) -> Table:
        return Table(
            table.name, table.schema, rows, key=table.key, not_null=table.not_null
        )

    # ------------------------------------------------------------------
    # integrity checks
    # ------------------------------------------------------------------
    def _check_new_rows(self, table: Table, new_rows: List[Row]) -> None:
        """Arity and NOT NULL columns of rows about to be inserted (the
        key index checks their keys)."""
        schema = table.schema
        width = len(schema)
        required = schema.positions(sorted(table.not_null))
        any_null = projector(required)
        for row in new_rows:
            if len(row) != width:
                raise SchemaError(
                    f"row arity {len(row)} does not match schema width "
                    f"{width} in table {table.name!r}"
                )
            if None in any_null(row):
                column = next(schema.columns[p] for p in required if row[p] is None)
                raise ConstraintError(
                    f"NULL in NOT NULL column {column!r} of {table.name!r}"
                )

    def check_deferred_fks(self, name: str, rows: List[Row]) -> None:
        """Commit-time check of DEFERRABLE foreign keys for rows that were
        inserted with ``defer_deferrable=True``."""
        self._check_outgoing_fks(name, rows, only_deferrable=True)

    def _check_outgoing_fks(
        self,
        name: str,
        new_rows: List[Row],
        skip_deferrable: bool = False,
        only_deferrable: bool = False,
    ) -> None:
        table = self.table(name)
        for fk in self.foreign_keys_from(name):
            if skip_deferrable and fk.deferrable:
                continue
            if only_deferrable and not fk.deferrable:
                continue
            # a foreign key targets the unique key, which is always indexed
            index, permutation = find_index(
                self.table(fk.target), fk.target_columns
            )
            source = table.schema.positions(fk.source_columns)
            ref_of = projector([source[p] for p in permutation])
            known = index.buckets
            for row in new_rows:
                ref = ref_of(row)
                if None in ref:
                    if fk.source_not_null:
                        raise ConstraintError(
                            f"NULL foreign key {fk.source_columns} in {name!r}"
                        )
                elif ref not in known:
                    raise ConstraintError(
                        f"foreign key violation: {name}{fk.source_columns} = "
                        f"{tuple(row[p] for p in source)!r} has no match in "
                        f"{fk.target!r}"
                    )

    def _check_incoming_fks(self, name: str, delta: Table) -> None:
        """Refuse a delete that would strand referencing rows: one probe
        per deleted key into an index on each referencing table's FK
        columns, built here by the first delete from *name*."""
        table = self.table(name)
        key = tuple(table.key or ())
        fks = [fk for fk in self.foreign_keys_to(name) if tuple(fk.target_columns) == key]
        if not fks:
            return
        doomed_keys = set(map(table.indexes[0].project, delta.rows))
        for fk in fks:
            source = self.table(fk.source)
            if find_index(source, fk.source_columns) is None:
                bare = [split_qualified(c)[1] for c in fk.source_columns]
                self.create_index(fk.source, bare)
            index, permutation = find_index(source, fk.source_columns)
            probe_of = projector(permutation)
            if any(probe_of(key) in index.buckets for key in doomed_keys):
                raise ConstraintError(
                    f"cannot delete from {name!r}: row still "
                    f"referenced by {fk.source!r} via {fk.source_columns}"
                )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __getstate__(self):
        # locks don't pickle; the fixture cache and spawned shard
        # workers ship databases across process boundaries
        state = self.__dict__.copy()
        del state["_ddl_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._ddl_lock = threading.Lock()

    def copy(self) -> "Database":
        """Deep-enough copy: fresh table objects and row lists (rows are
        immutable tuples and are shared)."""
        clone = Database()
        clone.tables = {name: t.copy() for name, t in self.tables.items()}
        clone.foreign_keys = list(self.foreign_keys)
        return clone

    def validate(self) -> None:
        """Check every table and every foreign key in full."""
        for table in self.tables.values():
            table.validate()
        for fk in self.foreign_keys:
            source = self.table(fk.source)
            self._check_outgoing_fks(fk.source, source.rows)
