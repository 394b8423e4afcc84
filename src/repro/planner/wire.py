"""A database's schema as plain data, and the database built back from it.

Shard workers (:mod:`repro.runtime.shardproc`) compile their own
maintenance plans, as the paper's warehouse compiles a view's stored
procedure where the view lives, so no compiled object ever crosses the
shard pipe.  What does cross it are Python values, pickled by
``multiprocessing``: ``ViewDefinition`` and ``MaintenanceOptions``
objects, row tuples and ``MaintenanceReport`` objects.  The one thing
with its own form is the **schema** (tables, keys, not-null sets,
secondary indexes, foreign keys as nested dicts of bare column names):
:func:`encode_schema` writes it, :func:`build_database` builds a
database from it.  A worker builds its database that way, and a
checkpoint base file stores the same form.

:func:`encode_rows` / :func:`decode_rows` are the old row form of the
shard pipe, kept for the benchmark that still times them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.catalog import Database
from ..engine.table import Row

__all__ = ["encode_schema", "build_database", "encode_rows", "decode_rows"]


def _bare(table: str, qualified: Iterable[str]) -> List[str]:
    """Strip the ``table.`` prefix the catalog adds internally."""
    prefix = table + "."
    out = []
    for column in qualified:
        out.append(column[len(prefix):] if column.startswith(prefix) else column)
    return out


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------
def encode_schema(db: Database) -> Dict:
    """The DDL of *db* (no rows) as plain nested dicts."""
    tables = []
    for name, table in db.tables.items():
        secondary = []
        for index in table.indexes:
            columns = tuple(index.columns)
            if columns == tuple(table.key or ()):
                continue  # the primary index is recreated by create_table
            secondary.append(_bare(name, columns))
        tables.append(
            {
                "name": name,
                "columns": _bare(name, table.schema.columns),
                "key": _bare(name, table.key or ()),
                "not_null": _bare(name, table.not_null),
                "indexes": secondary,
            }
        )
    foreign_keys = [
        {
            "source": fk.source,
            "source_columns": _bare(fk.source, fk.source_columns),
            "target": fk.target,
            "target_columns": _bare(fk.target, fk.target_columns),
            "cascading_deletes": fk.cascading_deletes,
            "deferrable": fk.deferrable,
        }
        for fk in db.foreign_keys
    ]
    return {"tables": tables, "foreign_keys": foreign_keys}


def build_database(
    schema: Dict, rows: Optional[Dict[str, List[Sequence]]] = None
) -> Database:
    """Instantiate a :class:`Database` from :func:`encode_schema` output,
    optionally loading *rows* per table (no integrity checks: the rows
    were validated wherever they were first applied)."""
    db = Database()
    for spec in schema["tables"]:
        db.create_table(
            spec["name"],
            spec["columns"],
            key=spec["key"],
            not_null=spec["not_null"],
        )
        for columns in spec["indexes"]:
            db.create_index(spec["name"], columns)
    for fk in schema["foreign_keys"]:
        db.add_foreign_key(
            fk["source"],
            fk["source_columns"],
            fk["target"],
            fk["target_columns"],
            cascading_deletes=fk["cascading_deletes"],
            deferrable=fk["deferrable"],
        )
    for name, table_rows in (rows or {}).items():
        if table_rows:
            db.insert(name, [tuple(r) for r in table_rows], check=False)
    return db


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------
def encode_rows(rows: Iterable[Row]) -> List[List]:
    """Rows as lists.  No shard message uses this any more (the pipe
    carries the row tuples themselves); the benchmark's
    ``planner.wire.*_us_per_krow`` metrics still time it."""
    return [list(row) for row in rows]


def decode_rows(rows: Iterable[Sequence]) -> List[Tuple]:
    """The inverse of :func:`encode_rows`; a tuple passes through
    uncopied, so it also reads rows a shard reply carries as tuples."""
    return [tuple(row) for row in rows]
