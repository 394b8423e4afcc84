"""Spawn-safe serialization of plans, schemas and deltas.

Shard worker processes (:mod:`repro.runtime.shardproc`) are started with
``multiprocessing``'s ``spawn`` method: nothing of the parent interpreter
is inherited, so everything a worker needs must cross a pipe as plain
picklable data.  Physical maintenance plans cannot make that trip — they
close over compiled callables — so the wire format
ships the *logical* artifacts instead and each worker compiles its own
physical plans (warming its private :class:`~repro.planner.PlanCache`):

* a database **schema** (tables, keys, not-null sets, secondary indexes,
  foreign keys) as nested dicts of bare column names;
* **view definitions** as SQL text via :func:`repro.sql.render_select`,
  round-tripped through :func:`repro.parser.parse_expression` — the same
  serialization the fuzzer's corpus uses, so it is already oracle-tested;
* :class:`~repro.core.maintain.MaintenanceOptions` as dataclass field
  dicts;
* **deltas** as plain lists of row lists, and
  :class:`~repro.core.maintain.MaintenanceReport` as its ``to_dict``
  form.

Everything here is JSON-shaped (dicts, lists, scalars): pickling is what
``multiprocessing`` does on the pipe, but keeping the format
JSON-compatible makes blobs dumpable into fuzz artifacts and fixtures.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.catalog import Database
from ..engine.table import Row

if TYPE_CHECKING:  # pragma: no cover - import cycle: core.maintain imports us
    from ..core.maintain import MaintenanceOptions, MaintenanceReport
    from ..core.view import ViewDefinition

__all__ = [
    "encode_schema",
    "build_database",
    "encode_view",
    "decode_view",
    "encode_options",
    "decode_options",
    "encode_rows",
    "decode_rows",
    "encode_report",
    "decode_report",
]


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
# views and options
# ---------------------------------------------------------------------------
def encode_view(definition: "ViewDefinition") -> Dict:
    """A view definition as SQL text plus its output column list."""
    from ..sql import render_select

    return {
        "name": definition.name,
        "sql": render_select(definition.join_expr),
        "output": (
            list(definition._output) if definition._output is not None else None
        ),
    }


def decode_view(db: Database, blob: Dict) -> "ViewDefinition":
    from ..algebra.expr import Project
    from ..core.view import ViewDefinition
    from ..parser import parse_expression

    expr = parse_expression(db, blob["sql"])
    if blob.get("output"):
        expr = Project(expr, blob["output"])
    return ViewDefinition(blob["name"], expr)


def encode_options(options: "Optional[MaintenanceOptions]") -> Optional[Dict]:
    return asdict(options) if options is not None else None


def decode_options(blob: Optional[Dict]) -> "Optional[MaintenanceOptions]":
    from ..core.maintain import MaintenanceOptions

    return MaintenanceOptions(**blob) if blob is not None else None


# ---------------------------------------------------------------------------
# deltas and reports
# ---------------------------------------------------------------------------
def encode_rows(rows: Iterable[Row]) -> List[List]:
    return [list(row) for row in rows]


def decode_rows(rows: Iterable[Sequence]) -> List[Tuple]:
    return [tuple(row) for row in rows]


_REPORT_FIELDS = (
    "view",
    "table",
    "operation",
    "base_rows",
    "primary_rows",
    "primary_term_rows",
    "secondary_rows",
    "direct_terms",
    "indirect_terms",
    "primary_skipped",
    "elapsed_seconds",
    "secondary_strategy_used",
)


def encode_report(report: "MaintenanceReport") -> Dict:
    return report.to_dict()


def decode_report(blob: Dict) -> "MaintenanceReport":
    """Rebuild a report from its wire form (:meth:`MaintenanceReport.to_dict`,
    whose derived ``total_view_changes`` is dropped)."""
    from ..core.maintain import MaintenanceReport

    kwargs = {k: blob[k] for k in _REPORT_FIELDS if k in blob}
    return MaintenanceReport(**kwargs)
