"""Scenario model and random generation for the differential fuzzer.

A :class:`Scenario` is a fully self-contained, JSON-serializable test
case: table specs with explicit rows, declared foreign keys, view
definitions stored as SQL text (the repo's own SQL printer/parser round
trip — ``render_select``/``parse_expression`` — is the serialization
format), and a concrete update stream.  Replaying a scenario involves no
randomness, which is what makes shrinking and the regression corpus
deterministic.

:func:`generate_scenario` draws a scenario from the paper's full SPOJ
class: random join-disjunctive shapes over tables with nullable join
columns, skewed duplicates, empty tables and key-join ("self-join-ish")
chains, followed by a stream of inserts, deletes and multi-statement
transactions (including transactions built to fail, exercising
rollback).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.view import ViewDefinition
from ..engine.catalog import Database
from ..parser import parse_expression
from ..sql import render_select
from ..workloads import (
    random_database,
    random_delete_rows,
    random_insert_rows,
    random_view,
)

__all__ = ["Scenario", "GeneratorProfile", "generate_scenario"]

Row = Tuple


def _rows(raw) -> List[Row]:
    return [tuple(r) for r in raw]


@dataclass
class Scenario:
    """One deterministic, replayable fuzz case."""

    tables: Dict[str, Dict]  # name -> {columns, key, not_null, rows}
    foreign_keys: List[Dict] = field(default_factory=list)
    views: List[Dict] = field(default_factory=list)  # {name, sql}
    ops: List[Dict] = field(default_factory=list)
    seed: Optional[str] = None  # provenance only

    # ------------------------------------------------------------------
    # replay-side construction
    # ------------------------------------------------------------------
    def build_database(self) -> Database:
        """A fresh database at the scenario's initial state."""
        db = Database()
        for name, spec in self.tables.items():
            db.create_table(
                name,
                list(spec["columns"]),
                key=list(spec["key"]),
                not_null=list(spec.get("not_null", ())),
            )
        for name, spec in self.tables.items():
            rows = _rows(spec.get("rows", ()))
            if rows:
                db.insert(name, rows, check=False)
        for fk in self.foreign_keys:
            db.add_foreign_key(
                fk["source"],
                list(fk["source_columns"]),
                fk["target"],
                list(fk["target_columns"]),
            )
        return db

    def view_definitions(self, db: Database) -> List[ViewDefinition]:
        """The scenario's views parsed against *db*."""
        return [
            ViewDefinition(view["name"], parse_expression(db, view["sql"]))
            for view in self.views
        ]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "tables": {
                name: {
                    "columns": list(spec["columns"]),
                    "key": list(spec["key"]),
                    "not_null": list(spec.get("not_null", ())),
                    "rows": [list(r) for r in spec.get("rows", ())],
                }
                for name, spec in self.tables.items()
            },
            "foreign_keys": [dict(fk) for fk in self.foreign_keys],
            "views": [dict(v) for v in self.views],
            "ops": [_op_to_dict(op) for op in self.ops],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        return cls(
            tables={
                name: {
                    "columns": list(spec["columns"]),
                    "key": list(spec["key"]),
                    "not_null": list(spec.get("not_null", ())),
                    "rows": _rows(spec.get("rows", ())),
                }
                for name, spec in data["tables"].items()
            },
            foreign_keys=[dict(fk) for fk in data.get("foreign_keys", ())],
            views=[dict(v) for v in data.get("views", ())],
            ops=[_op_from_dict(op) for op in data.get("ops", ())],
            seed=data.get("seed"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # shrink ordering
    # ------------------------------------------------------------------
    def size(self) -> Tuple[int, int, int, int, int]:
        """Lexicographic size used by the shrinker (smaller is better):
        ops, rows moved by ops, initial base rows, total view SQL,
        schema objects (tables + foreign keys)."""
        op_rows = 0
        for op in self.ops:
            if op["kind"] == "txn":
                for st in op["statements"]:
                    op_rows += len(st["rows"])
            elif op["kind"] != "crash":
                op_rows += len(op["rows"])
        base_rows = sum(len(s.get("rows", ())) for s in self.tables.values())
        sql = sum(len(v["sql"]) for v in self.views)
        schema = len(self.tables) + len(self.foreign_keys)
        return (len(self.ops), op_rows, base_rows, sql, schema)

    def describe(self) -> str:
        tables = ", ".join(
            f"{name}({len(spec.get('rows', ()))})"
            for name, spec in self.tables.items()
        )
        return (
            f"seed={self.seed} tables=[{tables}] "
            f"views={len(self.views)} ops={len(self.ops)}"
        )


def _op_to_dict(op: Dict) -> Dict:
    if op["kind"] == "crash":
        return {"kind": "crash"}
    if op["kind"] == "txn":
        return {
            "kind": "txn",
            "statements": [
                {
                    "kind": st["kind"],
                    "table": st["table"],
                    "rows": [list(r) for r in st["rows"]],
                }
                for st in op["statements"]
            ],
        }
    return {
        "kind": op["kind"],
        "table": op["table"],
        "rows": [list(r) for r in op["rows"]],
    }


def _op_from_dict(op: Dict) -> Dict:
    if op["kind"] == "crash":
        return {"kind": "crash"}
    if op["kind"] == "txn":
        return {
            "kind": "txn",
            "statements": [
                {
                    "kind": st["kind"],
                    "table": st["table"],
                    "rows": _rows(st["rows"]),
                }
                for st in op["statements"]
            ],
        }
    return {
        "kind": op["kind"],
        "table": op["table"],
        "rows": _rows(op["rows"]),
    }


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------
@dataclass
class GeneratorProfile:
    """Size knobs for :func:`generate_scenario` (defaults keep a single
    case in the low tens of milliseconds across the whole oracle
    matrix)."""

    max_tables: int = 4
    max_rows: int = 8
    max_ops: int = 6
    max_views: int = 2
    empty_table_probability: float = 0.15
    txn_probability: float = 0.15
    failing_txn_probability: float = 0.25  # of the transactions
    # a "crash" op restarts WAL-enabled warehouses mid-stream (recovery
    # must converge); the reference and WAL-less configs treat it as a
    # no-op, so it never changes expected outcomes
    crash_probability: float = 0.10


def generate_scenario(
    rng: random.Random,
    profile: Optional[GeneratorProfile] = None,
    seed: Optional[str] = None,
) -> Scenario:
    """Draw one random scenario: schema + rows, views, update stream."""
    p = profile or GeneratorProfile()
    n_tables = rng.randint(2, p.max_tables)
    with_fks = rng.random() < 0.5
    skew = rng.choice((0.0, 0.0, 0.4, 0.7))
    null_fraction = rng.choice((0.0, 0.1, 0.3))
    value_range = rng.randint(2, 6)
    if with_fks:
        # foreign-key chains need referenceable parents
        row_counts = [rng.randint(1, p.max_rows) for _ in range(n_tables)]
    else:
        row_counts = [
            0
            if rng.random() < p.empty_table_probability
            else rng.randint(1, p.max_rows)
            for _ in range(n_tables)
        ]
    db = random_database(
        rng,
        n_tables=n_tables,
        value_range=value_range,
        null_fraction=null_fraction,
        with_foreign_keys=with_fks,
        row_counts=row_counts,
        skew=skew,
    )

    tables = {
        name: {
            "columns": [c.split(".", 1)[1] for c in table.schema.columns],
            "key": [c.split(".", 1)[1] for c in table.key or ()],
            "not_null": sorted(
                c.split(".", 1)[1]
                for c in table.not_null
                if c not in (table.key or ())
            ),
            "rows": [tuple(r) for r in table.rows],
        }
        for name, table in sorted(db.tables.items())
    }
    foreign_keys = [
        {
            "source": fk.source,
            "source_columns": [c.split(".", 1)[1] for c in fk.source_columns],
            "target": fk.target,
            "target_columns": [c.split(".", 1)[1] for c in fk.target_columns],
        }
        for fk in db.foreign_keys
    ]

    names = sorted(db.tables)
    views = []
    for i in range(rng.randint(1, p.max_views)):
        subset = sorted(rng.sample(names, rng.randint(2, len(names))))
        defn = random_view(rng, db, name=f"v{i}", tables=subset, key_join_probability=0.3)
        views.append({"name": f"v{i}", "sql": render_select(defn.join_expr)})

    ops = _generate_ops(
        rng, db, p, value_range=value_range, null_fraction=null_fraction,
        skew=skew,
    )
    # drawn last, so a seed keeps its tables, rows and ops: v1 may be v0's
    # sibling, and then every sub-plan of the two views' plans is shared
    if len(views) > 1 and rng.random() < 0.25:
        views[1]["sql"] = views[0]["sql"]
    return Scenario(
        tables=tables,
        foreign_keys=foreign_keys,
        views=views,
        ops=ops,
        seed=seed,
    )


def _generate_ops(
    rng: random.Random,
    scratch: Database,
    profile: GeneratorProfile,
    value_range: int,
    null_fraction: float,
    skew: float,
) -> List[Dict]:
    """A valid, concrete update stream, built against a scratch replay of
    the database so deletes target live rows and keys never collide."""
    ops: List[Dict] = []
    names = sorted(scratch.tables)
    attempts = profile.max_ops * 3
    while len(ops) < profile.max_ops and attempts:
        attempts -= 1
        roll = rng.random()
        table = rng.choice(names)
        if roll < profile.crash_probability:
            # never first (nothing to recover) and never back-to-back
            if ops and ops[-1]["kind"] != "crash":
                ops.append({"kind": "crash"})
            continue
        roll = (roll - profile.crash_probability) / (
            1.0 - profile.crash_probability
        )
        if roll < profile.txn_probability:
            op = _generate_txn(
                rng, scratch, names, value_range, null_fraction, skew,
                failing=rng.random() < profile.failing_txn_probability,
            )
            if op is not None:
                ops.append(op)
        elif roll < profile.txn_probability + 0.55:
            rows = random_insert_rows(
                rng, scratch, table, rng.randint(1, 3),
                value_range=value_range, null_fraction=null_fraction,
                skew=skew,
            )
            if rows:
                scratch.insert(table, rows)
                ops.append({"kind": "insert", "table": table, "rows": rows})
        else:
            rows = random_delete_rows(rng, scratch, table, rng.randint(1, 2))
            if rows:
                scratch.delete(table, rows)
                ops.append({"kind": "delete", "table": table, "rows": rows})
    return ops


def _generate_txn(
    rng: random.Random,
    scratch: Database,
    names: List[str],
    value_range: int,
    null_fraction: float,
    skew: float,
    failing: bool,
) -> Optional[Dict]:
    """A 2-statement transaction.  A *failing* one ends with an insert
    that re-uses an existing key, so it must raise at that statement and
    roll the earlier statement back."""
    statements: List[Dict] = []
    shadow = scratch.copy()
    for _ in range(2):
        table = rng.choice(names)
        if rng.random() < 0.6:
            rows = random_insert_rows(
                rng, shadow, table, rng.randint(1, 2),
                value_range=value_range, null_fraction=null_fraction,
                skew=skew,
            )
            if not rows:
                continue
            shadow.insert(table, rows)
            statements.append(
                {"kind": "insert", "table": table, "rows": rows}
            )
        else:
            rows = random_delete_rows(rng, shadow, table, 1)
            if not rows:
                continue
            shadow.delete(table, rows)
            statements.append(
                {"kind": "delete", "table": table, "rows": rows}
            )
    if not statements:
        return None
    if failing:
        # duplicate a key that is live *after* the earlier statements
        # (the shadow state) → ConstraintError mid-transaction
        candidates = [n for n in names if shadow.table(n).rows]
        if not candidates:
            return None
        table = rng.choice(candidates)
        dup = rng.choice(shadow.table(table).rows)
        statements.append(
            {"kind": "insert", "table": table, "rows": [tuple(dup)]}
        )
        return {"kind": "txn", "statements": statements}
    # committed transaction: fold its effects into the scratch state
    for st in statements:
        if st["kind"] == "insert":
            scratch.insert(st["table"], st["rows"])
        else:
            scratch.delete(st["table"], st["rows"])
    return {"kind": "txn", "statements": statements}
