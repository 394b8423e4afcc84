"""Evaluation of logical expressions on the engine.

:func:`evaluate` walks a :class:`~repro.algebra.expr.RelExpr` tree and
executes it against a :class:`~repro.engine.catalog.Database` plus a
binding environment that resolves :class:`~repro.algebra.expr.Bound`
leaves (``ΔT``, the materialized view, temporaries).

Join predicates are split into hash-joinable equi pairs and a residual
predicate; everything else compiles to row-level closures.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, FrozenSet, Optional

from ..engine import operators as ops
from ..engine.catalog import Database
from ..engine.schema import Schema
from ..engine.table import Table
from ..errors import ExpressionError
from .expr import (
    Bound,
    Distinct,
    FixUp,
    Join,
    NullIf,
    Project,
    RelExpr,
    Relation,
    Select,
)
from .predicates import compile_predicate, equijoin_pairs

Bindings = Dict[str, Table]


def static_join_plan(expr: Join, left_schema: Schema, right_schema: Schema):
    """Plan a join node from operand schemas alone (no data needed).

    Returns ``(equi_pairs, residual_predicate)`` where *residual_predicate*
    is an (uncompiled) predicate over the concatenated schema, or ``None``.
    This is the single planning routine shared by the interpreter and the
    physical plan compiler, so both always agree on the join strategy.

    Operands with overlapping column names are only legal for semi/anti
    joins (the Section 5.3 ``T ⋉^la ΔT`` shape); see
    :func:`overlapping_semijoin_pairs`.
    """
    overlap = set(left_schema.columns) & set(right_schema.columns)
    if overlap:
        return overlapping_semijoin_pairs(expr, left_schema, right_schema), None
    left_tables = frozenset(left_schema.tables())
    right_tables = frozenset(right_schema.tables())
    pairs, residual_parts = equijoin_pairs(expr.pred, left_tables, right_tables)
    # Equi pairs are only usable when both columns are actually present
    # in the operand schemas (a delta may carry fewer columns).
    usable = [
        (lc, rc)
        for lc, rc in pairs
        if lc in left_schema and rc in right_schema
    ]
    dropped = [pair for pair in pairs if pair not in usable]
    residual = None
    if residual_parts or dropped:
        from .predicates import conjoin, Comparison

        rebuilt = list(residual_parts) + [
            Comparison(lc, "=", rc) for lc, rc in dropped
        ]
        residual = conjoin(rebuilt)
    return usable, residual


def overlapping_semijoin_pairs(
    expr: Join, left_schema: Schema, right_schema: Schema
):
    """Equi pairs for a semijoin/antijoin between operands sharing column
    names — the shape ``T ⋉^la_{eq(T)} ΔT`` produced by Section 5.3's
    old-state expression.

    Only equality conjuncts over the *same* qualified column on both sides
    are supported; they become hash-join pairs.
    """
    from .predicates import Comparison, Col, conjuncts as split

    if expr.kind not in ("semi", "anti"):
        raise ExpressionError(
            "joins with overlapping schemas are only supported for "
            f"semi/anti joins, got {expr.kind!r}"
        )
    pairs = []
    for part in split(expr.pred):
        same_column = (
            isinstance(part, Comparison)
            and part.op == "="
            and isinstance(part.left, Col)
            and isinstance(part.right, Col)
            and part.left.qualified == part.right.qualified
        )
        if not same_column:
            raise ExpressionError(
                f"unsupported predicate {part!r} for overlapping-schema "
                "semijoin (only col = col on the shared column works)"
            )
        name = part.left.qualified
        if name not in left_schema or name not in right_schema:
            raise ExpressionError(f"column {name!r} missing from an operand")
        pairs.append((name, name))
    return pairs


class ExecutionStats:
    """Machine-independent work counters for one or more evaluations.

    Tracks, per operator kind, how many rows each operator *produced* —
    the intermediate-result sizes Section 4.1 is about — plus the largest
    single intermediate, and how much wall time each operator kind spent
    (self time, children excluded).  Pass an instance to :func:`evaluate`
    to collect; counters accumulate across calls, so one instance can
    meter a whole maintenance pass.
    """

    def __init__(self):
        self.rows_by_operator: Dict[str, int] = {}
        self.seconds_by_operator: Dict[str, float] = {}
        self.nodes_executed = 0
        self.peak_intermediate = 0
        # Self-time bookkeeping: one frame per evaluate() recursion level
        # holding the inclusive seconds its children consumed.
        self._child_seconds = [0.0]

    def record(self, kind: str, row_count: int, seconds: float = 0.0) -> None:
        self.rows_by_operator[kind] = (
            self.rows_by_operator.get(kind, 0) + row_count
        )
        self.seconds_by_operator[kind] = (
            self.seconds_by_operator.get(kind, 0.0) + seconds
        )
        self.nodes_executed += 1
        if row_count > self.peak_intermediate:
            self.peak_intermediate = row_count

    @property
    def total_rows(self) -> int:
        """Total intermediate rows produced (leaf scans excluded)."""
        return sum(self.rows_by_operator.values())

    @property
    def total_seconds(self) -> float:
        """Total operator self time — the evaluation's measured cost."""
        return sum(self.seconds_by_operator.values())

    def to_dict(self) -> Dict:
        """JSON-serializable form (consumed by report/span serializers)."""
        return {
            "total_rows": self.total_rows,
            "total_seconds": self.total_seconds,
            "nodes_executed": self.nodes_executed,
            "peak_intermediate": self.peak_intermediate,
            "rows_by_operator": dict(self.rows_by_operator),
            "seconds_by_operator": dict(self.seconds_by_operator),
        }

    def summary(self) -> str:
        parts = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.rows_by_operator.items())
        )
        return (
            f"{self.total_rows} intermediate rows over "
            f"{self.nodes_executed} operators (peak {self.peak_intermediate}"
            f", {self.total_seconds * 1000:.2f} ms): {parts}"
        )


def evaluate(
    expr: RelExpr,
    db: Database,
    bindings: Optional[Bindings] = None,
    stats: Optional[ExecutionStats] = None,
) -> Table:
    """Execute *expr* and return the result table.

    *bindings* maps :class:`Bound` labels to tables; base tables come from
    *db*.  Inputs are never mutated.  An :class:`ExecutionStats` records
    the cardinality every operator produced.
    """
    env = bindings or {}

    if isinstance(expr, (Relation, Bound)):
        return _leaf(expr, db, env)

    if stats is None:
        return _evaluate_inner(expr, db, env, stats)

    # Time the node inclusively, then subtract what nested evaluate()
    # calls consumed so seconds_by_operator holds true self times.
    stats._child_seconds.append(0.0)
    started = perf_counter()
    result = _evaluate_inner(expr, db, env, stats)
    inclusive = perf_counter() - started
    children = stats._child_seconds.pop()
    stats._child_seconds[-1] += inclusive
    stats.record(_kind_label(expr), len(result.rows), inclusive - children)
    return result


def _leaf(expr: RelExpr, db: Database, env: Bindings) -> Table:
    if isinstance(expr, Relation):
        return db.table(expr.name)
    try:
        return env[expr.label]
    except KeyError:
        raise ExpressionError(
            f"no binding for {expr.label!r}; available: {sorted(env)}"
        ) from None


def _kind_label(expr: RelExpr) -> str:
    if isinstance(expr, Join):
        return f"join:{expr.kind}"
    return type(expr).__name__.lower()


def _evaluate_inner(
    expr: RelExpr,
    db: Database,
    env: Bindings,
    stats: Optional[ExecutionStats],
) -> Table:
    if isinstance(expr, Select):
        child = evaluate(expr.child, db, env, stats)
        return ops.select(child, compile_predicate(expr.pred, child.schema))

    if isinstance(expr, Project):
        child = evaluate(expr.child, db, env, stats)
        return ops.project(child, expr.columns)

    if isinstance(expr, Distinct):
        child = evaluate(expr.child, db, env, stats)
        return ops.distinct(child)

    if isinstance(expr, NullIf):
        child = evaluate(expr.child, db, env, stats)
        pred = compile_predicate(expr.pred, child.schema)
        columns = [c for c in expr.columns if c in child.schema]
        return ops.null_if(child, pred, columns)

    if isinstance(expr, FixUp):
        child = evaluate(expr.child, db, env, stats)
        keys = [c for c in expr.key_columns if c in child.schema]
        return ops.fixup(child, keys)

    if isinstance(expr, Join):
        left = evaluate(expr.left, db, env, stats)
        right = evaluate(expr.right, db, env, stats)
        pairs, residual_pred = static_join_plan(expr, left.schema, right.schema)
        residual = None
        if residual_pred is not None:
            combined_schema = left.schema.concat(right.schema)
            residual = compile_predicate(residual_pred, combined_schema)
        return ops.join(left, right, expr.kind, equi=pairs, residual=residual)

    raise ExpressionError(f"cannot evaluate node {expr!r}")


def infer_schema(
    expr: RelExpr,
    db: Database,
    binding_schemas: Optional[Dict[str, Schema]] = None,
) -> Schema:
    """Static schema of *expr* without evaluating it.

    ``Bound`` leaves are resolved from *binding_schemas*; a ``delta:T``
    label defaults to table T's schema.
    """
    schemas = binding_schemas or {}
    if isinstance(expr, Relation):
        return db.table(expr.name).schema
    if isinstance(expr, Bound):
        if expr.label in schemas:
            return schemas[expr.label]
        if expr.label.startswith("delta:"):
            return db.table(expr.label.split(":", 1)[1]).schema
        raise ExpressionError(f"unknown binding schema for {expr.label!r}")
    if isinstance(expr, (Select, Distinct, NullIf)):
        return infer_schema(expr.children()[0], db, schemas)
    if isinstance(expr, FixUp):
        return infer_schema(expr.child, db, schemas)
    if isinstance(expr, Project):
        return Schema(expr.columns)
    if isinstance(expr, Join):
        left = infer_schema(expr.left, db, schemas)
        if expr.kind in ("semi", "anti"):
            return left
        return left.concat(infer_schema(expr.right, db, schemas))
    raise ExpressionError(f"cannot infer schema of {expr!r}")


def key_columns(expr: RelExpr, db: Database) -> tuple:
    """Qualified key columns of every base table referenced below *expr*,
    in a stable order.  This is the unique key of the expression's result
    (null-extended keys included), used by :class:`FixUp`."""
    columns = []
    for leaf in expr.leaves():
        names: FrozenSet[str]
        if isinstance(leaf, Relation):
            names = frozenset((leaf.name,))
        elif isinstance(leaf, Bound):
            names = leaf.over
        else:
            continue
        for name in sorted(names):
            table = db.table(name)
            if table.key:
                for col in table.key:
                    if col not in columns:
                        columns.append(col)
    return tuple(columns)
