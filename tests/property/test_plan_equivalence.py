"""Property tests for the plan compiler: on random SPOJ views and random
update streams, compiled execution is indistinguishable from the
interpreter — same tables from ``compile_plan`` vs ``evaluate`` — and
cached-plan maintenance equals the full recompute after every step."""

import random

from hypothesis import given, settings, strategies as st

from repro.algebra import evaluate
from repro.algebra.expr import delta_label
from repro.core import (
    MaterializedView,
    ViewMaintainer,
    primary_delta_expression,
    to_left_deep,
)
from repro.engine import Table, same_rows
from repro.errors import UnsupportedViewError
from repro.planner import compile_plan
from repro.workloads import (
    random_database,
    random_delete_rows,
    random_insert_rows,
    random_view,
)

seeds = st.integers(min_value=0, max_value=10_000)


def build(seed, n_tables=3):
    rng = random.Random(seed)
    db = random_database(rng, n_tables=n_tables, rows_per_table=8)
    defn = random_view(rng, db)
    return rng, db, defn


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_compiled_view_expression_equals_interpreter(seed):
    """compile_plan(expr)(db) ≡ evaluate(expr, db) on whole view trees."""
    rng, db, defn = build(seed)
    plan = compile_plan(defn.join_expr, db)
    compiled = plan.execute(db)
    interpreted = evaluate(defn.join_expr, db)
    assert tuple(plan.schema.columns) == tuple(interpreted.schema.columns)
    assert same_rows(compiled, interpreted)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_compiled_delta_plan_equals_interpreter(seed):
    """The left-deep ΔV^D plans — what the maintainer actually caches —
    compile to the interpreter's exact output for random deltas."""
    rng, db, defn = build(seed)
    table = rng.choice(sorted(defn.tables))
    expr = primary_delta_expression(defn.join_expr, table)
    try:
        expr = to_left_deep(expr, db)
    except UnsupportedViewError:
        pass
    delta = Table(
        "d", db.table(table).schema, random_insert_rows(rng, db, table, 3)
    )
    bindings = {delta_label(table): delta}
    plan = compile_plan(expr, db)
    assert same_rows(plan.execute(db, bindings), evaluate(expr, db, bindings))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_compiled_maintenance_equals_recompute_every_step(seed):
    """A mixed update stream maintained with the plan cache (+auto
    indexes) — the only way maintenance runs a delta — equals the
    recompute oracle after every step."""
    rng, db, defn = build(seed)
    maintainer = ViewMaintainer(db, MaterializedView.materialize(defn, db))
    for step in range(4):
        table = rng.choice(sorted(defn.tables))
        if rng.random() < 0.6:
            maintainer.insert(table, random_insert_rows(rng, db, table, 2))
        else:
            rows = random_delete_rows(rng, db, table, 2)
            if not rows:
                continue
            maintainer.delete(table, rows)
        maintainer.check_consistency()
