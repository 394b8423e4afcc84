"""Property-based tests (hypothesis) for the maintenance pipeline over
random views, random databases and random updates — the repo's strongest
correctness evidence.

Each property pins one link of the paper's chain:

* normal form ⊕-evaluation ≡ direct SQL evaluation of the view tree;
* Theorem 1: net-contribution form ≡ the view;
* left-deep ΔV^D ≡ bushy ΔV^D;
* FK-simplified ΔV^D ≡ unsimplified ΔV^D;
* full maintenance ≡ recompute, for both secondary strategies.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.algebra import evaluate, normal_form
from repro.algebra.expr import delta_label
from repro.algebra.subsumption import SubsumptionGraph, net_contribution_form
from repro.core import (
    MaintenanceOptions,
    MaterializedView,
    SECONDARY_FROM_BASE,
    SECONDARY_FROM_VIEW,
    ViewMaintainer,
    primary_delta_expression,
    simplify_tree,
    to_left_deep,
)
from repro.engine import Table, same_rows
from repro.errors import UnsupportedViewError
from repro.workloads import (
    random_database,
    random_delete_rows,
    random_insert_rows,
    random_view,
)

seeds = st.integers(min_value=0, max_value=10_000)


def build(seed, n_tables=3, with_fks=False):
    rng = random.Random(seed)
    db = random_database(
        rng,
        n_tables=n_tables,
        rows_per_table=8,
        with_foreign_keys=with_fks,
    )
    defn = random_view(rng, db)
    return rng, db, defn


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_normal_form_evaluates_to_view(seed):
    """⊕ᵢ Eᵢ (via net contributions, Theorem 1) ≡ direct evaluation."""
    rng, db, defn = build(seed)
    graph = SubsumptionGraph(normal_form(defn.join_expr, db))
    net = net_contribution_form(graph, db, defn.full_schema(db))
    direct = evaluate(defn.join_expr, db)
    aligned = set(
        tuple(row[net.schema.index_of(c)] for c in direct.schema.columns)
        for row in net.rows
    )
    assert aligned == set(direct.rows)
    assert len(net.rows) == len(direct.rows)  # ⊎ without overlap


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_normal_form_fk_pruning_preserves_semantics(seed):
    rng, db, defn = build(seed, with_fks=True)
    pruned = SubsumptionGraph(normal_form(defn.join_expr, db))
    full = SubsumptionGraph(
        normal_form(defn.join_expr, db, use_foreign_keys=False)
    )
    a = net_contribution_form(pruned, db, defn.full_schema(db))
    b = net_contribution_form(full, db, defn.full_schema(db))
    assert set(a.rows) == set(
        tuple(row[b.schema.index_of(c)] for c in a.schema.columns)
        for row in b.rows
    )


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_left_deep_equals_bushy_delta(seed):
    rng, db, defn = build(seed)
    table = rng.choice(sorted(defn.tables))
    bushy = primary_delta_expression(defn.join_expr, table)
    try:
        flat = to_left_deep(bushy, db)
    except UnsupportedViewError:
        return  # predicates spanning operands: bushy fallback is used
    delta_rows = random_insert_rows(rng, db, table, 3)
    delta = Table(
        table, db.table(table).schema, delta_rows, key=db.table(table).key
    )
    bindings = {delta_label(table): delta}
    assert same_rows(
        evaluate(bushy, db, bindings), evaluate(flat, db, bindings)
    )


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_fk_simplified_delta_equals_plain(seed):
    rng, db, defn = build(seed, with_fks=True)
    table = rng.choice(sorted(defn.tables))
    plain = primary_delta_expression(defn.join_expr, table)
    result = simplify_tree(plain, table, db)
    delta_rows = random_insert_rows(rng, db, table, 3)
    if not delta_rows:
        return
    delta = Table(
        table, db.table(table).schema, delta_rows, key=db.table(table).key
    )
    bindings = {delta_label(table): delta}
    full = evaluate(plain, db, bindings)
    if result.is_empty:
        assert len(full) == 0
        return
    simplified = evaluate(result.expression, db, bindings)
    # Compare on the columns the simplified delta kept; dropped tables
    # are provably all-NULL in the full delta.
    cols = simplified.schema.columns
    full_proj = {
        tuple(row[full.schema.index_of(c)] for c in cols)
        for row in full.rows
    }
    assert {tuple(row) for row in simplified.rows} == full_proj
    for dropped in result.null_tables:
        for col in full.schema.columns_of(dropped):
            pos = full.schema.index_of(col)
            assert all(row[pos] is None for row in full.rows)


@given(seeds, st.sampled_from([SECONDARY_FROM_VIEW, SECONDARY_FROM_BASE]))
@settings(max_examples=60, deadline=None)
def test_maintenance_equals_recompute(seed, strategy):
    rng, db, defn = build(seed, with_fks=seed % 2 == 0)
    view = MaterializedView.materialize(defn, db)
    maintainer = ViewMaintainer(
        db, view, MaintenanceOptions(secondary_strategy=strategy)
    )
    for __ in range(3):
        table = rng.choice(sorted(defn.tables))
        if rng.random() < 0.5:
            rows = random_insert_rows(rng, db, table, rng.randint(1, 3))
            if rows:
                maintainer.insert(table, rows)
        else:
            rows = random_delete_rows(rng, db, table, rng.randint(1, 3))
            if rows:
                maintainer.delete(table, rows)
        maintainer.check_consistency()


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_update_operation_equals_recompute(seed):
    rng, db, defn = build(seed)
    view = MaterializedView.materialize(defn, db)
    maintainer = ViewMaintainer(db, view)
    table = rng.choice(sorted(defn.tables))
    base = db.table(table)
    if not base.rows:
        return
    old = rng.choice(base.rows)
    new = (old[0],) + tuple(
        rng.randint(0, 5) if rng.random() < 0.7 else None
        for __ in old[1:]
    )
    maintainer.update(table, [old], [new])
    maintainer.check_consistency()


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_projected_view_maintenance(seed):
    """Views that project away non-key columns (keys kept, per the
    paper's restriction) maintain exactly like full-width ones."""
    from repro.algebra.expr import Project

    rng, db, defn = build(seed)
    full = defn.full_schema(db).columns
    keys = set(defn.key_columns(db))
    keep = [
        c for c in full if c in keys or rng.random() < 0.5
    ]
    from repro.core import ViewDefinition

    projected = ViewDefinition(
        "proj", Project(defn.join_expr, keep)
    )
    view = MaterializedView.materialize(projected, db)
    maintainer = ViewMaintainer(db, view)
    for __ in range(2):
        table = rng.choice(sorted(projected.tables))
        if rng.random() < 0.5:
            rows = random_insert_rows(rng, db, table, 2)
            if rows:
                maintainer.insert(table, rows)
        else:
            rows = random_delete_rows(rng, db, table, 2)
            if rows:
                maintainer.delete(table, rows)
        maintainer.check_consistency()


@given(seeds, st.sampled_from(["view", "base", "auto"]))
@settings(max_examples=40, deadline=None)
def test_all_strategies_agree_on_final_state(seed, strategy):
    """Every secondary strategy lands on the identical view contents."""
    rng, db, defn = build(seed)
    reference_db = db.copy()
    reference = MaterializedView.materialize(defn, reference_db)
    ref_maintainer = ViewMaintainer(reference_db, reference)

    view = MaterializedView.materialize(defn, db)
    maintainer = ViewMaintainer(
        db, view, MaintenanceOptions(secondary_strategy=strategy)
    )
    for __ in range(2):
        table = rng.choice(sorted(defn.tables))
        if rng.random() < 0.5:
            rows = random_insert_rows(rng, db, table, 2)
            if rows:
                maintainer.insert(table, list(rows))
                ref_maintainer.db.insert(table, list(rows))
                ref_maintainer.maintain(
                    table,
                    __import__("repro.engine", fromlist=["Table"]).Table(
                        table, db.table(table).schema, rows,
                        key=db.table(table).key,
                    ),
                    "insert",
                )
        else:
            rows = random_delete_rows(rng, db, table, 2)
            if rows:
                maintainer.delete(table, list(rows))
                ref_maintainer.db.delete(table, list(rows), check=False)
                ref_maintainer.maintain(
                    table,
                    __import__("repro.engine", fromlist=["Table"]).Table(
                        table, db.table(table).schema, rows,
                        key=db.table(table).key,
                    ),
                    "delete",
                )
    assert frozenset(view.rows()) == frozenset(reference.rows())
