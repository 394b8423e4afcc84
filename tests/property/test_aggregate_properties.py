"""Property-based tests for aggregated outer-join views (Section 3.3):
incremental aggregation equals re-aggregation of a recompute for random
views, random group-by choices and random update streams."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import AggregatedView, agg_sum, count_col, count_star
from repro.errors import ConstraintError
from repro.workloads import (
    random_database,
    random_delete_rows,
    random_insert_rows,
    random_view,
)

seeds = st.integers(min_value=0, max_value=10_000)


def build(seed):
    rng = random.Random(seed)
    db = random_database(
        rng,
        n_tables=3,
        rows_per_table=8,
        with_foreign_keys=seed % 2 == 0,
    )
    defn = random_view(rng, db)
    tables = sorted(defn.tables)
    group_table = rng.choice(tables)
    value_table = rng.choice(tables)
    agg = AggregatedView(
        defn,
        group_by=[f"{group_table}.a"],
        aggregates=[
            count_star("n"),
            count_col(f"{value_table}.k", "ks"),
            agg_sum(f"{value_table}.b", "total"),
        ],
        db=db,
    )
    return rng, db, defn, agg


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_initial_aggregation_matches_recompute(seed):
    rng, db, defn, agg = build(seed)
    agg.check_consistency()


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_aggregate_maintenance_matches_recompute(seed):
    rng, db, defn, agg = build(seed)
    for __ in range(3):
        table = rng.choice(sorted(defn.tables))
        if rng.random() < 0.5:
            rows = random_insert_rows(rng, db, table, rng.randint(1, 3))
            if rows:
                agg.insert(table, rows)
        else:
            rows = random_delete_rows(rng, db, table, rng.randint(1, 3))
            if rows:
                agg.delete(table, rows)
        agg.check_consistency()


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_aggregate_update_matches_recompute(seed):
    rng, db, defn, agg = build(seed)
    table = rng.choice(sorted(defn.tables))
    base = db.table(table)
    if not base.rows:
        return
    old = rng.choice(base.rows)
    new = (old[0],) + tuple(
        rng.randint(0, 5) if rng.random() < 0.8 else None
        for __ in old[1:]
    )
    try:
        agg.update(table, [old], [new])
    except ConstraintError:  # a NULL in the NOT NULL fk column: refused whole
        assert new[-1] is None and old in db.table(table).rows
    agg.check_consistency()


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_row_counts_never_negative(seed):
    rng, db, defn, agg = build(seed)
    for __ in range(3):
        table = rng.choice(sorted(defn.tables))
        rows = random_delete_rows(rng, db, table, rng.randint(1, 2))
        if rows:
            agg.delete(table, rows)
        for group in agg.groups.values():
            assert group.row_count > 0
            assert all(c >= 0 for c in group.counts)
