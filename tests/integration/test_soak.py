"""Soak tests: long mixed update streams through every frontend at once.

These are the closest thing to a production burn-in: one database, many
views (plain, projected, aggregated), every secondary strategy, direct
DML, batches and transactions interleaved — with the recompute oracle
consulted throughout.
"""

import random

import pytest

from repro.algebra.expr import Project
from repro.core import (
    MaintenanceOptions,
    MaterializedView,
    ViewDefinition,
    ViewMaintainer,
    agg_sum,
    count_star,
)
from repro.warehouse import Warehouse
from repro.workloads import (
    random_database,
    random_delete_rows,
    random_insert_rows,
    random_view,
)


STRATEGIES = ("view", "base", "auto")


@pytest.mark.parametrize("seed", range(4))
def test_long_stream_all_strategies(seed):
    rng = random.Random(31_000 + seed)
    db = random_database(
        rng, n_tables=4, rows_per_table=10, with_foreign_keys=seed % 2 == 0
    )
    defn = random_view(rng, db)
    maintainers = []
    for index, strategy in enumerate(STRATEGIES):
        twin_db = db.copy() if index else db
        view = MaterializedView.materialize(defn, twin_db)
        maintainers.append(
            (
                twin_db,
                ViewMaintainer(
                    twin_db,
                    view,
                    MaintenanceOptions(secondary_strategy=strategy),
                ),
            )
        )

    for step in range(20):
        table = rng.choice(sorted(defn.tables))
        if rng.random() < 0.5:
            rows = random_insert_rows(rng, db, table, rng.randint(1, 3))
            if not rows:
                continue
            for twin_db, maintainer in maintainers:
                if twin_db is not db:
                    twin_db.insert(table, list(rows))
                    maintainer.maintain(
                        table,
                        _delta(twin_db, table, rows),
                        "insert",
                    )
                else:
                    maintainer.insert(table, list(rows))
        else:
            rows = random_delete_rows(rng, db, table, rng.randint(1, 3))
            if not rows:
                continue
            for twin_db, maintainer in maintainers:
                if twin_db is not db:
                    twin_db.delete(table, list(rows), check=False)
                    maintainer.maintain(
                        table,
                        _delta(twin_db, table, rows),
                        "delete",
                    )
                else:
                    maintainer.delete(table, list(rows))
        if step % 5 == 4:
            states = set()
            for __, maintainer in maintainers:
                maintainer.check_consistency()
                states.add(frozenset(maintainer.view.rows()))
            assert len(states) == 1  # every strategy identical


def _delta(db, table, rows):
    from repro.engine import Table

    base = db.table(table)
    return Table(table, base.schema, [tuple(r) for r in rows], key=base.key)


def test_warehouse_soak():
    """Direct DML and transactions against a multi-view
    warehouse, twenty rounds, oracle-checked."""
    rng = random.Random(77)
    db = random_database(rng, n_tables=3, rows_per_table=10)
    defn = random_view(rng, db, name="plain")
    wh = Warehouse(db)
    wh.create_view("plain", defn)

    keys = defn.key_columns(db)
    keep = [
        c
        for c in defn.full_schema(db).columns
        if c in set(keys) or rng.random() < 0.5
    ]
    wh.create_view(
        "projected",
        ViewDefinition("projected", Project(defn.join_expr, keep)),
    )
    group_table = sorted(defn.tables)[0]
    wh.create_aggregated_view(
        "agg",
        ViewDefinition("agg_base", defn.join_expr),
        group_by=[f"{group_table}.a"],
        aggregates=[count_star("n"), agg_sum(f"{group_table}.b", "s")],
    )

    for step in range(20):
        table = rng.choice(sorted(defn.tables))
        roll = rng.random()
        if roll < 0.4:
            rows = random_insert_rows(rng, db, table, rng.randint(1, 3))
            if rows:
                wh.insert(table, rows)
        elif roll < 0.7:
            rows = random_delete_rows(rng, db, table, rng.randint(1, 3))
            if rows:
                wh.delete(table, rows)
        elif roll < 0.85:
            with wh.transaction() as txn:
                ins = random_insert_rows(rng, db, table, 2)
                if ins:
                    txn.insert(table, ins)
                    if rng.random() < 0.5:
                        txn.delete(table, [ins[0]])  # take one row back out
        else:
            try:
                with wh.transaction() as txn:
                    rows = random_insert_rows(rng, db, table, 2)
                    if rows:
                        txn.insert(table, rows)
                    if rng.random() < 0.3:
                        raise RuntimeError("synthetic abort")
            except RuntimeError:
                pass
        if step % 5 == 4:
            wh.check_consistency()
    wh.check_consistency()
