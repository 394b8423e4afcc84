"""A2 focus — secondary-delta strategies on a term-heavy view.

V3 has only two indirectly affected terms.  This benchmark uses a
five-table full-outer-join chain (15 normal-form terms, up to 9
indirectly affected for a middle-table update) where the two per-term
strategies separate: Section 5.2 probes the view once per term, Section
5.3 evaluates parent-state joins over base tables per term.  Neither
wins at every view size and batch size, which is the case the ``auto``
strategy's per-term cost estimate exists for.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import Q, eq
from repro.core import (
    MaintenanceOptions,
    MaterializedView,
    SECONDARY_FROM_BASE,
    SECONDARY_FROM_VIEW,
    ViewDefinition,
    ViewMaintainer,
)
from repro.engine import Database

ROWS_PER_TABLE = 200
VALUES = 50
BATCH = 30

STRATEGIES = {
    "view_per_term": SECONDARY_FROM_VIEW,
    "base_per_term": SECONDARY_FROM_BASE,
}


@pytest.fixture(scope="module")
def chain_state():
    rng = random.Random(11)
    db = Database()
    names = [f"t{i}" for i in range(5)]
    for name in names:
        db.create_table(name, ["k", "v"], key=["k"])
        db.insert(
            name,
            [(i, rng.randrange(VALUES)) for i in range(ROWS_PER_TABLE)],
        )
    q = Q.table(names[0])
    for prev, name in zip(names, names[1:]):
        q = q.full_outer_join(name, on=eq(f"{prev}.v", f"{name}.v"))
    defn = ViewDefinition("chain", q.build())
    view = MaterializedView.materialize(defn, db)
    return db, view


def test_all_strategies_agree(chain_state):
    """Correctness guard kept OUT of the timed path: every strategy must
    land on the identical view state."""
    results = []
    for strategy in sorted(STRATEGIES):
        db, view = chain_state
        db2, view2 = db.copy(), view.clone()
        m = ViewMaintainer(
            db2, view2,
            MaintenanceOptions(secondary_strategy=STRATEGIES[strategy]),
        )
        rng = random.Random(14)
        m.delete("t2", rng.sample(db2.table("t2").rows, BATCH))
        m.check_consistency()
        results.append(frozenset(view2.rows()))
    assert results[0] == results[1]


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_secondary_strategy_delete(strategy, chain_state, benchmark):
    options = MaintenanceOptions(secondary_strategy=STRATEGIES[strategy])
    rng = random.Random(12)

    def setup():
        db, view = chain_state
        db2, view2 = db.copy(), view.clone()
        doomed = rng.sample(db2.table("t2").rows, BATCH)
        return (ViewMaintainer(db2, view2, options), doomed), {}

    def run(maintainer, doomed):
        return maintainer.delete("t2", doomed)

    report = benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["indirect_terms"] = len(report.indirect_terms)
    assert len(report.indirect_terms) >= 4


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_secondary_strategy_insert(strategy, chain_state, benchmark):
    options = MaintenanceOptions(secondary_strategy=STRATEGIES[strategy])

    def setup():
        db, view = chain_state
        db2, view2 = db.copy(), view.clone()
        rng = random.Random(13)
        rows = [
            (ROWS_PER_TABLE + 1000 + i, rng.randrange(VALUES))
            for i in range(BATCH)
        ]
        return (ViewMaintainer(db2, view2, options), rows), {}

    def run(maintainer, rows):
        return maintainer.insert("t2", rows)

    report = benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    benchmark.extra_info["strategy"] = strategy
    assert report.base_rows == BATCH
