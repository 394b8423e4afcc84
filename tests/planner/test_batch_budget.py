"""A deterministic call budget: maintenance works a batch at a time.

One warm ``maintain`` of a 600-row ``lineitem`` change is run under
``sys.setprofile`` and every Python-level call it makes — ``call`` and
``c_call`` events, i.e. function entries and C-function calls issued from
Python code — is counted.  A tuple-at-a-time step anywhere on the path
(a per-row helper, a generator between operators, a per-row ``append``)
adds at least one call per delta row, so calls per base delta row bound
it from above.  Before maintenance went batch-at-a-time the three
families read 27 / 119 / 81 calls per row; they now read about 2 / 7 / 4.

Bounds are for CPython 3.11; 3.12 inlines comprehensions and reads lower.
"""

import sys

import pytest

from repro.algebra import evaluate
from repro.algebra.expr import delta_label
from repro.algebra.predicates import Comparison
from repro.core import MaterializedView, ViewMaintainer
from repro.tpch import TPCHGenerator, oj_view, v2, v3

SEED = 20070415
SCALE = 0.005
BATCH = 600

# one view of each family of the tracked benchmark's 16-view set
FAMILIES = {
    "v3": (lambda: v3("1994-01-01", "1994-06-28"), 8),
    "v2": (lambda: v2(Comparison("customer.c_acctbal", ">=", 0.0)), 20),
    "oj_view": (oj_view, 16),
}


def counted(fn):
    """``(result, calls)`` of ``fn()``: Python-level calls made inside."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls - 1  # the closing sys.setprofile(None) is one c_call


@pytest.fixture(scope="module")
def warehouse():
    """The database and one maintainer per family over it, each warmed
    by one insert and one delete."""
    db = TPCHGenerator(scale_factor=SCALE, seed=SEED).build()
    batches = TPCHGenerator(scale_factor=SCALE, seed=SEED)
    batches.build()
    maintainers = {
        family: ViewMaintainer(db, MaterializedView.materialize(definition(), db))
        for family, (definition, __) in FAMILIES.items()
    }
    warm = batches.lineitem_insert_batch(BATCH, seed=1)
    for change in (db.insert, db.delete):
        delta = change("lineitem", warm)
        for maintainer in maintainers.values():
            maintainer.maintain("lineitem", delta, change.__name__)
    return db, batches, maintainers


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_calls_per_delta_row_stay_in_budget(warehouse, family):
    db, batches, maintainers = warehouse
    maintainer = maintainers[family]
    budget = FAMILIES[family][1]
    rows = batches.lineitem_insert_batch(BATCH, seed=2)
    for change in (db.insert, db.delete):
        operation = change.__name__
        delta = change("lineitem", rows)
        report, calls = counted(lambda: maintainer.maintain("lineitem", delta, operation))
        assert calls / BATCH <= budget, (
            f"{family} {operation}: {calls / BATCH:.1f} calls per delta row"
        )
        reference = evaluate(
            maintainer.delta_expression("lineitem", True),
            db,
            {delta_label("lineitem"): delta},
        )
        assert report.primary_rows == len(reference) > 0
        assert sum(report.secondary_rows.values()) > 0
    maintainer.check_consistency()
