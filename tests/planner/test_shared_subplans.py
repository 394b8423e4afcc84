"""Shared maintenance sub-plans: one change runs each sub-tree once.

Sixteen views over ``lineitem`` in three families — 8 ``v3`` date
windows, 4 ``v2`` balance floors, 4 copies of Example 1's ``oj_view`` —
all start their ΔV^D plans from ``ΔL ⋈ orders`` (``v3``, ``oj_view``)
or ``ΔL ⟕ orders`` (``v2``).  A warehouse change hands every view one
memo, so each such join runs once per change, and nothing outlives it.
"""

from collections import Counter

import pytest

from repro import Warehouse
from repro.algebra import Project
from repro.algebra.expr import Bound, Join, Relation, delta_label
from repro.algebra.predicates import Comparison, eq
from repro.core import ViewDefinition
from repro.engine import operators
from repro.engine.table import Table
from repro.errors import FanOutError
from repro.planner import compile_plan
from repro.runtime.failpoints import FAILPOINTS
from repro.tpch import TPCHGenerator, oj_view, v2, v3

ORDER_PAIR = (("lineitem.l_orderkey", "orders.o_orderkey"),)


def family_views(db):
    def renamed(definition, name):
        return ViewDefinition(name, Project(definition.join_expr, definition.output_columns(db)))

    views = [
        renamed(v3(f"1994-{i + 1:02d}-01", f"1994-{min(12, i + 6):02d}-28"), f"v3_win{i}")
        for i in range(8)
    ]
    views += [
        renamed(v2(Comparison("customer.c_acctbal", ">=", floor)), f"v2_bal{i}")
        for i, floor in enumerate((0.0, 1_000.0, 2_500.0, 5_000.0))
    ]
    return views + [renamed(oj_view(), f"oj_copy{i}") for i in range(4)]


@pytest.fixture
def batches():
    gen = TPCHGenerator(scale_factor=0.001, seed=42)  # tiny_tpch's twin
    gen.build()
    return gen


@pytest.fixture
def warehouse(tiny_tpch):
    wh = Warehouse(tiny_tpch)
    for definition in family_views(tiny_tpch):
        wh.create_view(definition.name, definition)
    yield wh
    FAILPOINTS.reset()
    wh.close()


@pytest.fixture
def order_joins(monkeypatch):
    """Counts ``lineitem.l_orderkey = orders.o_orderkey`` joins by kind."""
    counts = {}
    real = operators.join

    def join(left, right, kind, *args, **kwargs):
        if kwargs.get("equi") == ORDER_PAIR:
            counts[kind] = counts.get(kind, 0) + 1
        return real(left, right, kind, *args, **kwargs)

    monkeypatch.setattr(operators, "join", join)
    return counts


def assert_recompute(wh, skip=()):
    for name in wh.view_names:
        if name not in skip:
            wh.maintainer(name).check_consistency()


def test_each_order_join_runs_once_per_change(warehouse, batches, tiny_tpch, order_joins):
    rows = batches.lineitem_insert_batch(60, seed=1)
    warehouse.insert("lineitem", rows)
    # v3 and oj_view share the inner join, the v2 floors the left one
    assert order_joins == {"inner": 1, "left": 1}
    assert_recompute(warehouse)

    order_joins.clear()
    warehouse.delete("lineitem", batches.lineitem_delete_batch(tiny_tpch, 60, seed=2))
    assert order_joins == {"inner": 1, "left": 1}
    assert_recompute(warehouse)


def test_equal_consecutive_changes_never_reuse_a_result(warehouse, batches, order_joins):
    rows = batches.lineitem_insert_batch(60, seed=3)
    for operation in ("insert", "delete", "insert"):
        getattr(warehouse, operation)("lineitem", rows)
    assert order_joins == {"inner": 3, "left": 3}
    assert_recompute(warehouse)


def test_the_memo_is_keyed_by_the_delta_object(tiny_tpch, batches, order_joins):
    """Two deltas with equal rows are two changes: one memo never hands
    the first one's result to the second."""
    expr = Join("inner", Bound(delta_label("lineitem")), Relation("orders"), eq(*ORDER_PAIR[0]))
    plan = compile_plan(expr, tiny_tpch)
    schema = tiny_tpch.table("lineitem").schema
    rows = batches.lineitem_insert_batch(6, seed=4)
    shared = {}
    for __ in range(2):
        delta = Table("delta", schema, rows)
        plan.execute(tiny_tpch, {delta_label("lineitem"): delta}, shared)
        plan.execute(tiny_tpch, {delta_label("lineitem"): delta}, shared)
    assert order_joins == {"inner": 2}


def test_view_and_primary_bindings_are_never_signed(tiny_tpch):
    pair = eq("orders.o_orderkey", "lineitem.l_orderkey")
    for label in ("view", "candidates"):
        expr = Join("semi", Bound(label, over=("orders",)), Relation("lineitem"), pair)
        plan = compile_plan(expr, tiny_tpch, {label: tiny_tpch.table("orders").schema})
        bound, scan = plan.root.children()
        assert plan.root.sig is None and bound.sig is None
        assert scan.sig is not None
    delta = Join("semi", Bound(delta_label("orders")), Relation("lineitem"), pair)
    assert compile_plan(delta, tiny_tpch).root.sig is not None


def test_equal_sub_trees_get_equal_signatures(tiny_tpch):
    pair = eq(*ORDER_PAIR[0])
    inner = Join("inner", Bound(delta_label("lineitem")), Relation("orders"), pair)
    left = Join("left", Bound(delta_label("lineitem")), Relation("orders"), pair)
    first, second, other = (compile_plan(e, tiny_tpch) for e in (inner, inner, left))
    assert first.root.sig == second.root.sig != other.root.sig
    assert first.root.delta == delta_label("lineitem")


def test_a_quarantined_view_leaves_the_others_exact(warehouse, batches):
    # v3_win0 is the first view: it computes the shared join, then fails
    with FAILPOINTS.armed("maintain.pass", view="v3_win0", times=None):
        with pytest.raises(FanOutError) as excinfo:
            warehouse.insert("lineitem", batches.lineitem_insert_batch(60, seed=6))
    assert excinfo.value.quarantined == ["v3_win0"]
    assert len(excinfo.value.reports) == 15
    assert_recompute(warehouse, skip=("v3_win0",))


@pytest.mark.parametrize("name", ["v3_win0", "v2_bal1", "oj_copy0"])
def test_execute_with_and_without_a_memo_agree(warehouse, batches, name):
    delta = warehouse.db.insert("lineitem", batches.lineitem_insert_batch(60, seed=7))
    maintainer = warehouse.maintainer(name)
    expr = maintainer.delta_expression("lineitem", True)
    plan = compile_plan(expr, warehouse.db)
    bindings = {delta_label("lineitem"): delta}
    shared = {}
    alone = plan.execute(warehouse.db, bindings)
    memoised = plan.execute(warehouse.db, bindings, shared)
    assert shared and Counter(alone.rows) == Counter(memoised.rows)
    assert plan.execute(warehouse.db, bindings, shared) is memoised
