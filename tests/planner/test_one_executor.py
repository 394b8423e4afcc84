"""Maintenance has one executor: the compiled plan.

* Totality — every plan maintenance can ask for compiles: the primary
  ΔV^D plan and both secondary plans (§5.2 from the view, §5.3 from base
  tables), for both operations and both ``fk_allowed`` values, over every
  TPC-H view, the views of 200 fuzz scenarios and one aggregated view per
  TPC-H family.
* Plan keys carry ``fk_allowed``, so an FK-shortcut pass and an update's
  shortcut-free pass never share a secondary plan.
* Aggregated views run the same cached plans, never the interpreter.
"""

import random
import sys
from contextlib import contextmanager

import pytest

from repro.algebra.expr import delta_label
from repro.core import (
    AggregatedView,
    CompiledBaseSecondary,
    CompiledViewSecondary,
    DELETE,
    INSERT,
    MaintenanceOptions,
    MaterializedView,
    ViewMaintainer,
    agg_sum,
    count_star,
)
from repro.fuzz import generate_scenario
from repro.planner import compile_plan
from repro.tpch import (
    TPCHGenerator,
    oj_view,
    oj_view_from_sql,
    v2,
    v3,
    v3_core,
    v3_from_sql,
)

# one aggregated view per TPC-H family: (definition, group by, summed column)
AGGREGATED = {
    "v3": (v3, "customer.c_mktsegment", "lineitem.l_extendedprice"),
    "v2": (v2, "customer.c_mktsegment", "lineitem.l_quantity"),
    "oj_view": (oj_view, "orders.o_custkey", "lineitem.l_quantity"),
}


def compile_every_plan(plans, view=None) -> int:
    """Compile each plan maintenance can ask *plans* (a maintainer or an
    aggregated view) for; returns how many.  *view* adds the §5.2 plans."""
    db = plans.db
    compiled = 0
    for table in sorted(plans.definition.tables):
        for fk_allowed in (True, False):
            mgraph = plans.maintenance_graph(table, fk_allowed)
            expr = plans.delta_expression(table, fk_allowed)
            if not mgraph.directly_affected or expr is None:
                continue  # proven empty: nothing is compiled or run
            schemas = {delta_label(table): db.table(table).schema}
            primary = compile_plan(expr, db, schemas)
            compiled += 1
            for term in mgraph.indirectly_affected:
                for operation in (INSERT, DELETE):
                    CompiledBaseSecondary(
                        term, mgraph, primary.schema, db, operation, table
                    )
                    compiled += 1
                    if view is not None:
                        CompiledViewSecondary(
                            term, mgraph, view, primary.schema, db, operation
                        )
                        compiled += 1
    return compiled


def maintainer_over(db, definition) -> ViewMaintainer:
    return ViewMaintainer(db, MaterializedView.materialize(definition, db))


@pytest.fixture(scope="module")
def tpch_db():
    return TPCHGenerator(scale_factor=0.0005, seed=7).build()


def test_every_tpch_view_compiles(tpch_db):
    definitions = [
        v2(), v3(), v3_core(), oj_view(),
        v3_from_sql(tpch_db), oj_view_from_sql(tpch_db),
    ]
    for definition in definitions:
        maintainer = maintainer_over(tpch_db, definition)
        assert compile_every_plan(maintainer, maintainer.view) > 0, definition.name


def test_every_aggregated_family_compiles(tpch_db):
    for family, (definition, group, column) in AGGREGATED.items():
        aggregated = AggregatedView(
            definition(), [group], [count_star("n"), agg_sum(column, "s")], tpch_db
        )
        assert compile_every_plan(aggregated) > 0, family


def test_every_fuzz_scenario_view_compiles():
    compiled = 0
    for seed in range(200):
        scenario = generate_scenario(random.Random(seed))
        db = scenario.build_database()
        for definition in scenario.view_definitions(db):
            maintainer = maintainer_over(db, definition)
            compiled += compile_every_plan(maintainer, maintainer.view)
    assert compiled > 200


def test_fk_allowed_keys_separate_plans(tpch_db):
    """An FK-shortcut pass and an update's shortcut-free pass see different
    maintenance graphs and primary-delta schemas; each gets its own plans."""
    db = tpch_db.copy()
    batches = TPCHGenerator(scale_factor=0.0005, seed=7)
    batches.build()
    maintainer = maintainer_over(db, v3())
    order = (10**7, 1, "O", 1.0, "1994-07-01", "Clerk#000000001")
    maintainer.insert("orders", [order])  # FK-proven free: nothing compiles
    maintainer.update("orders", [order], [order[:3] + (2.0,) + order[4:]])
    lines = batches.lineitem_insert_batch(4, seed=1)
    maintainer.insert("lineitem", lines)
    maintainer.update("lineitem", lines, lines)
    maintainer.check_consistency()

    keys = set(maintainer.plan_cache._entries)
    orders = {key for key in keys if key[1] == "orders"}
    assert ("primary", "orders", False) in orders
    assert all(key[-1] is False for key in orders)
    for term in ("{customer}", "{part}"):
        for fk_allowed in (True, False):
            key = ("secondary-view", "lineitem", term, INSERT, fk_allowed)
            assert key in keys


def test_update_never_reuses_an_fk_shortcut_plan(tpch_db):
    """On ``v2`` an ``orders`` insert's ΔV^D has other columns with FK
    shortcuts than without, and both feed the ``{customer}`` orphan
    plans: a plan shared between them would probe the wrong positions."""
    db = tpch_db.copy()
    maintainer = maintainer_over(db, v2())
    nation = db.table("customer").rows[0][2]
    for custkey in range(10**6, 10**6 + 3):
        maintainer.insert("customer", [(custkey, "C", nation, "BUILDING", 1.0)])
        order = (custkey, custkey, "O", 5000.0, "1994-07-01", "Clerk#1")
        maintainer.insert("orders", [order])  # the customer stops being an orphan
        maintainer.update("orders", [order], [order[:3] + (6000.0,) + order[4:]])
        maintainer.check_consistency()
    for fk_allowed in (True, False):
        assert ("secondary-view", "orders", "{customer}", INSERT, fk_allowed) in (
            maintainer.plan_cache._entries
        )


@contextmanager
def interpreter_refused():
    """Make every reference to ``repro.algebra.evaluate.evaluate`` raise,
    and :meth:`MaterializedView.as_table`: no pass may copy the whole view."""
    original = sys.modules["repro.algebra.evaluate"].evaluate

    def refuse(*args, **kwargs):
        raise AssertionError("maintenance called the interpreter")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MaterializedView, "as_table", refuse)
        holders = [
            module for module in list(sys.modules.values())
            if getattr(module, "evaluate", None) is original
        ]
        assert sys.modules["repro.core.view"] in holders
        for module in holders:
            patch.setattr(module, "evaluate", refuse)
        yield


@pytest.mark.parametrize("family", sorted(AGGREGATED))
def test_aggregated_view_runs_cached_plans_only(family):
    db = TPCHGenerator(scale_factor=0.0005, seed=7).build()
    batches = TPCHGenerator(scale_factor=0.0005, seed=7)
    batches.build()
    definition, group, column = AGGREGATED[family]
    aggregated = AggregatedView(
        definition(), [group], [count_star("n"), agg_sum(column, "s")], db
    )
    first, second = (batches.lineitem_insert_batch(5, seed=s) for s in (1, 2))
    cache = aggregated.plan_cache
    with interpreter_refused():
        for change in (aggregated.insert, aggregated.delete):
            change("lineitem", first)
            misses, hits = cache.misses, cache.hits
            change("lineitem", second)  # same (table, operation): all hits
            assert cache.misses == misses and cache.hits > hits
    aggregated.check_consistency()


@pytest.mark.parametrize("strategy", ["view", "base", "auto"])
def test_view_maintainer_never_calls_the_interpreter(strategy, tpch_db):
    db = tpch_db.copy()
    batches = TPCHGenerator(scale_factor=0.0005, seed=7)
    batches.build()
    maintainer = ViewMaintainer(
        db,
        MaterializedView.materialize(v3(), db),
        MaintenanceOptions(secondary_strategy=strategy),
    )
    rows = batches.lineitem_insert_batch(5, seed=1)
    with interpreter_refused():
        maintainer.insert("lineitem", rows)
        maintainer.update("lineitem", rows, rows)
        maintainer.delete("lineitem", rows)
    maintainer.check_consistency()
