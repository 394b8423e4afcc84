"""A fixed-cost call budget: a small change pays for its rows, not for
the shape of the views it reaches.

Everything a maintenance pass decides before it sees a row — the
maintenance graph, the term labels, the parents-first order of the
indirect terms, the plan keys, whether the pass is statically empty — is
compiled once per (view, table, operation, ``fk_allowed``) into a pass
record.  One warm 6-row ``lineitem`` insert into a warehouse over the
16-view set at SF 0.005 is run under ``sys.setprofile`` and every
Python-level call it makes is counted, as in ``test_batch_budget.py``.
The count covers the whole change (base apply, fan-out, sixteen passes,
snapshot publish) and is divided by the view count.  It read 358 calls
per view when every pass re-derived its structure, 291 when every plan
look-up also re-checked the options and the index set, 284 while every
pass opened four phase spans (null ones, telemetry off) and every plan
look-up and view size was an occurrence, and reads 264 now.

A change a view cannot see, or one Section 6 proves empty for it, gets
no task at all, so its returned reports name only the views it reached;
a skipped pass over a table the view reads is still metered.  A record
that fails to compile keeps its task, so the error stays inside that
view and quarantines it.

Bounds are for CPython 3.11; 3.12 inlines comprehensions and reads lower.
"""

import pytest

from repro import Database, Q, Warehouse, eq
from repro.algebra.expr import LEFT, Join, Project, Relation
from repro.errors import FanOutError
from repro.obs import Telemetry
from repro.tpch import TPCHGenerator

from .test_batch_budget import counted
from .test_shared_subplans import family_views

SEED = 20070415
SCALE = 0.005
BATCH = 6
CALLS_PER_VIEW = 290


@pytest.fixture(scope="module")
def warehouse():
    """A warehouse over the 16 views and a twin generator for batches."""
    db = TPCHGenerator(scale_factor=SCALE, seed=SEED).build()
    batches = TPCHGenerator(scale_factor=SCALE, seed=SEED)
    batches.build()
    wh = Warehouse(db)
    for definition in family_views(db):
        wh.create_view(definition.name, definition)
    yield wh, batches
    wh.close()


def test_small_change_calls_per_view_stay_in_budget(warehouse):
    wh, batches = warehouse
    rows = batches.lineitem_insert_batch(BATCH, seed=1)
    for __ in range(2):  # compile every plan this change reaches
        wh.insert("lineitem", rows)
        wh.delete("lineitem", rows)
    reports, calls = counted(lambda: wh.insert("lineitem", rows))
    assert sorted(reports) == sorted(wh.view_names)
    assert calls / len(reports) <= CALLS_PER_VIEW, (
        f"{calls / len(reports):.0f} calls per view"
    )
    assert sum(r.primary_rows for r in reports.values()) > 0
    wh.delete("lineitem", rows)
    for name in wh.view_names:
        wh.maintainer(name).check_consistency()


@pytest.mark.parametrize("table, blind", [("customer", "oj_copy"), ("part", "v2_bal")])
def test_a_view_that_cannot_see_the_table_gets_no_task(warehouse, table, blind):
    wh, batches = warehouse
    rows = getattr(batches, f"{table}_insert_batch")(BATCH, seed=3)
    reports = wh.insert(table, rows)
    reached = {name for name in wh.view_names if table in wh.maintainer(name).definition.tables}
    assert set(reports) == reached
    assert not any(name.startswith(blind) for name in reports)
    assert len(reached) == 12
    for name in wh.view_names:
        wh.maintainer(name).check_consistency()


def test_a_change_section_6_proves_empty_gets_no_task(warehouse):
    """New orders no ``lineitem`` row references: every view sees
    ``orders``, but Theorem 3 proves each ``v3`` term over it unchanged."""
    wh, __ = warehouse
    rows = [(10_000_000 + i, 1, "O", 100.0, "1994-07-01", "Clerk#000000001") for i in range(BATCH)]
    reports = wh.insert("orders", rows)
    assert all("orders" in wh.maintainer(name).definition.tables for name in wh.view_names)
    assert sorted(reports) == sorted(n for n in wh.view_names if not n.startswith("v3_"))
    for name in wh.view_names:
        wh.maintainer(name).check_consistency()


def test_a_warm_change_is_one_trace_of_few_occurrences():
    """Telemetry records a change, not its look-ups: with ``Telemetry()``
    on, a warm 6-row change over the 16 views is one ``change`` root
    holding one childless ``maintain`` span per view, and it emits at most
    18 occurrences (16 passes, the apply, the snapshot publish).  Plan-cache
    traffic and view sizes are read at scrape.  It read 87 spans under 16
    roots and 76 occurrences when each phase was a span and each look-up
    and view size an occurrence."""
    db = TPCHGenerator(scale_factor=SCALE, seed=SEED).build()
    batches = TPCHGenerator(scale_factor=SCALE, seed=SEED)
    batches.build()
    telemetry = Telemetry()
    with Warehouse(db, telemetry=telemetry) as wh:
        for definition in family_views(db):
            wh.create_view(definition.name, definition)
        rows = batches.lineitem_insert_batch(BATCH, seed=1)
        for __ in range(2):  # compile every plan this change reaches
            wh.insert("lineitem", rows)
            wh.delete("lineitem", rows)
        emitted = []
        emit = telemetry.emit

        def counting(kind, /, **attrs):
            emitted.append(kind)
            return emit(kind, **attrs)

        telemetry.emit = counting
        roots = len(telemetry.spans)
        wh.insert("lineitem", rows)
        (change,) = telemetry.spans[roots:]
        assert change.name == "change"
        assert [span.name for span in change.children] == ["maintain"] * 16
        assert not any(span.children for span in change.children)
        assert len(emitted) <= 18, sorted(emitted)


def orders_and_lines() -> Warehouse:
    db = Database()
    db.create_table("orders", ["o_orderkey", "o_custkey"], key=["o_orderkey"])
    db.create_table("lineitem", ["l_orderkey", "l_linenumber"], key=["l_orderkey", "l_linenumber"])
    db.add_foreign_key("lineitem", ["l_orderkey"], "orders", ["o_orderkey"])
    return Warehouse(db, telemetry=Telemetry())


def test_a_skipped_pass_is_still_metered_as_the_fk_shortcut():
    """The ``lineitem ⋈ orders`` view gets no task for a new order, but its
    skipped pass still counts as one where foreign keys proved ΔV^D empty."""
    wh = orders_and_lines()
    on = eq("lineitem.l_orderkey", "orders.o_orderkey")
    wh.create_view("lines", Q.table("lineitem").join("orders", on=on).build())
    wh.create_view("order_lines", Q.table("orders").left_outer_join("lineitem", on=on).build())
    assert set(wh.insert("orders", [(1, 100), (2, 200)])) == {"order_lines"}
    assert set(wh.insert("lineitem", [(1, 1)])) == {"lines", "order_lines"}
    metrics = wh.metrics_text()
    assert 'repro_fk_shortcut_total{view="lines",table="orders"} 1' in metrics
    passes = 'repro_maintenance_passes_total{view="lines",table="orders",operation="insert"} 1'
    assert passes in metrics
    assert "fk-shortcut    : 1/2 passes primary-skipped" in wh.dashboard()
    wh.check_consistency()


def test_a_record_that_fails_to_compile_quarantines_only_its_view():
    """A projection below a join passes ``validate_spoj`` but has no
    ΔV^D: compiling its pass record raises inside that view's task, so the
    other view is maintained and the change is acknowledged."""
    wh = orders_and_lines()
    on = eq("lineitem.l_orderkey", "orders.o_orderkey")
    wh.create_view("order_lines", Q.table("orders").left_outer_join("lineitem", on=on).build())
    narrow = Project(Relation("orders"), ["orders.o_orderkey"])
    wh.create_view("narrow", Join(LEFT, narrow, Relation("lineitem"), on))
    with pytest.raises(FanOutError) as excinfo:
        wh.insert("orders", [(1, 100)])
    assert set(excinfo.value.failures) == {"narrow"}
    assert set(excinfo.value.reports) == {"order_lines"}
    assert wh.quarantined_views == ["narrow"]
    errors = 'repro_maintenance_errors_total{view="narrow",table="orders",operation="insert"} 1'
    assert errors in wh.metrics_text()
    assert set(wh.insert("lineitem", [(1, 1)])) == {"order_lines"}
    wh.check_consistency()  # the quarantined view is stale by contract
