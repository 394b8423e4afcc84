"""Tests for plan introspection (repro.explain)."""

import pytest

from repro.core import MaterializedView, ViewMaintainer
from repro.explain import explain_update, explain_view
from repro.tpch import TPCHGenerator, v3

from ..conftest import make_example1_db, make_oj_view_defn


@pytest.fixture(scope="module")
def v3_maintainer():
    db = TPCHGenerator(scale_factor=0.0005).build()
    return ViewMaintainer(db, MaterializedView.materialize(v3(), db))


@pytest.fixture
def v1_maintainer(v1_db, v1_defn):
    return ViewMaintainer(
        v1_db, MaterializedView.materialize(v1_defn, v1_db)
    )


class TestExplainView:
    def test_lists_all_terms(self, v1_maintainer):
        text = explain_view(v1_maintainer)
        for label in ("{r,s,t,u}", "{r,s,t}", "{r,t,u}", "{r,s}",
                      "{r,t}", "{r}", "{s}"):
            assert label in text

    def test_shows_view_key(self, v1_maintainer):
        text = explain_view(v1_maintainer)
        assert "(r.k, s.k, t.k, u.k)" in text

    def test_covers_every_table(self, v1_maintainer):
        text = explain_view(v1_maintainer)
        for table in "rstu":
            assert f"Updates of '{table}'" in text

    def test_subsumption_edges_present(self, v1_maintainer):
        text = explain_view(v1_maintainer)
        assert "{r} <- {r,s}, {r,t}" in text


class TestExplainUpdate:
    def test_direct_and_indirect_listed(self, v1_maintainer):
        text = explain_update(v1_maintainer, "t")
        assert "directly affected  : {r,s,t,u}" in text
        assert "{r,s}" in text and "{r}" in text

    def test_plan_tree_rendered(self, v1_maintainer):
        text = explain_update(v1_maintainer, "t")
        assert "<delta:t>" in text
        assert "ΔV^D plan" in text

    def test_sql_scripts_for_both_operations(self, v1_maintainer):
        text = explain_update(v1_maintainer, "t")
        assert "SQL script (insert):" in text
        assert "SQL script (delete):" in text

    def test_single_operation_filter(self, v1_maintainer):
        text = explain_update(v1_maintainer, "t", operation="insert")
        assert "SQL script (insert):" in text
        assert "SQL script (delete):" not in text

    def test_orders_update_explained_as_noop(self, v3_maintainer):
        text = explain_update(v3_maintainer, "orders")
        assert "Theorem 3 eliminates" in text
        assert "NO-OP" in text

    def test_part_insert_shows_fk_elimination(self):
        db = make_example1_db()
        m = ViewMaintainer(
            db, MaterializedView.materialize(make_oj_view_defn(), db)
        )
        text = explain_update(m, "part")
        assert "Theorem 3 eliminates: {lineitem,orders,part}" in text
        # the compiled plan is just the delta leaf
        assert "<delta:part>" in text

    def test_secondary_strategy_mentioned(self, v3_maintainer):
        text = explain_update(v3_maintainer, "lineitem")
        assert "'view' strategy (Section 5.2)" in text


# ---------------------------------------------------------------------------
# the trace contract: what a traced maintenance pass reports
# ---------------------------------------------------------------------------
# The operator records of the ``maintain`` span as ``(kind, calls, rows)``
# in first-report order, for one 60-row lineitem insert and delete per view
# family (SF 0.001, seed 20070415).  Captured before the operators went
# batch-at-a-time, when they landed on a ``primary_delta`` child span (the
# other phase spans recorded none); the kernels must report what the
# tuple-at-a-time operators reported.
TRACE_CONTRACT = {
    "v3": [("join:inner", 2, 66), ("select", 1, 6), ("join:left", 1, 6)],
    "v2": [("join:left", 2, 120), ("null_if", 2, 120), ("distinct", 2, 120), ("fixup", 2, 120)],
    "oj_view": [("join:inner", 1, 60), ("join:left", 1, 60)],
}


def traced_passes(definition):
    from repro.obs import Telemetry

    db = TPCHGenerator(scale_factor=0.001, seed=20070415).build()
    batches = TPCHGenerator(scale_factor=0.001, seed=20070415)
    batches.build()
    telemetry = Telemetry()
    maintainer = ViewMaintainer(
        db, MaterializedView.materialize(definition, db), telemetry=telemetry
    )
    rows = batches.lineitem_insert_batch(60, seed=1)
    out = {}
    for change in (db.insert, db.delete):
        maintainer.maintain("lineitem", change("lineitem", rows), change.__name__)
        root = [span for span in telemetry.spans if span.name == "maintain"][-1]
        assert {span.name for span in root.children} <= {"compile_plan"}
        out[change.__name__] = [(kind, agg[0], agg[1]) for kind, agg in root.operators.items()]
    maintainer.check_consistency()
    return out


@pytest.mark.parametrize("family", ["v3", "v2", "oj_view"])
def test_traced_pass_reports_the_same_operators(family):
    from repro.tpch import oj_view, v2

    definition = {"v3": v3, "v2": v2, "oj_view": oj_view}[family]()
    expected = TRACE_CONTRACT[family]
    assert traced_passes(definition) == {"insert": expected, "delete": expected}
