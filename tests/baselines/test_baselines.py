"""Tests for the comparison algorithms: recompute, core view, GK."""

import random


from repro.baselines import (
    GriffinKumarMaintainer,
    RecomputeMaintainer,
    core_expression,
    core_view_definition,
    core_view_maintainer,
)
from repro.core import MaterializedView, ViewMaintainer
from repro.algebra import normal_form

from ..conftest import make_v1_db, make_v1_defn


class TestRecompute:
    def test_insert(self):
        db = make_v1_db()
        defn = make_v1_defn()
        view = MaterializedView.materialize(defn, db)
        m = RecomputeMaintainer(db, view)
        m.insert("t", [(500, 1)])
        assert frozenset(view.rows()) == frozenset(defn.evaluate(db).rows)

    def test_delete(self):
        db = make_v1_db()
        defn = make_v1_defn()
        view = MaterializedView.materialize(defn, db)
        m = RecomputeMaintainer(db, view)
        m.delete("t", db.table("t").rows[:3])
        assert frozenset(view.rows()) == frozenset(defn.evaluate(db).rows)

    def test_report_marks_full_refresh(self):
        db = make_v1_db()
        view = MaterializedView.materialize(make_v1_defn(), db)
        report = RecomputeMaintainer(db, view).insert("t", [(500, 1)])
        assert report.primary_rows == len(view)


class TestCoreView:
    def test_core_expression_all_inner(self):
        defn = make_v1_defn()
        core = core_expression(defn.join_expr)
        stack = [core]
        while stack:
            node = stack.pop()
            if hasattr(node, "kind"):
                assert node.kind == "inner"
            stack.extend(node.children())

    def test_core_view_single_term(self):
        db = make_v1_db()
        core = core_view_definition(make_v1_defn())
        terms = normal_form(core.join_expr, db)
        assert len(terms) == 1
        assert terms[0].source == frozenset("rstu")

    def test_core_view_name(self):
        core = core_view_definition(make_v1_defn())
        assert core.name == "v1_core"

    def test_core_maintenance_has_no_secondary(self):
        db = make_v1_db()
        m = core_view_maintainer(make_v1_defn(), db)
        report = m.insert("t", [(600, 1)])
        assert report.secondary_rows == {}
        m.check_consistency()

    def test_core_maintenance_delete(self):
        db = make_v1_db()
        m = core_view_maintainer(make_v1_defn(), db)
        m.delete("t", db.table("t").rows[:4])
        m.check_consistency()

    def test_core_view_subset_of_outer_view(self):
        db = make_v1_db()
        defn = make_v1_defn()
        outer = MaterializedView.materialize(defn, db)
        core = MaterializedView.materialize(core_view_definition(defn), db)
        outer_rows = frozenset(outer.rows())
        for row in core.rows():
            assert row in outer_rows


class TestGriffinKumar:
    def test_correctness_matches_efficient_algorithm(self):
        """GK is slower, not wrong: both end in the same view state."""
        for seed in range(3):
            rng = random.Random(seed)
            db_a = make_v1_db(seed=seed)
            db_b = make_v1_db(seed=seed)
            defn = make_v1_defn()
            ours = ViewMaintainer(
                db_a, MaterializedView.materialize(defn, db_a)
            )
            gk = GriffinKumarMaintainer(
                db_b, MaterializedView.materialize(defn, db_b)
            )
            for step in range(4):
                table = rng.choice("rstu")
                if rng.random() < 0.5:
                    rows = [(800 + step * 10 + j, rng.randint(0, 5)) for j in range(2)]
                    ours.insert(table, list(rows))
                    gk.insert(table, list(rows))
                else:
                    doomed = rng.sample(db_a.table(table).rows, 2)
                    ours.delete(table, list(doomed))
                    gk.delete(table, list(doomed))
                ours.check_consistency()
                gk.check_consistency()
                assert frozenset(ours.view.rows()) == frozenset(gk.view.rows())

    def test_gk_options_disable_everything(self):
        from repro.baselines import griffin_kumar_options

        opts = griffin_kumar_options()
        assert not opts.left_deep
        assert not opts.use_foreign_keys
        assert opts.secondary_strategy == "base"

    def test_gk_classifies_more_terms_affected(self):
        """Without FK reasoning GK sees more affected terms on Example 1."""
        from ..conftest import make_example1_db, make_oj_view_defn

        db = make_example1_db()
        defn = make_oj_view_defn()
        view_gk = MaterializedView.materialize(defn, db)
        gk = GriffinKumarMaintainer(db, view_gk)
        report = gk.insert("part", [(900, "p", 1.0)])
        gk.check_consistency()
        # GK processes the {lineitem,orders,part} term too
        assert "{lineitem,orders,part}" in report.direct_terms

    def test_report_times_the_all_terms_deltas(self, monkeypatch):
        """GK's extra per-term work is on its own report's clock and
        inside its traced maintain span."""
        import time

        from repro.obs import Telemetry
        from repro.obs.tracing import InMemorySink

        db = make_v1_db(seed=0)
        gk = GriffinKumarMaintainer(db, MaterializedView.materialize(make_v1_defn(), db))
        gk.telemetry = Telemetry()
        sink = InMemorySink()
        gk.telemetry.tracer.add_sink(sink)
        monkeypatch.setattr(gk, "_evaluate_all_term_deltas", lambda *a: time.sleep(0.05))
        report = gk.insert("r", [(900, 1)])
        assert report.elapsed_seconds >= 0.05
        (root,) = [span for span in sink.spans if span.name == "maintain"]
        assert root.duration_seconds >= 0.05
