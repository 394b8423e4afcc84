"""End-to-end tests for the ViewMaintainer orchestration (Section 3.2)."""

import random
from dataclasses import fields

import pytest

from repro.core import (
    MaintenanceOptions,
    MaterializedView,
    SECONDARY_FROM_BASE,
    SECONDARY_FROM_VIEW,
    ViewMaintainer,
)
from repro.engine import Database
from repro.algebra import Q, eq
from repro.core.view import ViewDefinition
from repro.errors import ConstraintError, MaintenanceError, SchemaError

from ..conftest import (
    make_example1_db,
    make_oj_view_defn,
    make_v1_db,
    make_v1_defn,
)


def fresh(seed=1, options=None):
    db = make_v1_db(seed=seed)
    defn = make_v1_defn()
    view = MaterializedView.materialize(defn, db)
    return db, ViewMaintainer(db, view, options)


class TestInsertDelete:
    @pytest.mark.parametrize("table", ["r", "s", "t", "u"])
    def test_insert_consistency(self, table):
        db, m = fresh()
        m.insert(table, [(300, 2), (301, 3)])
        m.check_consistency()

    @pytest.mark.parametrize("table", ["r", "s", "t", "u"])
    def test_delete_consistency(self, table):
        db, m = fresh()
        rng = random.Random(0)
        m.delete(table, rng.sample(db.table(table).rows, 5))
        m.check_consistency()

    def test_insert_then_delete_roundtrip(self):
        db, m = fresh()
        before = frozenset(m.view.rows())
        rows = [(400, 1), (401, 2)]
        m.insert("t", rows)
        m.delete("t", rows)
        assert frozenset(m.view.rows()) == before

    def test_mixed_sequence(self):
        db, m = fresh(seed=5)
        rng = random.Random(5)
        for step in range(12):
            table = rng.choice("rstu")
            if rng.random() < 0.5:
                m.insert(
                    table, [(1000 + step * 10 + j, rng.randint(0, 5)) for j in range(2)]
                )
            else:
                doomed = rng.sample(db.table(table).rows, min(2, len(db.table(table).rows)))
                m.delete(table, doomed)
            m.check_consistency()

    def test_update_as_delete_insert(self):
        db, m = fresh()
        old = db.table("t").rows[0]
        new = (old[0], (old[1] or 0) + 1)
        reports = m.update("t", [old], [new])
        assert reports[0].operation == "delete"
        assert reports[1].operation == "insert"
        m.check_consistency()

    def test_update_disables_fk_optimizations(self):
        """Caveat 1 of Section 6: updates modelled as delete+insert must
        not use the FK shortcuts.  Verified on Example 1: an UPDATE of a
        part row must still be maintained correctly."""
        db = make_example1_db()
        defn = make_oj_view_defn()
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        part = db.table("part").rows[0]
        new = (part[0], part[1], part[2] + 1.0)
        m.update("part", [part], [new])
        m.check_consistency()

    @pytest.mark.parametrize(
        "new, error",
        [
            ((0, 0, 3), SchemaError),  # a 4-column table
            ((99, 0, 3, 1), ConstraintError),  # no order 99
            ((0, 0, None, 1), ConstraintError),  # NULL l_partkey
        ],
        ids=["arity", "foreign-key", "not-null"],
    )
    def test_update_checks_its_insert_and_undoes_its_delete(self, new, error):
        """The new row is checked like any insert; when it fails, the
        delete already applied is put back, in the table and the view."""
        db = make_example1_db()
        m = ViewMaintainer(db, MaterializedView.materialize(make_oj_view_defn(), db))
        old = next(r for r in db.table("lineitem").rows if r[:2] == (0, 0))
        tables = {name: set(t.rows) for name, t in db.tables.items()}
        view = set(m.rows())
        with pytest.raises(error):
            m.update("lineitem", [old], [new])
        assert {name: set(t.rows) for name, t in db.tables.items()} == tables
        assert set(m.rows()) == view
        m.check_consistency()


class TestReports:
    def test_report_counts(self):
        db, m = fresh()
        report = m.insert("t", [(900, 1)])
        assert report.base_rows == 1
        assert report.view == "v1"
        assert report.table == "t"
        assert set(report.direct_terms) == {
            "{r,s,t,u}",
            "{r,s,t}",
            "{r,t,u}",
            "{r,t}",
        }
        assert set(report.indirect_terms) == {"{r,s}", "{r}"}
        assert report.elapsed_seconds >= 0
        assert "primary" in report.summary()

    def test_untouched_table_is_noop(self, v1_db):
        defn = ViewDefinition(
            "small",
            Q.table("r").join("s", on=eq("r.v", "s.v")).build(),
        )
        view = MaterializedView.materialize(defn, v1_db)
        m = ViewMaintainer(v1_db, view)
        report = m.insert("t", [(999, 0)])
        assert report.total_view_changes == 0

    def test_empty_delta_is_noop(self):
        db, m = fresh()
        report = m.insert("t", [])
        assert report.total_view_changes == 0


class TestSecondaryOrdering:
    """Regression for the parents-first refinement: a deletion that
    orphans both an RS row and (transitively) would consider R must not
    insert a subsumed R-only row."""

    def _build(self):
        db = Database()
        for name in "rst":
            db.create_table(name, ["k", "v"], key=["k"])
        # r1 joins s1 (v=1); t1 joins r1; deleting t1 orphans (r1,s1).
        db.insert("r", [(1, 1)])
        db.insert("s", [(1, 1)])
        db.insert("t", [(1, 1)])
        defn = ViewDefinition(
            "w",
            Q.table("r")
            .full_outer_join("s", on=eq("r.v", "s.v"))
            .left_outer_join("t", on=eq("r.v", "t.v"))
            .build(),
        )
        view = MaterializedView.materialize(defn, db)
        return db, defn, view

    def test_delete_from_view_strategy(self):
        db, defn, view = self._build()
        m = ViewMaintainer(
            db, view, MaintenanceOptions(secondary_strategy=SECONDARY_FROM_VIEW)
        )
        m.delete("t", [(1, 1)])
        m.check_consistency()
        # exactly one row: (r1, s1, null) — no subsumed r-only row
        assert len(view) == 1

    def test_delete_from_base_strategy(self):
        db, defn, view = self._build()
        m = ViewMaintainer(
            db, view, MaintenanceOptions(secondary_strategy=SECONDARY_FROM_BASE)
        )
        m.delete("t", [(1, 1)])
        m.check_consistency()
        assert len(view) == 1

    def test_insert_reverses_it(self):
        db, defn, view = self._build()
        m = ViewMaintainer(db, view)
        m.delete("t", [(1, 1)])
        m.insert("t", [(1, 1)])
        m.check_consistency()
        assert len(view) == 1  # back to (r1, s1, t1)


class TestCompiledPlanCache:
    def test_delta_expression_cached(self):
        db, m = fresh()
        first = m.delta_expression("t", True)
        second = m.delta_expression("t", True)
        assert first is second

    def test_fk_and_nonfk_plans_differ_when_fk_applies(self):
        db = make_example1_db()
        defn = make_oj_view_defn()
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        with_fk = m.delta_expression("part", True)
        without_fk = m.delta_expression("part", False)
        assert with_fk is not without_fk

    def test_subsumption_graph_cached(self):
        db, m = fresh()
        assert m.graph is m.graph


class TestOptions:
    def test_fields_are_the_papers_switches(self):
        assert [f.name for f in fields(MaintenanceOptions)] == [
            "left_deep", "use_foreign_keys", "secondary_strategy",
            "count_term_rows",
        ]

    @pytest.mark.parametrize("strategy", ["bogus", "combined"])
    def test_unknown_strategy_rejected(self, strategy):
        with pytest.raises(ValueError, match="'view', 'base', 'auto'"):
            MaintenanceOptions(secondary_strategy=strategy)

    def test_use_foreign_keys_drives_all_three_mechanisms(self):
        db = make_example1_db()
        defn = make_oj_view_defn()
        on, off = (
            ViewMaintainer(
                db, MaterializedView.materialize(defn, db),
                MaintenanceOptions(use_foreign_keys=flag),
            )
            for flag in (True, False)
        )
        assert len(on.graph.terms) < len(off.graph.terms)  # normal form

        def direct(m, fk_allowed):
            return len(m.maintenance_graph("part", fk_allowed).directly_affected)

        # Theorem 3 reduction and SimplifyTree also need the change's
        # fk_allowed (an update turns it off)
        assert direct(on, True) < direct(on, False)
        assert direct(off, True) == direct(off, False)
        assert on.delta_expression("part", True).base_tables() == {"part"}
        assert on.delta_expression("part", False).base_tables() != {"part"}
        assert off.delta_expression("part", True).base_tables() != {"part"}


class TestStrictApplication:
    def test_corrupted_view_detected_on_maintenance(self):
        db, m = fresh()
        # sabotage: remove one row behind the maintainer's back, then
        # delete base rows that produce that view row
        victim = None
        tk = m.view.schema.index_of("t.k")
        for row in m.view.rows():
            if row[tk] is not None:
                victim = row
                break
        m.view.delete_rows([victim])
        with pytest.raises(MaintenanceError):
            m.delete("t", [r for r in db.table("t").rows if r[0] == victim[tk]])

    def test_check_consistency_reports_divergence(self):
        db, m = fresh()
        m.view.delete_rows(m.view.rows()[:1])
        with pytest.raises(MaintenanceError, match="diverged"):
            m.check_consistency()


class TestOutputProjection:
    def test_projected_view_maintained(self):
        db = make_v1_db()
        from repro.algebra.expr import Project

        defn = make_v1_defn()
        cols = ["r.k", "s.k", "t.k", "u.k", "t.v"]
        projected = ViewDefinition("vp", Project(defn.join_expr, cols))
        view = MaterializedView.materialize(projected, db)
        m = ViewMaintainer(db, view)
        m.insert("t", [(300, 1), (301, 2)])
        m.check_consistency()
        m.delete("t", db.table("t").rows[:3])
        m.check_consistency()
        assert view.schema.columns == tuple(cols)
