"""Edge cases for the maintenance pipeline: composite keys, multi-column
foreign keys, deep join chains, star schemas, empty tables, degenerate
views."""

import random


from repro.algebra import Q, eq
from repro.algebra.predicates import Comparison, conjoin
from repro.core import (
    MaintenanceOptions,
    MaterializedView,
    SECONDARY_AUTO,
    SECONDARY_FROM_BASE,
    SECONDARY_FROM_VIEW,
    ViewDefinition,
    ViewMaintainer,
)
from repro.engine import Database


class TestCompositeKeys:
    def _db(self):
        db = Database()
        db.create_table("a", ["k1", "k2", "v"], key=["k1", "k2"])
        db.create_table(
            "b", ["k", "fk1", "fk2", "v"], key=["k"],
            not_null=["fk1", "fk2"],
        )
        db.add_foreign_key("b", ["fk1", "fk2"], "a", ["k1", "k2"])
        db.insert("a", [(1, 1, 10), (1, 2, 20), (2, 1, 30)])
        db.insert("b", [(100, 1, 1, 10), (101, 1, 2, 99)])
        return db

    def _defn(self):
        pred = conjoin([eq("b.fk1", "a.k1"), eq("b.fk2", "a.k2")])
        return ViewDefinition(
            "ck", Q.table("a").left_outer_join("b", on=pred).build()
        )

    def test_view_key_includes_all_parts(self):
        db = self._db()
        defn = self._defn()
        assert defn.key_columns(db) == ("a.k1", "a.k2", "b.k")

    def test_maintenance_on_composite_fk(self):
        db = self._db()
        view = MaterializedView.materialize(self._defn(), db)
        m = ViewMaintainer(db, view)
        m.insert("b", [(102, 2, 1, 7)])
        m.check_consistency()
        m.delete("b", [(102, 2, 1, 7)])
        m.check_consistency()

    def test_fk_shortcut_on_composite_key(self):
        """Inserting into `a` cannot join existing `b` rows — the
        composite FK must short-circuit exactly like a simple one."""
        db = self._db()
        view = MaterializedView.materialize(self._defn(), db)
        m = ViewMaintainer(db, view)
        report = m.insert("a", [(5, 5, 50)])
        m.check_consistency()
        assert report.primary_rows == 1
        assert report.secondary_rows == {}
        expr = m.delta_expression("a", True)
        assert expr.base_tables() == {"a"}  # b join eliminated


class TestDeepChains:
    def _build(self, n=6, kind="left"):
        db = Database()
        names = [f"t{i}" for i in range(n)]
        rng = random.Random(4)
        for name in names:
            db.create_table(name, ["k", "v"], key=["k"])
            db.insert(
                name, [(i, rng.randint(0, 3)) for i in range(8)]
            )
        q = Q.table(names[0])
        for prev, name in zip(names, names[1:]):
            pred = eq(f"{prev}.v", f"{name}.v")
            if kind == "left":
                q = q.left_outer_join(name, on=pred)
            else:
                q = q.full_outer_join(name, on=pred)
        return db, ViewDefinition("deep", q.build())

    def test_six_table_left_chain(self):
        db, defn = self._build(6, "left")
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        for table in sorted(defn.tables):
            m.insert(table, [(100 + ord(table[-1]), 1)])
            m.check_consistency()

    def test_five_table_full_chain_term_count(self):
        db, defn = self._build(5, "full")
        terms = defn.normal_form(db)
        # chain of 4 ⟗: contiguous ranges + singletons = 10+5 = 15 terms
        assert len(terms) == 15

    def test_five_table_full_chain_maintenance(self):
        db, defn = self._build(5, "full")
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        rng = random.Random(9)
        for table in sorted(defn.tables):
            m.insert(table, [(200 + rng.randint(0, 99), rng.randint(0, 3))])
            m.check_consistency()
        for table in sorted(defn.tables):
            m.delete(table, rng.sample(db.table(table).rows, 2))
            m.check_consistency()

    def test_every_strategy_on_many_indirect_terms(self):
        for strategy in (SECONDARY_FROM_VIEW, SECONDARY_FROM_BASE, SECONDARY_AUTO):
            db, defn = self._build(5, "full")
            view = MaterializedView.materialize(defn, db)
            m = ViewMaintainer(
                db, view, MaintenanceOptions(secondary_strategy=strategy)
            )
            rng = random.Random(10)
            report = m.delete("t2", rng.sample(db.table("t2").rows, 3))
            assert len(report.indirect_terms) >= 4, strategy
            m.check_consistency()
            m.insert("t2", [(100, 1), (101, 2)])
            m.check_consistency()


class TestStarSchema:
    def _build(self):
        db = Database()
        db.create_table("fact", ["k", "d1", "d2", "d3", "m"], key=["k"],
                        not_null=["d1", "d2", "d3"])
        for i in (1, 2, 3):
            db.create_table(f"dim{i}", ["k", "attr"], key=["k"])
            db.insert(f"dim{i}", [(j, f"d{i}a{j}") for j in range(5)])
            db.add_foreign_key("fact", [f"d{i}"], f"dim{i}", ["k"])
        rng = random.Random(2)
        db.insert(
            "fact",
            [
                (k, rng.randrange(5), rng.randrange(5), rng.randrange(5), k * 10)
                for k in range(20)
            ],
        )
        q = Q.table("fact")
        for i in (1, 2, 3):
            q = q.left_outer_join(f"dim{i}", on=eq(f"fact.d{i}", f"dim{i}.k"))
        return db, ViewDefinition("star", q.build())

    def test_fk_collapses_to_single_term(self):
        db, defn = self._build()
        terms = defn.normal_form(db)
        assert len(terms) == 1  # every preserved term pruned by FKs

    def test_fact_maintenance_is_pure_primary(self):
        db, defn = self._build()
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        report = m.insert("fact", [(100, 0, 1, 2, 1000)])
        m.check_consistency()
        assert report.secondary_rows == {}

    def test_dimension_insert_is_noop(self):
        db, defn = self._build()
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        report = m.insert("dim1", [(99, "fresh")])
        m.check_consistency()
        assert report.total_view_changes == 0


class TestDegenerateInputs:
    def test_empty_base_tables(self):
        db = Database()
        db.create_table("a", ["k", "v"], key=["k"])
        db.create_table("b", ["k", "v"], key=["k"])
        defn = ViewDefinition(
            "e", Q.table("a").full_outer_join("b", on=eq("a.v", "b.v")).build()
        )
        view = MaterializedView.materialize(defn, db)
        assert len(view) == 0
        m = ViewMaintainer(db, view)
        m.insert("a", [(1, 1)])
        m.check_consistency()
        assert len(view) == 1

    def test_first_and_last_row_lifecycle(self):
        db = Database()
        db.create_table("a", ["k", "v"], key=["k"])
        db.create_table("b", ["k", "v"], key=["k"])
        defn = ViewDefinition(
            "e", Q.table("a").full_outer_join("b", on=eq("a.v", "b.v")).build()
        )
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        m.insert("a", [(1, 1)])
        m.insert("b", [(1, 1)])
        m.check_consistency()
        assert len(view) == 1  # joined row replaced both orphans
        m.delete("a", [(1, 1)])
        m.check_consistency()
        assert len(view) == 1  # back to a b-orphan
        m.delete("b", [(1, 1)])
        m.check_consistency()
        assert len(view) == 0

    def test_null_join_values_never_match(self):
        db = Database()
        db.create_table("a", ["k", "v"], key=["k"])
        db.create_table("b", ["k", "v"], key=["k"])
        db.insert("a", [(1, None)])
        db.insert("b", [(1, None)])
        defn = ViewDefinition(
            "n", Q.table("a").full_outer_join("b", on=eq("a.v", "b.v")).build()
        )
        view = MaterializedView.materialize(defn, db)
        assert len(view) == 2  # two orphans; NULL ≠ NULL
        m = ViewMaintainer(db, view)
        m.insert("a", [(2, None)])
        m.check_consistency()
        assert len(view) == 3

    def test_selection_on_top_of_view(self):
        db = Database()
        db.create_table("a", ["k", "v"], key=["k"])
        db.create_table("b", ["k", "v"], key=["k"])
        db.insert("a", [(i, i % 3) for i in range(9)])
        db.insert("b", [(i, i % 3) for i in range(6)])
        defn = ViewDefinition(
            "s",
            Q.table("a")
            .left_outer_join("b", on=eq("a.v", "b.v"))
            .where(Comparison("a.v", ">=", 1))
            .build(),
        )
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        m.insert("a", [(100, 0)])  # filtered out by the selection
        m.check_consistency()
        m.insert("a", [(101, 2)])
        m.check_consistency()
        m.delete("b", db.table("b").rows[:3])
        m.check_consistency()

    def test_repeated_update_churn(self):
        db = Database()
        db.create_table("a", ["k", "v"], key=["k"])
        db.create_table("b", ["k", "v"], key=["k"])
        db.insert("a", [(1, 1)])
        db.insert("b", [(1, 1)])
        defn = ViewDefinition(
            "u", Q.table("a").full_outer_join("b", on=eq("a.v", "b.v")).build()
        )
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        for value in (2, 1, 3, 1):
            m.update("a", [db.table("a").rows[0]], [(1, value)])
            m.check_consistency()

    def test_from_base_strategy_with_no_rk_tables(self):
        """Parents whose extra table set Rₖ is empty exercise the
        degenerate E'ₖ = σ_q(T) T± branch of Section 5.3."""
        db = Database()
        db.create_table("a", ["k", "v"], key=["k"])
        db.create_table("b", ["k", "v"], key=["k"])
        db.insert("a", [(1, 1), (2, 2)])
        db.insert("b", [(1, 1), (3, 3)])
        defn = ViewDefinition(
            "d", Q.table("a").full_outer_join("b", on=eq("a.v", "b.v")).build()
        )
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(
            db, view, MaintenanceOptions(secondary_strategy=SECONDARY_FROM_BASE)
        )
        m.insert("a", [(4, 3)])  # de-orphans b=3
        m.check_consistency()
        m.delete("a", [(4, 3)])  # re-orphans it
        m.check_consistency()


class TestSingleTableViews:
    """Degenerate SPOJ views with one base table: the maintenance
    procedure must reduce to plain SPJ delta application."""

    def _build(self):
        db = Database()
        db.create_table("a", ["k", "v"], key=["k"])
        db.insert("a", [(i, i % 4) for i in range(10)])
        defn = ViewDefinition(
            "one",
            Q.table("a").where(Comparison("a.v", ">=", 1)).build(),
        )
        view = MaterializedView.materialize(defn, db)
        return db, defn, view

    def test_single_term(self):
        db, defn, view = self._build()
        terms = defn.normal_form(db)
        assert [t.label() for t in terms] == ["{a}"]

    def test_insert_respects_selection(self):
        db, defn, view = self._build()
        m = ViewMaintainer(db, view)
        report = m.insert("a", [(100, 0), (101, 2)])
        m.check_consistency()
        assert report.primary_rows == 1  # (100, 0) filtered out

    def test_delete(self):
        db, defn, view = self._build()
        m = ViewMaintainer(db, view)
        m.delete("a", [(1, 1), (4, 0)])
        m.check_consistency()

    def test_no_secondary_terms(self):
        db, defn, view = self._build()
        m = ViewMaintainer(db, view)
        report = m.insert("a", [(102, 3)])
        assert report.secondary_rows == {}
