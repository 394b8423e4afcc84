"""The paper's figures and worked examples, asserted as exactly as the
text allows.  Each test cites the structure it reproduces.

Figure 5 / Table 1 (the evaluation) are the experiment table of
``repro.bench``, checked in tests/integration/test_bench_module.py.
"""


from repro.algebra import Q, eq, evaluate, normal_form
from repro.algebra.expr import (
    Bound,
    FULL,
    INNER,
    Join,
    LEFT,
    delta_label,
)
from repro.algebra.subsumption import SubsumptionGraph
from repro.core import (
    MaintenanceGraph,
    MaterializedView,
    ViewMaintainer,
    primary_delta_expression,
    to_left_deep,
    vd_expression,
)
from repro.engine import Database, same_rows

from ..conftest import make_example1_db, make_oj_view_defn


class TestFigure1:
    """Subsumption graph (a) and maintenance graph for update T (b)."""

    def test_subsumption_nodes(self, v1_db, v1_defn):
        graph = SubsumptionGraph(normal_form(v1_defn.join_expr, v1_db))
        assert {t.label() for t in graph.terms} == {
            "{r,s,t,u}",
            "{r,s,t}",
            "{r,t,u}",
            "{r,s}",
            "{r,t}",
            "{r}",
            "{s}",
        }

    def test_maintenance_graph_markers(self, v1_db, v1_defn):
        graph = SubsumptionGraph(normal_form(v1_defn.join_expr, v1_db))
        mg = MaintenanceGraph(graph, "t", v1_db)
        rendered = set(mg.pretty().splitlines())
        assert rendered == {
            "{r,s,t,u}D",
            "{r,s,t}D",
            "{r,t,u}D",
            "{r,t}D",
            "{r,s}I",
            "{r}I",
        }


class TestFigure2:
    """Transforming V1 to ΔV1^D (Example 3, equations (2)–(4))."""

    def test_2b_commuted_then_2c_converted(self, v1_defn):
        vd = vd_expression(v1_defn.join_expr, "t")
        # (c): (T ⟕_{p(t,u)} U) ⋈_{p(r,t)} (R ⟗_{p(r,s)} S)
        assert isinstance(vd, Join) and vd.kind == INNER
        assert vd.pred == eq("r.v", "t.v")
        assert vd.left.kind == LEFT
        assert vd.left.pred == eq("t.v", "u.v")
        assert vd.right.kind == FULL
        assert vd.right.pred == eq("r.v", "s.v")

    def test_2d_substitution(self, v1_defn):
        delta = primary_delta_expression(v1_defn.join_expr, "t")
        leaf = delta.left.left
        assert isinstance(leaf, Bound)
        assert leaf.label == delta_label("t")


class TestFigure3:
    """Bushy (a) → left-deep (b) conversion: equation (6)."""

    def test_left_deep_join_order(self, v1_db, v1_defn):
        flat = to_left_deep(
            primary_delta_expression(v1_defn.join_expr, "t"), v1_db
        )
        # ((ΔT ⟕ U) ⋈ R) ⟕ S
        assert isinstance(flat, Join) and flat.kind == LEFT
        assert flat.right.name == "s"
        mid = flat.left
        assert mid.kind == INNER and mid.right.name == "r"
        bottom = mid.left
        assert bottom.kind == LEFT and bottom.right.name == "u"
        assert bottom.left.label == delta_label("t")

    def test_both_trees_equivalent(self, v1_db, v1_defn):
        bushy = primary_delta_expression(v1_defn.join_expr, "t")
        flat = to_left_deep(bushy, v1_db)
        bindings = {delta_label("t"): v1_db.table("t")}
        assert same_rows(
            evaluate(bushy, v1_db, bindings),
            evaluate(flat, v1_db, bindings),
        )


class TestFigure4:
    """V2 maintenance graphs for updates of O — original and reduced."""

    def _db(self):
        db = Database()
        db.create_table("c", ["ck", "v"], key=["ck"])
        db.create_table("o", ["ok", "ck", "v"], key=["ok"], not_null=["ck"])
        db.create_table("l", ["lk", "ok", "v"], key=["lk"], not_null=["ok"])
        db.add_foreign_key("l", ["ok"], "o", ["ok"])
        expr = (
            Q.table("c")
            .full_outer_join(
                Q.table("o").full_outer_join("l", on=eq("o.ok", "l.ok")),
                on=eq("c.ck", "o.ck"),
            )
            .build()
        )
        return db, expr

    def test_4a_original(self):
        db, expr = self._db()
        graph = SubsumptionGraph(normal_form(expr, db, use_foreign_keys=False))
        mg = MaintenanceGraph(graph, "o", db, use_foreign_keys=False)
        assert set(mg.pretty().splitlines()) == {
            "{c,l,o}D",
            "{c,o}D",
            "{l,o}D",
            "{o}D",
            "{c}I",
            "{l}I",
        }

    def test_4b_reduced(self):
        db, expr = self._db()
        graph = SubsumptionGraph(normal_form(expr, db, use_foreign_keys=False))
        mg = MaintenanceGraph(graph, "o", db, use_foreign_keys=True)
        assert set(mg.pretty().splitlines()) == {"{c,o}D", "{o}D", "{c}I"}


class TestIntroductionStatements:
    """The maintenance statements of Section 1, behaviourally."""

    def test_part_insert_is_pure_insert(self):
        db = make_example1_db()
        view = MaterializedView.materialize(make_oj_view_defn(), db)
        m = ViewMaintainer(db, view)
        report = m.insert("part", [(500, "p500", 1.0)])
        assert report.primary_rows == 1
        assert report.secondary_rows == {}
        m.check_consistency()
        # the inserted row is null-extended on orders and lineitem
        row = next(
            r
            for r in view.rows()
            if r[view.schema.index_of("part.p_partkey")] == 500
        )
        assert row[view.schema.index_of("orders.o_orderkey")] is None
        assert row[view.schema.index_of("lineitem.l_linenumber")] is None

    def test_lineitem_insert_deletes_both_orphans(self):
        """The Gupta–Mumick counterexample (Section 8): one new lineitem
        can de-orphan BOTH a part and an order; the view must lose both
        orphan rows."""
        db = make_example1_db()
        view = MaterializedView.materialize(make_oj_view_defn(), db)
        m = ViewMaintainer(db, view)
        ok = view.schema.index_of("orders.o_orderkey")
        pk = view.schema.index_of("part.p_partkey")
        ln = view.schema.index_of("lineitem.l_linenumber")
        # order 25 is childless, part 15 unordered (fixture construction)
        assert any(
            r[ok] == 25 and r[ln] is None for r in view.rows()
        )
        assert any(
            r[pk] == 15 and r[ln] is None for r in view.rows()
        )
        report = m.insert("lineitem", [(25, 0, 15, 9)])
        m.check_consistency()
        assert report.primary_rows == 1
        assert sum(report.secondary_rows.values()) == 2  # both orphans
        assert not any(r[ok] == 25 and r[ln] is None for r in view.rows())
        assert not any(r[pk] == 15 and r[ln] is None for r in view.rows())
