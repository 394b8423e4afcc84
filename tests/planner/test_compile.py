"""Unit tests for the physical plan compiler: compiled execution must
equal the interpreter on every operator shape, build-side selection must
not change results, and unsupported shapes must fail cleanly."""

import pytest

from repro.algebra import eq, evaluate
from repro.algebra.expr import (
    Bound,
    Distinct,
    FixUp,
    Join,
    NullIf,
    Project,
    Relation,
    Select,
    delta_label,
)
from repro.algebra.predicates import Comparison, IsNull, NotNull
from repro.core import ViewMaintainer, primary_delta_expression, to_left_deep
from repro.engine import Table, same_rows
from repro.engine import operators as ops
from repro.engine.index import HashIndex
from repro.engine.schema import Schema
from repro.planner import PlanCompileError, compile_plan

from ..conftest import make_v1_db, make_v1_defn


def assert_plan_matches_interpreter(expr, db, bindings=None, schemas=None):
    plan = compile_plan(expr, db, schemas)
    compiled = plan.execute(db, bindings)
    interpreted = evaluate(expr, db, bindings)
    assert tuple(compiled.schema.columns) == tuple(interpreted.schema.columns)
    assert same_rows(compiled, interpreted)
    return plan


class TestOperatorEquivalence:
    def test_scan(self, v1_db):
        assert_plan_matches_interpreter(Relation("r"), v1_db)

    def test_select_project_distinct(self, v1_db):
        expr = Distinct(
            Project(
                Select(Relation("r"), Comparison("r.v", ">=", 2)),
                ["r.v"],
            )
        )
        assert_plan_matches_interpreter(expr, v1_db)

    def test_all_join_kinds(self, v1_db):
        for kind in ("inner", "left", "right", "full"):
            expr = Join(kind, Relation("r"), Relation("s"), eq("r.v", "s.v"))
            assert_plan_matches_interpreter(expr, v1_db)

    def test_semi_and_anti(self, v1_db):
        for kind in ("semi", "anti"):
            expr = Join(kind, Relation("r"), Relation("s"), eq("r.v", "s.v"))
            assert_plan_matches_interpreter(expr, v1_db)

    def test_join_with_residual(self, v1_db):
        pred = Comparison("r.v", "=", "s.v") & Comparison("r.k", "<", "s.k")
        for kind in ("inner", "left", "full", "semi", "anti"):
            expr = Join(kind, Relation("r"), Relation("s"), pred)
            assert_plan_matches_interpreter(expr, v1_db)

    def test_nullif_and_fixup(self, v1_db):
        join = Join("left", Relation("r"), Relation("s"), eq("r.v", "s.v"))
        expr = FixUp(
            NullIf(join, IsNull("s.k"), ["s.v"]), ["r.k", "s.k"]
        )
        assert_plan_matches_interpreter(expr, v1_db)

    def test_bound_binding(self, v1_db):
        delta = Table("d", v1_db.table("r").schema, [(100, 3)])
        expr = Join(
            "inner", Bound(delta_label("r")), Relation("s"), eq("r.v", "s.v")
        )
        assert_plan_matches_interpreter(
            expr, v1_db, bindings={delta_label("r"): delta}
        )

    def test_full_view_expression(self, v1_db, v1_defn):
        assert_plan_matches_interpreter(v1_defn.join_expr, v1_db)

    def test_primary_delta_expression(self, v1_db, v1_defn):
        expr = to_left_deep(
            primary_delta_expression(v1_defn.join_expr, "s"), v1_db
        )
        delta = Table("d", v1_db.table("s").schema, [(200, 1), (201, None)])
        assert_plan_matches_interpreter(
            expr, v1_db, bindings={delta_label("s"): delta}
        )


class TestBuildSideSelection:
    """Which input is hashed follows from the inputs alone — a covering
    right-side index, else the smaller input — and never changes the rows."""

    EQUI = [("r.v", "s.v")]

    def _sides(self, db, small_rows=((500, 1), (501, 2))):
        """A delta smaller than ``s`` (so the left input is hashed) and a
        copy of ``s`` carrying an index (so it is probed, nothing hashed)."""
        big = db.table("s")
        small = Table("d", db.table("r").schema, list(small_rows))
        indexed = Table("s", big.schema, big.rows)
        indexed.indexes.append(HashIndex(indexed, ["s.v"]))
        assert ops._lookup(small, big, self.EQUI)[2] is True
        assert ops._lookup(small, indexed, self.EQUI)[2] is False
        return small, big, indexed

    def test_build_left_equals_default(self, v1_db):
        small, big, indexed = self._sides(v1_db)
        for kind in ("inner", "left", "right", "full", "semi", "anti"):
            built_left = ops.join(small, big, kind, equi=self.EQUI)
            probed = ops.join(small, indexed, kind, equi=self.EQUI)
            assert same_rows(built_left, probed), kind

    def test_build_left_with_residual(self, v1_db):
        small, big, indexed = self._sides(v1_db)
        def residual(row):
            return row[0] is not None and row[0] % 2 == 0
        for kind in ("inner", "left", "full", "semi", "anti"):
            built_left = ops.join(
                small, big, kind, equi=self.EQUI, residual=residual
            )
            probed = ops.join(
                small, indexed, kind, equi=self.EQUI, residual=residual
            )
            assert same_rows(built_left, probed), kind

    def test_build_left_with_null_keys(self, v1_db):
        small, big, indexed = self._sides(v1_db, [(500, None), (501, 2)])
        for kind in ("left", "full", "anti"):
            built_left = ops.join(small, big, kind, equi=self.EQUI)
            probed = ops.join(small, indexed, kind, equi=self.EQUI)
            assert same_rows(built_left, probed), kind

    def test_choose_build_prefers_index(self, v1_db):
        index = v1_db.create_index("s", ["v"])
        buckets, __, swap, single = ops._lookup(
            v1_db.table("r"), v1_db.table("s"), self.EQUI
        )
        assert buckets is index.buckets and not swap  # probed, not built
        assert not single  # s.v is not s's key

    def test_choose_build_probes_the_key_index(self, v1_db):
        """A join on the right input's key probes its key index — one
        position per key — even when the left input is the smaller one."""
        tiny = Table("d", v1_db.table("r").schema, [(1, 1), (99, 2)])
        s = v1_db.table("s")
        buckets, __, swap, single = ops._lookup(tiny, s, [("r.k", "s.k")])
        assert buckets is s.indexes[0].buckets and not swap and single
        for kind in ("inner", "left", "right", "full", "semi", "anti"):
            probed = ops.join(tiny, s, kind, equi=[("r.k", "s.k")])
            built = ops.join(tiny, Table("s", s.schema, s.rows), kind, equi=[("r.k", "s.k")])
            assert same_rows(probed, built), kind

    def test_choose_build_hashes_smaller_left(self, v1_db):
        tiny = Table("d", v1_db.table("r").schema, [(1, 1)])
        big = v1_db.table("s")
        assert ops._lookup(tiny, big, self.EQUI)[2] is True
        assert ops._lookup(big, tiny, [("s.v", "r.v")])[2] is False
        # a compiled join leaves the choice to the same kernel
        expr = Join("inner", Relation("r"), Relation("s"), eq("r.v", "s.v"))
        assert_plan_matches_interpreter(expr, v1_db)


class TestFailureModes:
    def test_unknown_binding_schema(self, v1_db):
        with pytest.raises(PlanCompileError, match="unknown binding"):
            compile_plan(Bound("mystery"), v1_db)

    def test_missing_binding_at_execute(self, v1_db):
        plan = compile_plan(Bound(delta_label("r")), v1_db)
        with pytest.raises(PlanCompileError, match="no binding"):
            plan.execute(v1_db, {})

    def test_binding_schema_mismatch_at_execute(self, v1_db):
        plan = compile_plan(Bound(delta_label("r")), v1_db)
        wrong = Table("d", Schema(["x.a", "x.b", "x.c"]), [])
        with pytest.raises(PlanCompileError, match="compiled for"):
            plan.execute(v1_db, {delta_label("r"): wrong})

    def test_explain_lists_physical_nodes(self, v1_db):
        expr = Select(
            Join("left", Relation("r"), Relation("s"), eq("r.v", "s.v")),
            NotNull("s.k"),
        )
        plan = compile_plan(expr, v1_db)
        text = plan.explain()
        assert "select" in text
        assert "join:left" in text
        assert "scan r" in text
        assert plan.node_count == 4


class TestMaintainerIntegration:
    def test_compiled_maintenance_matches_recompute(self):
        db = make_v1_db(seed=11)
        defn = make_v1_defn()
        from repro.core import MaterializedView

        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)  # plan cache on by default
        m.insert("r", [(100, 2), (101, None)])
        m.delete("s", db.table("s").rows[:2])
        m.insert("t", [(100, 4)])
        m.check_consistency()
        assert m.plan_cache.hits + m.plan_cache.misses > 0
