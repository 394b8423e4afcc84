"""Tests for ExecutionStats — the machine-independent cost meter — and
the Section 4.1 claim it makes measurable: left-deep delta trees touch
far fewer intermediate rows than bushy ones when ΔT is small."""


from repro.algebra import Q, eq, evaluate
from repro.algebra.evaluate import ExecutionStats
from repro.algebra.expr import delta_label
from repro.core.leftdeep import to_left_deep
from repro.core.primary import primary_delta_expression
from repro.engine import Table

from ..conftest import make_v1_db, make_v1_defn


class TestCounters:
    def test_records_per_operator(self, v1_db):
        stats = ExecutionStats()
        expr = (
            Q.table("r")
            .join("s", on=eq("r.v", "s.v"))
            .where(eq("r.v", 1))
            .build(validate=False)
        )
        evaluate(expr, v1_db, stats=stats)
        assert "join:inner" in stats.rows_by_operator
        assert "select" in stats.rows_by_operator
        assert stats.nodes_executed == 2

    def test_leaves_not_counted(self, v1_db):
        stats = ExecutionStats()
        evaluate(Q.table("r").expr, v1_db, stats=stats)
        assert stats.nodes_executed == 0
        assert stats.total_rows == 0

    def test_accumulates_across_calls(self, v1_db):
        stats = ExecutionStats()
        expr = Q.table("r").join("s", on=eq("r.v", "s.v")).build()
        evaluate(expr, v1_db, stats=stats)
        first = stats.total_rows
        evaluate(expr, v1_db, stats=stats)
        assert stats.total_rows == 2 * first

    def test_peak_intermediate(self, v1_db):
        stats = ExecutionStats()
        expr = Q.table("r").join("s", on=eq("r.v", "s.v")).build()
        evaluate(expr, v1_db, stats=stats)
        assert stats.peak_intermediate == stats.total_rows

    def test_summary_text(self, v1_db):
        stats = ExecutionStats()
        evaluate(
            Q.table("r").join("s", on=eq("r.v", "s.v")).build(),
            v1_db,
            stats=stats,
        )
        assert "join:inner=" in stats.summary()


class TestSection41Claim:
    def test_left_deep_touches_fewer_rows_than_bushy(self):
        """The paper's Figure 3 motivation, quantified: for a tiny ΔT the
        bushy tree evaluates R ⟗ S in full while the left-deep chain's
        intermediates stay delta-sized."""
        db = make_v1_db(seed=3, rows=200, values=40)
        defn = make_v1_defn()
        bushy = primary_delta_expression(defn.join_expr, "t")
        flat = to_left_deep(bushy, db)
        delta = Table(
            "t", db.table("t").schema, [(9999, 7)], key=db.table("t").key
        )
        bindings = {delta_label("t"): delta}

        bushy_stats = ExecutionStats()
        evaluate(bushy, db, bindings, stats=bushy_stats)
        flat_stats = ExecutionStats()
        evaluate(flat, db, bindings, stats=flat_stats)

        # bushy must at least materialize the R ⟗ S join (≥ max(R,S) rows)
        assert bushy_stats.peak_intermediate >= 200
        # left-deep intermediates are bounded by the delta's join fan-out
        assert flat_stats.peak_intermediate < 200
        assert flat_stats.total_rows < bushy_stats.total_rows / 5
