"""Unit tests for aggregated outer-join views (Section 3.3)."""

import random

import pytest

from repro.algebra import Project, Q, eq
from repro.core import (
    AggregatedView,
    ViewDefinition,
    agg_avg,
    agg_sum,
    count_col,
    count_star,
)
from repro.engine import Database
from repro.errors import SchemaError, UnsupportedViewError

from ..conftest import make_v1_db, make_v1_defn


def order_lines_db():
    db = Database()
    db.create_table("o", ["ok", "cust"], key=["ok"])
    db.create_table(
        "l", ["lk", "ok", "qty"], key=["lk"], not_null=["ok"]
    )
    db.add_foreign_key("l", ["ok"], "o", ["ok"])
    db.insert("o", [(1, "a"), (2, "b"), (3, "a")])
    db.insert("l", [(10, 1, 5), (11, 1, 7), (12, 2, 1)])
    return db


def order_lines_defn():
    return ViewDefinition(
        "ol",
        Q.table("o").left_outer_join("l", on=eq("l.ok", "o.ok")).build(),
    )


def make_agg(db):
    return AggregatedView(
        order_lines_defn(),
        group_by=["o.cust"],
        aggregates=[
            count_star("rows"),
            count_col("l.lk", "lines"),
            agg_sum("l.qty", "total_qty"),
            agg_avg("l.qty", "avg_qty"),
        ],
        db=db,
    )


class TestInitialAggregation:
    def test_initial_groups(self):
        db = order_lines_db()
        agg = make_agg(db)
        rows = dict((r[0], r[1:]) for r in agg.rows())
        # customer a: orders 1 (2 lines) + 3 (0 lines → null-extended row)
        assert rows["a"] == (3, 2, 12, 6.0)
        assert rows["b"] == (1, 1, 1, 1.0)

    def test_null_extended_row_counts_in_row_count_only(self):
        db = order_lines_db()
        agg = make_agg(db)
        # order 3 contributes row_count but not lines/total
        assert agg.notnull_count(("a",), "l") == 2

    def test_nullable_tables_detected(self):
        db = order_lines_db()
        agg = make_agg(db)
        assert agg.nullable_tables == ("l",)

    def test_min_max_rejected(self):
        from repro.core.aggregate import Aggregate

        with pytest.raises(UnsupportedViewError):
            Aggregate("min", "m", "l.qty")

    def test_sum_requires_column(self):
        from repro.core.aggregate import Aggregate

        with pytest.raises(UnsupportedViewError):
            Aggregate("sum", "s")

    def test_columns_must_be_view_outputs(self):
        """The groups are folded from the view's own rows, so a column the
        view projects away cannot be grouped or aggregated."""
        db = order_lines_db()
        projected = ViewDefinition(
            "ol", Project(order_lines_defn().join_expr, ["o.ok", "l.lk", "l.qty"])
        )
        with pytest.raises(SchemaError):
            AggregatedView(projected, ["o.cust"], [count_star("n")], db)
        with pytest.raises(SchemaError):
            AggregatedView(projected, ["o.ok"], [agg_sum("o.cust", "s")], db)
        AggregatedView(projected, ["o.ok"], [agg_sum("l.qty", "s")], db).check_consistency()


class TestMaintenance:
    def test_insert_lineitem_merges(self):
        db = order_lines_db()
        agg = make_agg(db)
        agg.insert("l", [(13, 3, 4)])  # first line of order 3 (cust a)
        agg.check_consistency()
        rows = dict((r[0], r[1:]) for r in agg.rows())
        # the null-extended order-3 row is replaced by a joined one:
        # row_count stays 3, lines 3, total 16
        assert rows["a"] == (3, 3, 16, 16 / 3)

    def test_delete_lineitem_restores_null_extension(self):
        db = order_lines_db()
        agg = make_agg(db)
        agg.insert("l", [(13, 3, 4)])
        agg.delete("l", [(13, 3, 4)])
        agg.check_consistency()
        rows = dict((r[0], r[1:]) for r in agg.rows())
        assert rows["a"] == (3, 2, 12, 6.0)

    def test_sum_goes_null_when_last_line_leaves(self):
        """The paper's rule: when the not-null count for table L reaches
        zero, aggregates over L's columns become NULL (not 0)."""
        db = order_lines_db()
        agg = make_agg(db)
        agg.delete("l", [(12, 2, 1)])
        agg.check_consistency()
        rows = dict((r[0], r[1:]) for r in agg.rows())
        assert rows["b"] == (1, 0, None, None)
        assert agg.notnull_count(("b",), "l") == 0

    def test_group_disappears_at_zero_rows(self):
        db = order_lines_db()
        agg = make_agg(db)
        agg.delete("l", [(12, 2, 1)])
        agg.delete("o", [(2, "b")])
        agg.check_consistency()
        assert "b" not in {r[0] for r in agg.rows()}

    def test_new_group_appears(self):
        db = order_lines_db()
        agg = make_agg(db)
        agg.insert("o", [(4, "c")])
        agg.check_consistency()
        rows = dict((r[0], r[1:]) for r in agg.rows())
        assert rows["c"] == (1, 0, None, None)

    def test_insert_order_with_fk_shortcut(self):
        db = order_lines_db()
        agg = make_agg(db)
        report = agg.insert("o", [(5, "a")])
        agg.check_consistency()
        assert report.primary_rows == 1
        assert not report.secondary_rows or all(
            v == 0 for v in report.secondary_rows.values()
        )

    def test_untouched_table_noop(self):
        db = order_lines_db()
        db.create_table("zz", ["k"], key=["k"])
        agg = make_agg(db)
        report = agg.insert("zz", [(1,)])
        assert report.primary_rows == 0


class TestRandomizedOracle:
    def test_v1_aggregation_random_updates(self):
        defn = make_v1_defn()
        for seed in range(4):
            db = make_v1_db(seed=seed, rows=8, values=4)
            agg = AggregatedView(
                defn,
                group_by=["r.v"],
                aggregates=[count_star("n"), agg_sum("u.v", "su")],
                db=db,
            )
            rng = random.Random(seed)
            for step in range(5):
                table = rng.choice("rstu")
                if rng.random() < 0.5:
                    agg.insert(
                        table,
                        [(700 + step * 10 + j, rng.randint(0, 5)) for j in range(2)],
                    )
                else:
                    rows = rng.sample(
                        db.table(table).rows, min(2, len(db.table(table).rows))
                    )
                    agg.delete(table, rows)
                agg.check_consistency()
