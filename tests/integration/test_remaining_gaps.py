"""Coverage for the remaining public-surface corners: the scaling bench,
warehouse batching, transactional aggregates, display printing, and the
explain report under non-default strategies."""

import pytest

from repro.algebra import Q, eq
from repro.core import (
    MaintenanceOptions,
    MaterializedView,
    SECONDARY_AUTO,
    ViewDefinition,
    ViewMaintainer,
    agg_sum,
    count_star,
)
from repro.engine import Database, format_table
from repro.engine.display import print_table
from repro.explain import explain_update
from repro.tpch import TPCHGenerator, v3
from repro.warehouse import Warehouse


class TestScalingBench:
    def test_run_scaling_smoke(self):
        from dataclasses import replace

        from repro.bench import SCALING_SCALES, Workbench, cells

        # the sweep's cells at one scale, moved to two tiny scales
        sweep = [c for c in cells("scaling") if c.scale == SCALING_SCALES[0]]
        rows = []
        for scale in (0.0005, 0.002):
            bench = Workbench(scale)
            rows.append({
                c.maintainer: bench.measure(replace(c, scale=scale, batch=10))
                for c in sweep
            })
        for record in rows:
            assert record["ours"]["seconds"] > 0
            assert record["recompute"]["seconds"] > 0
        # database quadrupled → recompute cost must grow, by more than
        # the jitter of a millisecond-scale timing
        assert rows[1]["recompute"]["seconds"] > rows[0]["recompute"]["seconds"] * 1.2


class TestWarehouseBatch:
    def test_batch_covers_all_views(self):
        gen = TPCHGenerator(scale_factor=0.0008)
        wh = Warehouse(gen.build())
        wh.create_view("v3", v3())
        wh.create_aggregated_view(
            "rev",
            ViewDefinition(
                "rev_base",
                Q.table("orders")
                .left_outer_join(
                    "lineitem",
                    on=eq("lineitem.l_orderkey", "orders.o_orderkey"),
                )
                .build(),
            ),
            group_by=["orders.o_clerk"],
            aggregates=[count_star("n"), agg_sum("lineitem.l_quantity", "q")],
        )
        batch = wh.batch()
        batch.insert("lineitem", gen.lineitem_insert_batch(15, seed=3))
        reports = batch.flush()
        assert len(reports["lineitem"]) == 2  # one per registered view
        wh.check_consistency()


class TestTransactionalAggregates:
    def test_aggregate_rolls_back_with_groups_intact(self):
        db = Database()
        db.create_table("o", ["ok", "c"], key=["ok"])
        db.insert("o", [(1, "x"), (2, "y")])
        wh = Warehouse(db)
        wh.create_aggregated_view(
            "counts",
            ViewDefinition("counts_base", Q.table("o").where(
                __import__("repro.algebra.predicates", fromlist=["Comparison"])
                .Comparison("o.ok", ">=", 0)
            ).build()),
            group_by=["o.c"],
            aggregates=[count_star("n")],
        )
        before = wh.aggregated_view("counts").rows()
        with pytest.raises(RuntimeError):
            with wh.transaction() as txn:
                txn.insert("o", [(3, "x")])
                raise RuntimeError("abort")
        assert wh.aggregated_view("counts").rows() == before
        wh.check_consistency()


class TestDisplayPrint:
    def test_print_table_writes_to_stdout(self, capsys):
        db = Database()
        db.create_table("t", ["k", "v"], key=["k"])
        db.insert("t", [(1, "hello")])
        print_table(db.table("t"))
        captured = capsys.readouterr().out
        assert "t.k" in captured and "hello" in captured

    def test_format_view_snapshot(self):
        gen = TPCHGenerator(scale_factor=0.0005)
        db = gen.build()
        view = MaterializedView.materialize(v3(), db)
        text = format_table(view.as_table(), limit=3)
        assert "not shown)" in text


class TestExplainStrategies:
    def test_auto_strategy_described(self):
        gen = TPCHGenerator(scale_factor=0.0005)
        db = gen.build()
        maintainer = ViewMaintainer(
            db,
            MaterializedView.materialize(v3(), db),
            MaintenanceOptions(secondary_strategy=SECONDARY_AUTO),
        )
        text = explain_update(maintainer, "lineitem", operation="insert")
        assert (
            "'auto' strategy (cost-based per-term choice between "
            "Sections 5.2 and 5.3)" in text
        )
