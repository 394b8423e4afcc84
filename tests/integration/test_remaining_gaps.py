"""Coverage for the remaining public-surface corners: the scaling bench,
transactional aggregates, and the explain report under non-default
strategies."""

import pytest

from repro.algebra import Q
from repro.core import (
    MaintenanceOptions,
    MaterializedView,
    SECONDARY_AUTO,
    ViewDefinition,
    ViewMaintainer,
    count_star,
)
from repro.engine import Database
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
