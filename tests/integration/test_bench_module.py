"""Smoke tests for the benchmark harness functions at tiny scale — the
experiment code itself must stay runnable and structurally correct."""

import pytest

from repro.bench import (
    EXPERIMENTS,
    Workbench,
    main,
    run_ablations,
    run_figure5,
    run_fkshortcut,
    run_table1,
)

SCALE = 0.0008
BATCH_SCALE = 0.0005


class TestTable1:
    def test_returns_all_four_terms(self):
        results = run_table1(SCALE, BATCH_SCALE, quiet=True)
        assert set(results) == {"COLP", "COL", "C", "P"}

    def test_cardinality_shape(self):
        results = run_table1(SCALE, BATCH_SCALE, quiet=True)
        assert results["COLP"][0] > results["COL"][0]
        assert results["C"][0] > 0
        assert results["P"][0] > 0

    def test_affected_counts_bounded_by_batch_effects(self):
        results = run_table1(SCALE, BATCH_SCALE, quiet=True)
        total_affected = sum(affected for __, affected in results.values())
        assert total_affected > 0


class TestFigure5:
    def test_insert_rows_structure(self):
        rows = run_figure5(
            "insert", SCALE, BATCH_SCALE, quiet=True,
            algorithms=("core", "ours"),
        )
        assert len(rows) >= 1
        for record in rows:
            assert set(record) >= {"batch", "core", "ours"}
            assert record["core"] > 0 and record["ours"] > 0

    def test_delete_with_recompute_column(self):
        rows = run_figure5(
            "delete", SCALE, BATCH_SCALE, quiet=True,
            algorithms=("ours",), include_recompute=True,
        )
        for record in rows:
            assert "recompute" in record

    def test_gk_runs_and_is_not_faster_by_much(self):
        rows = run_figure5(
            "insert", SCALE, BATCH_SCALE, quiet=True,
            algorithms=("ours", "gk"),
        )
        # GK must at least not be systematically faster than ours
        assert sum(r["gk"] for r in rows) >= sum(r["ours"] for r in rows)


class TestFkShortcut:
    def test_orders_are_noop(self):
        results = run_fkshortcut(SCALE, batch=10, quiet=True)
        assert results["orders/view_changes"] == 0

    def test_incremental_beats_recompute(self):
        results = run_fkshortcut(SCALE, batch=10, quiet=True)
        assert (
            results["customer/incremental"] < results["customer/recompute"]
        )
        assert results["part/incremental"] < results["part/recompute"]


class TestAblations:
    def test_all_variants_run(self):
        out = run_ablations(SCALE, BATCH_SCALE, quiet=True)
        assert set(out) == {
            "full algorithm",
            "A1 bushy ΔV^D",
            "A2 secondary from base",
            "A3 no FK exploitation",
        }
        for timings in out.values():
            assert set(timings) == {"insert", "delete", "part_insert"}


class TestWorkbench:
    def test_fresh_state_isolated(self):
        from repro.tpch import v3

        bench = Workbench(SCALE)
        db1, view1 = bench.fresh_state(v3())
        db2, view2 = bench.fresh_state(v3())
        db1.insert("customer", [(10**7, "x", 0, "BUILDING", 0.0)])
        assert len(db2.table("customer")) != len(db1.table("customer"))
        assert len(view1) == len(view2)


class TestCli:
    def test_experiment_choices_are_exactly_the_paper_ones(self):
        # runtime numbers come from perf/run.py; a runtime experiment
        # must not creep back into this CLI unnoticed
        assert set(EXPERIMENTS) == {
            "table1",
            "figure5a",
            "figure5b",
            "fkshortcut",
            "ablations",
            "scaling",
            "all",
        }
        with pytest.raises(SystemExit) as excinfo:
            main(["serving"])
        assert excinfo.value.code == 2  # argparse: invalid choice


class TestCsvExport:
    def test_write_csv(self, tmp_path):
        from repro.bench import write_csv

        path = tmp_path / "out.csv"
        write_csv(str(path), [{"batch": 1, "ours": 0.5}, {"batch": 2, "ours": 0.7, "gk": 1.0}])
        lines = path.read_text().splitlines()
        assert lines[0] == "batch,ours,gk"
        assert lines[1].startswith("1,0.5")

    def test_write_csv_empty_noop(self, tmp_path):
        from repro.bench import write_csv

        path = tmp_path / "none.csv"
        write_csv(str(path), [])
        assert not path.exists()


class TestReportSerialization:
    def test_to_dict_round_trips_through_json(self):
        import json

        from repro.core import (
            MaintenanceOptions,
            MaterializedView,
            ViewMaintainer,
        )
        from repro.tpch import TPCHGenerator, v3

        gen = TPCHGenerator(scale_factor=0.0005)
        db = gen.build()
        m = ViewMaintainer(
            db,
            MaterializedView.materialize(v3(), db),
            MaintenanceOptions(count_term_rows=True),
        )
        report = m.insert("lineitem", gen.lineitem_insert_batch(5, seed=1))
        data = json.loads(json.dumps(report.to_dict()))
        assert data["table"] == "lineitem"
        assert data["base_rows"] == 5
        assert data["primary_term_rows"] == report.primary_term_rows
        assert data["total_view_changes"] == report.total_view_changes
