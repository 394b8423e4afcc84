"""The experiment table at tiny scale: every cell runs (and passes
``check_consistency``), every record has the one schema, and the
paper's structural claims hold on the table's own records.  The Figure 5
shape checks are the only timed assertions; each takes the best of
three runs of a cell."""

import csv
import json

import pytest

from repro.bench import (
    ABLATIONS,
    EXPERIMENTS,
    FIGURE5,
    OPTIONS,
    TERMS,
    Workbench,
    cells,
    main,
    print_records,
    run,
    scaled_batches,
    write_csv,
)
from repro.core import ViewMaintainer

SCALE = 0.0008
BATCH_SCALE = 0.0005
# every experiment but the scaling sweep, which builds its own scales
MEASURED = ("table1", "figure5a", "figure5b", "fkshortcut", "ablations")


@pytest.fixture(scope="module")
def bench():
    return Workbench(SCALE)


@pytest.fixture(scope="module")
def records():
    """``{experiment: records}``, in the order of the experiment's cells."""
    return {name: run(name, SCALE, BATCH_SCALE, quiet=True) for name in MEASURED}


def cell_params(*names):
    """One ``(experiment, index)`` parameter per cell of *names*."""
    return [
        pytest.param(
            name, i,
            id=f"{name}-{c.view}-{c.maintainer}-{c.table}-{c.operation}-{c.batch}",
        )
        for name in names
        for i, c in enumerate(cells(name, SCALE, BATCH_SCALE))
    ]


def column(view, maintainer):
    """The Figure 5 column of a cell: "core" is ours on the core view."""
    return "core" if view == "core" else maintainer


def affected(record):
    return {label: record["term_rows"].get(term, 0) for term, label in TERMS.items()}


class TestTable1:
    def test_returns_all_four_terms(self, bench, records):
        assert set(bench.term_counts()) == {"COLP", "COL", "C", "P"}
        (record,) = records["table1"]
        assert record["batch"] == scaled_batches(BATCH_SCALE)[-1]

    def test_cardinality_shape(self, bench):
        counts = bench.term_counts()
        __, view = bench.template("v3")
        assert sum(counts.values()) == len(view)  # the four terms cover the view
        assert counts["COLP"] > counts["COL"]
        assert counts["C"] > 0
        assert counts["P"] > 0

    def test_affected_counts_bounded_by_batch_effects(self, records):
        rows = affected(records["table1"][0])
        assert sum(rows.values()) > 0
        # the COLP term receives the bulk of the delta
        assert rows["COLP"] >= max(rows["C"], rows["P"])


class TestFigure5:
    def test_insert_rows_structure(self, records):
        got = [(r["batch"], column(r["view"], r["maintainer"])) for r in records["figure5a"]]
        assert got == [(b, m) for b in scaled_batches(BATCH_SCALE) for m in FIGURE5]
        assert all(r["seconds"] > 0 for r in records["figure5a"])

    def test_delete_with_recompute_column(self, records):
        batches = {r["batch"] for r in records["figure5b"] if r["maintainer"] == "recompute"}
        assert batches == set(scaled_batches(BATCH_SCALE))

    def test_gk_runs_and_is_not_faster_by_much(self, records):
        rows = [r for r in records["figure5a"] if r["view"] == "v3"]
        # GK must at least not be systematically faster than ours
        assert sum(r["seconds"] for r in rows if r["maintainer"] == "gk") >= sum(
            r["seconds"] for r in rows if r["maintainer"] == "ours"
        )

    @pytest.mark.parametrize("name,index", cell_params("figure5a", "figure5b"))
    def test_base_rows_equal_batch(self, records, name, index):
        record = records[name][index]
        assert record["base_rows"] == record["batch"]


class TestBatchList:
    def test_scaled_batches_are_deduplicated_and_increasing(self):
        # the CI evaluation run's batch scale: 60 and 600 both scale to 1
        assert scaled_batches(0.002) == [1, 12, 120]

    def test_figure5_runs_each_batch_once_per_maintainer(self):
        for name in ("figure5a", "figure5b"):
            keys = [(c.batch, column(c.view, c.maintainer)) for c in cells(name, 0.002, 0.002)]
            assert keys == [(b, m) for b in (1, 12, 120) for m in FIGURE5]


def _best_seconds(bench, cell, rounds=3):
    return max(min(bench.measure(cell)["seconds"] for __ in range(rounds)), 1e-6)


class TestFigure5Shape:
    """The paper's qualitative claims on measured times: outer-join view
    maintenance costs about what core-view maintenance costs ("virtually
    the same"; a generous factor absorbs engine noise), and Griffin–Kumar
    is clearly slower at the largest batch."""

    @pytest.fixture(params=["figure5a", "figure5b"])
    def largest(self, request, bench):
        largest = scaled_batches(BATCH_SCALE)[-1]
        assert largest >= 10
        return {
            column(c.view, c.maintainer): _best_seconds(bench, c)
            for c in cells(request.param, SCALE, BATCH_SCALE)
            if c.batch == largest and c.maintainer != "recompute"
        }

    def test_outer_join_view_costs_like_core_view(self, largest):
        assert largest["ours"] <= largest["core"] * 3.0 + 0.005, largest

    def test_gk_slower(self, largest):
        assert largest["gk"] >= largest["ours"] * 1.5, largest


class TestFkShortcut:
    def test_orders_are_noop(self, records):
        (orders,) = [r for r in records["fkshortcut"] if r["table"] == "orders"]
        assert orders["view_changes"] == 0
        assert orders["primary_skipped"]

    @pytest.mark.parametrize("table", ["customer", "part"])
    def test_dimension_insert_is_pure_padded_insert(self, records, table):
        (record,) = [
            r for r in records["fkshortcut"]
            if r["table"] == table and r["maintainer"] == "ours"
        ]
        assert record["primary_rows"] == record["batch"]
        assert record["secondary_rows"] == 0

    def test_incremental_beats_recompute(self, records):
        seconds = {
            (r["table"], r["maintainer"]): r["seconds"] for r in records["fkshortcut"]
        }
        assert seconds["customer", "ours"] < seconds["customer", "recompute"]
        assert seconds["part", "ours"] < seconds["part", "recompute"]


class TestAblations:
    def test_all_variants_run(self, records):
        updates = {}
        for r in records["ablations"]:
            updates.setdefault((r["view"], r["maintainer"]), set()).add(
                (r["table"], r["operation"])
            )
        assert ABLATIONS == (
            "ours",
            "A1 bushy ΔV^D",
            "A2 secondary from base",
            "A3 no FK exploitation",
        )
        for variant in ABLATIONS:
            assert updates["v3", variant] == {
                ("lineitem", "insert"), ("lineitem", "delete"), ("part", "insert"),
            }
        for variant in ("ours", "A2 secondary from base"):
            assert updates["chain", variant] == {("t2", "insert"), ("t2", "delete")}

    @pytest.mark.parametrize("variant", ABLATIONS)
    def test_variant_stays_consistent_after_insert_and_delete(self, bench, records, variant):
        # measure() checks every cell against a full recompute
        rows = {
            r["operation"]: r for r in records["ablations"]
            if r["view"] == "v3" and r["maintainer"] == variant and r["table"] == "lineitem"
        }
        assert set(rows) == {"insert", "delete"}
        for record in rows.values():
            assert record["base_rows"] == record["batch"]
        # and a delete after an insert on the same maintainer
        db, view = bench.fresh_state("v3")
        maintainer = ViewMaintainer(db, view, OPTIONS[variant])
        maintainer.insert("lineitem", bench.generator.lineitem_insert_batch(20, seed=91))
        maintainer.delete("lineitem", bench.generator.lineitem_delete_batch(db, 20, seed=92))
        maintainer.check_consistency()

    @pytest.mark.parametrize("variant", ABLATIONS)
    def test_part_insert_adds_one_row_per_part(self, records, variant):
        (record,) = [
            r for r in records["ablations"]
            if r["maintainer"] == variant and r["table"] == "part"
        ]
        assert record["primary_rows"] == record["batch"]

    @pytest.mark.parametrize("operation", ["insert", "delete"])
    def test_secondary_strategies_agree_on_chain(self, records, operation):
        rows = [
            r for r in records["ablations"]
            if r["view"] == "chain" and r["operation"] == operation
        ]
        assert len(rows) == 2
        assert all(r["base_rows"] == r["batch"] for r in rows)
        # both passed check_consistency on the same base update, so they
        # land on the same view
        assert rows[0]["view_changes"] == rows[1]["view_changes"]
        if operation == "delete":
            assert all(r["indirect_terms"] >= 4 for r in rows)


class TestPrinter:
    def test_tables_keep_the_paper_layout(self, bench, records, capsys):
        for name in MEASURED:
            print_records(name, records[name], bench)
        out = capsys.readouterr().out
        assert f"== Table 1 — terms of V3 (SF={SCALE}, insert 30 lineitems) ==" in out
        for label in ("5(a) insertion", "5(b) deletion"):
            title = f"== Figure {label} costs, seconds (SF={SCALE}) =="
            table = out.split(title)[1].split("\n\n")[0].splitlines()
            assert table[1].split() == ["lineitem", "rows", *FIGURE5]
            assert [int(line.split()[0]) for line in table[3:]] == scaled_batches(BATCH_SCALE)
        assert "orders/view_changes" in out
        assert "full algorithm (chain)" in out
        assert "A2 secondary from base (chain)" in out


class TestWorkbench:
    def test_fresh_state_isolated(self, bench):
        db1, view1 = bench.fresh_state("v3")
        db2, view2 = bench.fresh_state("v3")
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

    def test_metrics_without_trace_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--metrics", str(tmp_path / "m.prom")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "m.prom").exists()


class TestCsvExport:
    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), [{"batch": 1, "ours": 0.5}, {"batch": 2, "ours": 0.7, "gk": 1.0}])
        lines = path.read_text().splitlines()
        assert lines[0] == "batch,ours,gk"
        assert lines[1].startswith("1,0.5")

    def test_write_csv_empty_noop(self, tmp_path):
        path = tmp_path / "none.csv"
        write_csv(str(path), [])
        assert not path.exists()

    def test_one_header_for_every_experiment(self, records, tmp_path):
        everything = [r for name in MEASURED for r in records[name]]
        assert len({tuple(r) for r in everything}) == 1
        path = tmp_path / "all.csv"
        write_csv(str(path), everything)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == list(everything[0])
        assert len(rows) == len(everything)
        assert json.loads(rows[0]["term_rows"]) == everything[0]["term_rows"]


class TestReportSerialization:
    def test_to_dict_round_trips_through_json(self):
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
