"""End-to-end telemetry: a metered Warehouse over TPC-H.

Exercises the whole observability stack at once — spans emitted by the
maintainers, metrics in the shared registry, and the health dashboard —
and asserts the one invariant everything hangs on: the dashboard's
per-view totals equal the sums over the returned MaintenanceReports.
"""

import json
import re

import pytest

from repro.errors import FanOutError, MaintenanceError
from repro.explain import explain_update
from repro.obs import Telemetry
from repro.tpch import TPCHGenerator, oj_view, v3
from repro.warehouse import Warehouse


@pytest.fixture
def generator():
    gen = TPCHGenerator(scale_factor=0.001, seed=5)
    gen.build()
    return gen


@pytest.fixture
def wh(generator):
    db = TPCHGenerator(scale_factor=0.001, seed=5).build()
    warehouse = Warehouse(db, telemetry=Telemetry())
    warehouse.create_view("v3", v3())
    warehouse.create_view("oj_view", oj_view())
    return warehouse


def maintain_span(wh, view):
    """The newest ``maintain`` span of *view*, under its change's root."""
    return next(
        span
        for root in reversed(wh.telemetry.spans)
        for span in root.children
        if span.attributes["view"] == view
    )


class TestSpans:
    def test_one_root_per_change_one_span_per_view(self, wh, generator):
        wh.insert("lineitem", generator.lineitem_insert_batch(20, seed=1))
        (change,) = wh.telemetry.spans
        assert change.name == "change"
        assert change.attributes == {"table": "lineitem", "operation": "insert"}
        assert [c.name for c in change.children] == ["maintain", "maintain"]
        root = maintain_span(wh, "v3")
        assert root.attributes["table"] == "lineitem"
        assert root.attributes["operation"] == "insert"
        assert root.status == "ok"
        # only a first pass compiles, under its maintain span
        assert {c.name for c in root.children} <= {"compile_plan"}
        phases = root.attributes["phases"]
        assert list(phases) == ["classify", "primary_delta", "apply_primary"]
        assert root.attributes["direct"] and not root.attributes["skipped"]
        assert root.attributes["delta_rows"] > 0
        # phase times are nested inside the span's wall time
        terms = root.attributes["terms"].values()
        phase_total = sum(phases.values()) + sum(t["seconds"] for t in terms)
        assert 0 < phase_total <= root.duration_seconds

    def test_secondary_terms_carry_strategy_and_seconds(self, wh, generator):
        # a lineitem insert absorbs orphan rows from the indirectly
        # affected terms (COL, C, P), so secondary terms must appear
        wh.insert("lineitem", generator.lineitem_insert_batch(30, seed=2))
        root = maintain_span(wh, "v3")
        terms = root.attributes["terms"]
        assert terms, "lineitem insert must touch secondary terms"
        assert len(terms) == root.attributes["indirect"]
        for detail in terms.values():
            assert detail["strategy"] == "view"
            assert detail["seconds"] > 0

    def test_operator_counts_reach_spans(self, wh, generator):
        wh.insert("lineitem", generator.lineitem_insert_batch(20, seed=3))
        root = maintain_span(wh, "v3")
        assert root.operators, "delta evaluation must record operators"
        assert any(kind.startswith("join") for kind in root.operators)

    def test_tree_prints_dict_attributes_compactly(self, wh, generator):
        wh.insert("lineitem", generator.lineitem_insert_batch(30, seed=2))
        root = maintain_span(wh, "v3")
        phases, terms = root.attributes["phases"], root.attributes["terms"]
        assert phases and terms
        line = root.tree().splitlines()[0]
        for name, seconds in phases.items():
            assert f"{name}: {seconds:.3g}" in line
        for detail in terms.values():
            assert f"seconds: {detail['seconds']:.3g}" in line
        assert "'" not in line and not re.search(r"\d{7}", line), line

    def test_span_tree_serializes(self, wh, generator):
        wh.insert("lineitem", generator.lineitem_insert_batch(5, seed=4))
        payload = json.dumps(wh.telemetry.spans[0].to_dict())
        assert '"maintain"' in payload


class TestMetricsAndDashboard:
    def test_dashboard_totals_match_reports(self, wh, generator):
        changed = {"v3": 0, "oj_view": 0}
        base = {"v3": 0, "oj_view": 0}
        for seed in (1, 2):
            reports = wh.insert(
                "lineitem", generator.lineitem_insert_batch(15, seed=seed)
            )
            for name, report in reports.items():
                changed[name] += report.total_view_changes
                base[name] += report.base_rows
        reports = wh.delete(
            "lineitem", generator.lineitem_delete_batch(wh.db, 10, seed=3)
        )
        for name, report in reports.items():
            changed[name] += report.total_view_changes
            base[name] += report.base_rows

        totals = wh.telemetry.totals()
        for name in ("v3", "oj_view"):
            assert totals[name]["passes"] == 3
            assert totals[name]["errors"] == 0
            assert totals[name]["rows_changed"] == changed[name]
            assert totals[name]["base_rows"] == base[name]

    def test_metrics_exposition_has_maintenance_series(self, wh, generator):
        wh.insert("lineitem", generator.lineitem_insert_batch(10, seed=1))
        text = wh.metrics_text()
        assert "# TYPE repro_maintenance_seconds histogram" in text
        assert (
            'repro_maintenance_seconds_count{view="v3",table="lineitem",'
            'operation="insert"} 1' in text
        )
        assert 'repro_view_rows_changed_total{view="v3"' in text
        assert (
            'repro_maintenance_passes_total{view="oj_view",table="lineitem",'
            'operation="insert"} 1' in text
        )
        # view sizes and plan-cache counts are read at scrape
        assert f'repro_view_rows{{view="v3"}} {len(wh.view("v3"))}' in text

    def test_reading_an_unwritten_series_creates_nothing(self, wh, generator):
        wh.insert("lineitem", generator.lineitem_insert_batch(10, seed=1))
        text, board = wh.metrics_text(), wh.telemetry.dashboard()
        quarantines = wh.telemetry.metrics.get("repro_view_quarantined_total")
        assert quarantines.value(view="ghost") == 0
        assert wh.telemetry.metrics.get("repro_maintenance_passes_total").value(
            view="ghost", table="lineitem", operation="insert"
        ) == 0
        assert wh.metrics_text() == text and wh.telemetry.dashboard() == board
        assert "ghost" not in text and "ghost" not in board
        cache = wh.maintainer("v3").plan_cache
        assert cache.misses
        for outcome, n in (("hit", cache.hits), ("miss", cache.misses)):
            line = f'repro_plan_cache_requests_total{{view="v3",outcome="{outcome}"}} {n}'
            assert (line in text) == (n > 0)

    def test_a_dropped_view_leaves_the_exposition(self, wh, generator):
        """Its size gauge goes with it; its plan-cache counts stay, so the
        counter never decreases, also when the name is re-created."""

        def requests():
            series = wh.telemetry.metrics.get("repro_plan_cache_requests_total")
            return {key: s.value for key, s in series._series.items()}

        rows = generator.lineitem_insert_batch(10, seed=1)
        wh.insert("lineitem", rows)
        wh.delete("lineitem", rows)
        assert 'repro_view_rows{view="v3"}' in wh.metrics_text()
        before = requests()
        wh.drop_view("v3")
        for text in (wh.metrics_text(), wh.openmetrics_text()):
            assert 'repro_view_rows{view="v3"}' not in text
            assert 'repro_view_rows{view="oj_view"}' in text
        assert requests() == before
        wh.create_view("v3", v3())
        wh.insert("lineitem", rows)
        assert f'repro_view_rows{{view="v3"}} {len(wh.view("v3"))}' in wh.metrics_text()
        after = requests()
        assert set(before) <= set(after)
        assert all(after[key] >= n for key, n in before.items())
        assert after[("v3", "miss")] > before[("v3", "miss")]  # the new maintainer compiled

    def test_dashboard_renders_health(self, wh, generator):
        wh.insert("lineitem", generator.lineitem_insert_batch(10, seed=1))
        wh.insert("customer", generator.customer_insert_batch(3, seed=2))
        out = wh.dashboard()
        assert "p50 ms" in out and "p95 ms" in out
        assert "-- v3 --" in out and "-- oj_view --" in out
        assert "secondary mix" in out
        assert "phases" in out  # span attributes fed per-phase aggregates

    def test_phase_and_term_lines_fold_the_retained_spans(self, wh, generator):
        """The dashboard's ``phases`` and ``slowest terms`` lines and
        explain's measured line are a fold, at read time, over the
        ``maintain`` spans the telemetry retains."""
        for seed in (1, 2, 3):
            wh.insert("lineitem", generator.lineitem_insert_batch(10, seed=seed))
        wh.delete("lineitem", generator.lineitem_delete_batch(wh.db, 5, seed=4))
        phases, terms = {}, {}
        for root in wh.telemetry.spans:
            for span in root.children:
                if span.attributes["view"] == "v3":
                    for name, seconds in span.attributes["phases"].items():
                        phases.setdefault(name, []).append(seconds)
                    for term, detail in span.attributes["terms"].items():
                        phases.setdefault("secondary", []).append(detail["seconds"])
                        terms.setdefault(term, []).append(detail["seconds"])
        assert phases and terms
        ms = {name: (sum(s) / len(s) * 1000, max(s) * 1000, len(s)) for name, s in phases.items()}
        slowest = sorted(terms.items(), key=lambda kv: -max(kv[1]))[:5]
        v3 = wh.dashboard().split("-- v3 --")[1]
        assert "  phases         : " + ", ".join(
            f"{name} {avg:.2f}ms avg" for name, (avg, _, _) in sorted(ms.items())
        ) in v3
        assert "  slowest terms  : " + ", ".join(
            f"{term} max {max(s) * 1000:.2f}ms" for term, s in slowest
        ) in v3
        assert "  Measured (telemetry): " + ", ".join(
            f"{name} {avg:.2f}ms avg/{top:.2f}ms max over {n}"
            for name, (avg, top, n) in sorted(ms.items())
        ) in explain_update(wh.maintainer("v3"), "lineitem")

    def test_disabled_warehouse_pays_nothing(self, generator):
        db = TPCHGenerator(scale_factor=0.001, seed=5).build()
        wh = Warehouse(db)  # defaults to Telemetry.disabled()
        wh.create_view("v3", v3())
        wh.insert("lineitem", generator.lineitem_insert_batch(5, seed=1))
        assert wh.telemetry.spans == []
        assert wh.metrics_text() == ""
        assert "(telemetry disabled)" in wh.dashboard()


class TestDurableWarehouseMetered:
    def test_checkpoint_with_telemetry_on(self, generator, tmp_path):
        """An explicit checkpoint of a metered warehouse reports itself
        (it raised TypeError while ``checkpoint.written`` went through a
        method whose first parameter was also called ``kind``)."""
        db = TPCHGenerator(scale_factor=0.001, seed=5).build()
        wh = Warehouse(
            db,
            telemetry=Telemetry(),
            wal_path=str(tmp_path / "wal"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        try:
            wh.create_view("v3", v3())
            wh.insert("lineitem", generator.lineitem_insert_batch(5, seed=1))
            assert wh.checkpoint()
            registry = wh.telemetry.metrics
            written = registry.get("repro_checkpoint_total")
            assert written.value(outcome="written", kind="base") == 1
            assert wh.telemetry.health.durability()["checkpoints"] == 1
            assert "checkpoints    : 1 written" in wh.dashboard()
            kinds = [e.kind for e in wh.telemetry.recorder.events]
            assert "checkpoint.written" in kinds
        finally:
            wh.close()


class TestFanOutFailures:
    def test_failure_yields_partial_reports_and_error_metric(
        self, wh, generator, monkeypatch
    ):
        broken = wh.maintainer("oj_view")

        def explode(*args, **kwargs):
            raise MaintenanceError("synthetic failure")

        # break a phase *inside* maintain() so the maintainer's own error
        # handling (failed span + error counter) runs
        monkeypatch.setattr(broken, "_compute_primary", explode)
        batch = generator.lineitem_insert_batch(5, seed=9)
        with pytest.raises(FanOutError) as info:
            wh.insert("lineitem", batch)
        err = info.value
        # the healthy view was still maintained...
        assert set(err.reports) == {"v3"}
        assert err.reports["v3"].base_rows == 5
        assert set(err.failures) == {"oj_view"}
        assert isinstance(err.failures["oj_view"], MaintenanceError)
        # ...and the failure is attributed in the message
        assert "oj_view" in str(err)
        totals = wh.telemetry.totals()
        assert totals["oj_view"]["errors"] == 1
        assert totals["v3"]["errors"] == 0
        assert (
            'repro_maintenance_errors_total{view="oj_view",table="lineitem",'
            'operation="insert"} 1' in wh.metrics_text()
        )
        # the failed pass still emitted its (error-status) span
        failed = maintain_span(wh, "oj_view")
        assert failed.status == "error"
        assert "synthetic failure" in failed.error

    def test_view_stays_consistent_after_partial_failure(
        self, wh, generator, monkeypatch
    ):
        monkeypatch.setattr(
            wh.maintainer("oj_view"),
            "maintain",
            lambda *a, **k: (_ for _ in ()).throw(MaintenanceError("x")),
        )
        with pytest.raises(FanOutError):
            wh.insert("lineitem", generator.lineitem_insert_batch(5, seed=9))
        wh.maintainer("v3").check_consistency()
