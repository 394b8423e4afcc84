"""Dashboard aggregation: percentile math, per-view series, rendering.

The dashboard holds no counts of its own: every case drives a
``Telemetry`` through ``emit`` and reads ``telemetry.health``, which
renders the registry's counters beside its own latency/span series.
"""

import types

import pytest

from repro.obs import Telemetry
from repro.obs import dashboard
from repro.obs.dashboard import percentile


def make_report(
    view="v3",
    table="lineitem",
    operation="insert",
    total_view_changes=10,
    base_rows=5,
    primary_skipped=False,
    elapsed_seconds=0.010,
    secondary_strategy_used=None,
):
    return types.SimpleNamespace(
        view=view,
        table=table,
        operation=operation,
        total_view_changes=total_view_changes,
        base_rows=base_rows,
        primary_skipped=primary_skipped,
        elapsed_seconds=elapsed_seconds,
        secondary_strategy_used=secondary_strategy_used or {},
    )


def make_span(phases=None, terms=None):
    """A minimal ``maintain`` span stub: Dashboard only reads its
    ``phases`` (phase -> seconds) and ``terms`` attributes (here term ->
    seconds)."""
    terms = {
        term: {"strategy": "view", "seconds": seconds, "rows": 0}
        for term, seconds in (terms or {}).items()
    }
    return types.SimpleNamespace(attributes={"phases": phases or {}, "terms": terms})


def passed(telemetry, span=None, **fields):
    telemetry.emit("maintenance.pass", report=make_report(**fields), span=span)


def quarantine(telemetry, view, reason):
    telemetry.emit("view.quarantined", view=view, reason=reason)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_median_even_count_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_p95_interpolates(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        # rank = 99 * 0.95 = 94.05 -> 95 + 0.05 * (96 - 95)
        assert percentile(values, 0.95) == pytest.approx(95.05)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


class TestSeries:
    def test_totals_accumulate(self):
        t = Telemetry()
        passed(t, total_view_changes=4, base_rows=2)
        passed(
            t,
            operation="delete",
            total_view_changes=6,
            base_rows=3,
            primary_skipped=True,
        )
        t.emit("maintenance.error", view="v3", table="lineitem", operation="insert")
        totals = t.health.totals()["v3"]
        assert totals == {
            "passes": 2,
            "errors": 1,
            "rows_changed": 10,
            "base_rows": 5,
            "fk_skips": 1,
        }
        assert all(type(n) is int for n in totals.values())

    def test_latency_percentiles(self):
        t = Telemetry()
        for ms in (1, 2, 3, 4):
            passed(t, elapsed_seconds=ms / 1000.0)
        pct = t.health.latency_percentiles("v3")
        assert pct["p50"] == pytest.approx(0.0025)
        assert pct["p95"] == pytest.approx(0.00385)

    def test_unknown_view_percentiles_are_zero(self):
        assert Telemetry().health.latency_percentiles("nope") == {
            "p50": 0.0,
            "p95": 0.0,
        }

    def test_latency_samples_bounded(self, monkeypatch):
        monkeypatch.setattr(dashboard, "MAX_LATENCY_SAMPLES", 3)
        t = Telemetry()
        for _ in range(10):
            passed(t)
        assert len(t.health._views["v3"].latencies) == 3
        assert t.health.totals()["v3"]["passes"] == 10  # counting never stops

    def test_latency_series_keeps_the_newest_samples(self):
        """Past the bound the series slides: percentiles follow the
        latest passes instead of freezing on the first ones."""
        t = Telemetry()
        for _ in range(dashboard.MAX_LATENCY_SAMPLES):
            passed(t, elapsed_seconds=0.001)
        for _ in range(dashboard.MAX_LATENCY_SAMPLES):
            passed(t, elapsed_seconds=0.5)
        assert len(t.health._views["v3"].latencies) == dashboard.MAX_LATENCY_SAMPLES
        assert t.health.latency_percentiles("v3") == {"p50": 0.5, "p95": 0.5}

    def test_strategy_mix_counted_per_term(self):
        t = Telemetry()
        passed(t, secondary_strategy_used={"{c}": "view", "{p}": "base"})
        passed(t, secondary_strategy_used={"{c}": "view"})
        mix = t.metrics.get("repro_secondary_strategy_total")
        assert mix.value(view="v3", strategy="view") == 2
        assert mix.value(view="v3", strategy="base") == 1
        assert "secondary mix  : base=33%, view=67% (3 term deltas)" in t.dashboard()

    def test_span_phases_and_terms(self):
        t = Telemetry()
        span = make_span(
            {"classify": 0.001, "primary_delta": 0.004},
            {"{customer}": 0.002, "{part}": 0.006},
        )
        passed(t, span)
        dash = t.health
        phases = dash.observed_phases("v3")
        assert phases["classify"]["count"] == 1
        assert phases["secondary"]["count"] == 2
        assert phases["secondary"]["max"] == pytest.approx(0.006)
        assert phases["secondary"]["avg"] == pytest.approx(0.004)
        assert dash.observed_phases("v3", "classify") == {
            "classify": {"count": 1, "avg": 0.001, "max": 0.001}
        }
        assert dash.observed_phases("v3", "nope") == {}
        assert dash._views["v3"].terms["{part}"].max == pytest.approx(0.006)


class TestRender:
    def test_empty_dashboard(self):
        out = Telemetry().dashboard()
        assert "no maintenance activity" in out

    def test_render_contains_views_and_details(self):
        t = Telemetry()
        passed(
            t,
            make_span(terms={"{customer}": 0.002}),
            view="orders_view",
            table="orders",
            primary_skipped=True,
            secondary_strategy_used={"{c}": "view"},
        )
        passed(t, view="v3")
        out = t.dashboard()
        assert "== Maintenance dashboard ==" in out
        # header table lists both views (sorted)
        assert out.index("orders_view") < out.index("v3")
        assert "p50 ms" in out and "p95 ms" in out
        # detail sections
        assert "-- orders_view --" in out
        assert "secondary mix  : view=100% (1 term deltas)" in out
        assert "fk-shortcut    : 1/1 passes primary-skipped" in out
        assert "slowest terms  : {customer} max 2.00ms" in out
        assert "tables         : orders: 1 passes/10 rows" in out
        assert "-- v3 --" in out
        assert "operations     : insert=1" in out


class TestQuarantineSection:
    def test_quarantined_views_listed_with_reason(self):
        t = Telemetry()
        passed(t, view="v3")
        t.emit("view.retry", view="v3", attempt=1)
        quarantine(t, "v3", "insert on 'lineitem' failed: boom")
        out = t.dashboard()
        assert "!! quarantined (stale, excluded from fan-out):" in out
        assert "v3: insert on 'lineitem' failed: boom" in out
        assert "reliability    : 1 retries, 1 quarantines (QUARANTINED)" in out
        assert t.health.reliability() == {"v3": {"retries": 1, "quarantines": 1}}

    def test_reinstated_view_leaves_the_section(self):
        t = Telemetry()
        passed(t, view="v3")
        quarantine(t, "v3", "boom")
        t.emit("view.reinstated", view="v3")
        out = t.dashboard()
        assert "!! quarantined" not in out
        assert "(healthy)" in out

    def test_quarantined_accessor_tracks_state(self):
        t = Telemetry()
        quarantine(t, "a", "x")
        quarantine(t, "b", "y")
        t.emit("view.reinstated", view="a")
        assert t.health.quarantined() == {"b": "y"}

    def test_totals_shape_unchanged_by_quarantine(self):
        # totals() is consumed by CI scripts: quarantine state must not
        # leak new keys into it
        t = Telemetry()
        passed(t, view="v3")
        quarantine(t, "v3", "boom")
        assert sorted(t.health.totals()["v3"]) == [
            "base_rows", "errors", "fk_skips", "passes", "rows_changed",
        ]


def durable_activity(t):
    for _ in range(2):
        t.emit("checkpoint.written", seconds=0.01, size_bytes=10, kind="base")
    t.emit("wal.compaction", segments_deleted=3)
    t.emit("scheduler.load_shed", table="orders")


class TestDurabilitySection:
    def test_hidden_when_nothing_happened(self):
        t = Telemetry()
        passed(t, view="v3")
        assert "-- durability --" not in t.dashboard()

    def test_counters_rendered(self):
        t = Telemetry()
        passed(t, view="v3")
        durable_activity(t)
        out = t.dashboard()
        assert "-- durability --" in out
        assert "checkpoints    : 2 written" in out
        assert "compactions    : 1 passes, 3 segments deleted" in out
        assert "load sheds     : 1 changes rejected" in out
        assert "corrupt wal" not in out

    def test_quarantined_segments_listed(self):
        t = Telemetry()
        passed(t, view="v3")
        t.emit("wal.segment_quarantined", segment="wal-000001.seg")
        out = t.dashboard()
        assert "corrupt wal    : wal-000001.seg" in out

    def test_durability_accessor(self):
        t = Telemetry()
        durable_activity(t)
        t.emit("checkpoint.corrupt", name="ckpt-1.json")  # not a written one
        t.emit("wal.segment_quarantined", segment="wal-7.seg")
        assert t.health.durability() == {
            "checkpoints": 2,
            "compactions": 1,
            "segments_deleted": 3,
            "segments_quarantined": ["wal-7.seg"],
            "load_sheds": 1,
        }
