"""Dashboard aggregation: per-view series from the registry and the
retained spans, rendering.

The dashboard holds no counts of its own: every case drives a
``Telemetry`` through ``emit`` (and, for phase and term costs, finished
``maintain`` spans into its tracer's ring) and reads
``telemetry.health``.
"""

import types

import pytest

from repro.obs import Telemetry


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


def traced(telemetry, view="v3", phases=None, terms=None, status="ok"):
    """One finished ``maintain`` span in *telemetry*'s tracer ring,
    carrying ``phases`` (phase -> seconds) and ``terms`` (here
    term -> seconds) as a maintenance pass leaves them."""
    terms = {
        term: {"strategy": "view", "seconds": seconds, "rows": 0}
        for term, seconds in (terms or {}).items()
    }
    with telemetry.tracer.span("maintain", view=view, phases=phases or {}, terms=terms) as span:
        span.status = status


def passed(telemetry, **fields):
    telemetry.emit("maintenance.pass", report=make_report(**fields))


def quarantine(telemetry, view, reason):
    telemetry.emit("view.quarantined", view=view, reason=reason)


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
        # buckets (..., 1] 1, (1, 2.5] 1, (2.5, 5] 2 (ms): rank 2 closes
        # the second, rank 3.8 sits 1.8/2 into the third
        assert pct["p50"] == pytest.approx(0.0025)
        assert pct["p95"] == pytest.approx(0.0025 + 0.0025 * 0.9)

    def test_unknown_view_percentiles_are_zero(self):
        assert Telemetry().health.latency_percentiles("nope") == {
            "p50": 0.0,
            "p95": 0.0,
        }

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
        traced(
            t,
            phases={"classify": 0.001, "primary_delta": 0.004},
            terms={"{customer}": 0.002, "{part}": 0.006},
        )
        traced(t, phases={"classify": 0.003}, status="error")  # a failed pass
        with t.tracer.span("change"):  # a warehouse change: spans nest
            traced(t, view="oj", phases={"classify": 0.002})
        costs = t.health.pass_costs()
        phases = costs["v3"]["phases"]
        assert phases["classify"] == {"count": 1, "avg": 0.001, "max": 0.001}
        assert phases["secondary"]["count"] == 2
        assert phases["secondary"]["max"] == pytest.approx(0.006)
        assert phases["secondary"]["avg"] == pytest.approx(0.004)
        assert costs["v3"]["terms"]["{part}"]["max"] == pytest.approx(0.006)
        assert costs["oj"] == {
            "phases": {"classify": {"count": 1, "avg": 0.002, "max": 0.002}},
            "terms": {},
        }
        assert "nope" not in costs


class TestRender:
    def test_empty_dashboard(self):
        out = Telemetry().dashboard()
        assert "no maintenance activity" in out

    def test_render_contains_views_and_details(self):
        t = Telemetry()
        traced(t, view="orders_view", terms={"{customer}": 0.002})
        passed(
            t,
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
        quarantine(t, "v3", "insert on 'lineitem' failed: boom")
        out = t.dashboard()
        assert "!! quarantined (stale, excluded from fan-out):" in out
        assert "v3: insert on 'lineitem' failed: boom" in out
        assert "reliability    : 1 quarantines (QUARANTINED)" in out
        assert t.health.reliability() == {"v3": {"quarantines": 1}}

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
