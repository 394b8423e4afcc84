"""SLO tracker: quantiles and error budgets read off the registry,
the sliding window read at scrape, export."""

import sys
import threading
import types

import pytest

from repro.obs import Telemetry
from repro.obs.slo import DEFAULT_OBJECTIVE, READING_SPACING, WINDOW_SECONDS, SLOTracker


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def telemetry(clock):
    t = Telemetry()
    t.slo = SLOTracker(t.metrics, clock=clock)
    return t


@pytest.fixture
def tracker(telemetry):
    return telemetry.slo


def attempt(telemetry, view="v3", ok=True, seconds=0.001):
    """One maintenance pass of *view*, or one that raised."""
    if ok:
        report = types.SimpleNamespace(
            view=view,
            table="lineitem",
            operation="insert",
            total_view_changes=1,
            base_rows=1,
            primary_skipped=False,
            elapsed_seconds=seconds,
            secondary_strategy_used={},
        )
        telemetry.emit("maintenance.pass", report=report)
    else:
        telemetry.emit("maintenance.error", view=view, table="lineitem", operation="insert")


def budget(tracker, view="v3"):
    return tracker.snapshot()["views"].get(view)


class TestLatencyQuantiles:
    def test_empty_phase_is_zero(self, tracker):
        q = tracker.latency_quantiles("apply")
        assert q == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_quantiles_ordered(self, telemetry, tracker):
        for i in range(1, 101):
            attempt(telemetry, seconds=i / 1000.0)
        q = tracker.latency_quantiles("maintenance")
        # the resolution is the bucket bounds; here every bucket holds
        # its share evenly, so interpolation lands on the exact ranks
        assert q["p50"] == pytest.approx(0.050, abs=0.001)
        assert q["p95"] == pytest.approx(0.095, abs=0.001)
        assert q["p99"] == pytest.approx(0.099, abs=0.001)
        assert q["p50"] <= q["p95"] <= q["p99"]

    def test_phases_lists_only_observed(self, telemetry, tracker):
        assert tracker.phases() == []
        telemetry.emit("warehouse.apply", seconds=0.001)
        assert tracker.phases() == ["apply"]
        telemetry.emit("snapshot.read", view="v3", seconds=1e-5, snapshot_age=0.0, lag=0)
        telemetry.emit("warehouse.flush", seconds=0.002)
        assert tracker.phases() == ["apply", "flush", "read"]
        assert tracker.latency_quantiles("flush")["p50"] == pytest.approx(0.00175)


class TestErrorBudget:
    def test_clean_view_burns_nothing(self, telemetry, tracker):
        for _ in range(10):
            attempt(telemetry)
        assert budget(tracker) == {
            "passes": 10,
            "errors": 0,
            "error_rate": 0.0,
            "burn_rate": 0.0,
            "budget_remaining": 1.0,
        }

    def test_burn_rate_is_error_rate_over_budget(self, telemetry, tracker):
        # objective 0.999 -> budgeted error rate 0.001; observed rate 0.2
        for i in range(10):
            attempt(telemetry, ok=i % 5 != 0)
        assert budget(tracker)["error_rate"] == pytest.approx(0.2)
        assert budget(tracker)["burn_rate"] == pytest.approx(200.0)

    def test_budget_remaining_hits_zero(self, telemetry, tracker):
        for _ in range(5):
            attempt(telemetry, ok=False)
        assert budget(tracker)["budget_remaining"] == 0.0

    def test_unknown_view_is_intact(self, telemetry, tracker):
        attempt(telemetry)
        assert budget(tracker, "never_seen") is None
        assert "repro_slo_burn_rate{view=\"never_seen\"}" not in telemetry.openmetrics_text()

    def test_window_slides(self, telemetry, tracker, clock):
        attempt(telemetry, ok=False)
        assert budget(tracker)["error_rate"] == 1.0  # the first scrape's reading
        clock.advance(WINDOW_SECONDS + 1)  # past the window
        attempt(telemetry)
        assert budget(tracker)["passes"] == 1  # the error left with its reading
        assert budget(tracker)["error_rate"] == 0.0

    def test_window_counts_from_construction_until_a_reading_ages(
        self, telemetry, tracker, clock
    ):
        """The baseline is the newest reading at least one window old:
        with none yet, everything since construction counts."""
        attempt(telemetry, ok=False)
        clock.advance(WINDOW_SECONDS + 1)  # no scrape took a reading
        attempt(telemetry)
        assert budget(tracker)["passes"] == 2
        clock.advance(WINDOW_SECONDS - READING_SPACING)
        attempt(telemetry, ok=False)
        clock.advance(READING_SPACING)  # the reading above is one window old
        assert budget(tracker) == pytest.approx(
            {
                "passes": 1,
                "errors": 1,
                "error_rate": 1.0,
                "burn_rate": 1000.0,
                "budget_remaining": 0.0,
            }
        )

    def test_readings_are_spaced_and_bounded(self, telemetry, tracker, clock):
        for _ in range(1000):
            attempt(telemetry)
            tracker.snapshot()
            clock.advance(READING_SPACING / 10)
        assert len(tracker._readings) <= WINDOW_SECONDS / READING_SPACING + 2

    def test_concurrent_scrapes_keep_the_ring_ordered(self, telemetry, tracker, clock):
        """HTTP scrapes read the budgets on their own threads: the ring
        stays time-ordered and bounded, and every read sees every pass."""
        threads, rounds, errors = 4, 300, []
        start = threading.Barrier(threads)

        def scrape():
            try:
                start.wait(timeout=10)
                for _ in range(rounds):
                    attempt(telemetry)
                    clock.advance(READING_SPACING / 3)
                    assert budget(tracker)["passes"] >= 1
            except Exception as exc:  # a broken ring shows as an error here
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=scrape) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        times = [at for at, _ in tracker._readings]
        assert times == sorted(times)
        assert len(times) <= WINDOW_SECONDS / READING_SPACING + 2

    def test_default_objective_is_three_nines(self):
        assert DEFAULT_OBJECTIVE == 0.999


class TestSnapshotAndExport:
    def test_snapshot_shape(self, telemetry, tracker):
        telemetry.emit("warehouse.apply", seconds=0.002)
        attempt(telemetry)
        attempt(telemetry, ok=False)
        snap = tracker.snapshot()
        assert snap["objective"] == 0.999
        assert snap["window_seconds"] == 3600.0
        assert "p99" in snap["latency"]["apply"]
        view = snap["views"]["v3"]
        assert view["passes"] == 2
        assert view["errors"] == 1
        assert view["burn_rate"] == pytest.approx(500.0)

    def test_export_refreshes_gauges(self, telemetry, tracker):
        attempt(telemetry, seconds=0.010)
        attempt(telemetry, ok=False)
        tracker.export()
        registry = telemetry.metrics
        latency = registry.get("repro_slo_latency_seconds")
        # (5, 10] ms holds the one pass: p99 sits 0.99 of the way in
        assert latency.value(phase="maintenance", quantile="p99") == pytest.approx(0.00995)
        burn = registry.get("repro_slo_burn_rate")
        assert burn.value(view="v3") == pytest.approx(500.0)
        # second export overwrites rather than accumulating
        attempt(telemetry)
        attempt(telemetry)
        tracker.export()
        assert burn.value(view="v3") == pytest.approx(250.0)

    def test_exported_text_carries_quantiles(self, telemetry):
        attempt(telemetry, seconds=0.5)
        text = telemetry.openmetrics_text()
        assert 'repro_slo_latency_seconds{phase="maintenance",quantile="p50"}' in text
