"""Scheduler + warehouse fan-out failure paths: retry, quarantine, the
graceful-degradation contract, the inline order of a change's views, and
the failed pass that undoes itself (so a retry or a quarantine copies
nothing)."""

import threading
import time

import pytest

from repro import Database, Q, eq
from repro.core import agg_sum, count_star
from repro.errors import FanOutError, MaintenanceError, UndoError
from repro.obs import Telemetry
from repro.runtime import (
    FAILPOINTS,
    InjectedFault,
    MaintenanceScheduler,
    RetryPolicy,
    Task,
)
from repro.tpch import TPCHGenerator, oj_view
from repro.warehouse import Warehouse


def build_db():
    db = Database()
    db.create_table("orders", ["o_orderkey", "o_custkey"], key=["o_orderkey"])
    db.create_table(
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_qty"],
        key=["l_orderkey", "l_linenumber"],
    )
    db.add_foreign_key("lineitem", ["l_orderkey"], "orders", ["o_orderkey"])
    return db


def order_lines_expr():
    return (
        Q.table("orders")
        .left_outer_join(
            "lineitem", on=eq("lineitem.l_orderkey", "orders.o_orderkey")
        )
        .build()
    )


class _FlakyMaintainer:
    """Delegates to a real ViewMaintainer but raises on the first
    *fail_times* maintenance attempts."""

    def __init__(self, inner, fail_times):
        self.inner = inner
        self.remaining_failures = fail_times
        self.attempts = 0

    def __getattr__(self, attr):
        # view / definition / rebuild / rows / ...
        return getattr(self.inner, attr)

    def maintain(self, *args, **kwargs):
        self.attempts += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise MaintenanceError("transient storage hiccup")
        return self.inner.maintain(*args, **kwargs)


def make_flaky(wh, name, fail_times):
    wh._views[name] = _FlakyMaintainer(wh._views[name], fail_times)
    return wh._views[name]


@pytest.fixture
def wh():
    db = build_db()
    warehouse = Warehouse(
        db,
        telemetry=Telemetry(),
        workers=2,
        retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.001),
    )
    warehouse.create_view("ol_a", order_lines_expr())
    warehouse.create_view("ol_b", order_lines_expr())
    warehouse.insert("orders", [(1, 100), (2, 200)])
    yield warehouse
    warehouse.scheduler.shutdown()


class TestRetry:
    def test_transient_failure_recovers_after_retry(self, wh):
        flaky = make_flaky(wh, "ol_a", fail_times=2)
        reports = wh.insert("lineitem", [(1, 1, 5), (2, 1, 7)])
        assert set(reports) == {"ol_a", "ol_b"}
        assert flaky.attempts == 3  # 2 failures + 1 success
        assert wh.quarantined_views == []
        wh.check_consistency()  # retries restored state before re-running
        # the retries were metered
        retries = wh.telemetry.health.reliability()["ol_a"]["retries"]
        assert retries == 2

    def test_retry_restores_view_between_attempts(self, wh):
        # the first attempt fails half-applied: its primary insert landed,
        # the secondary (removing order 1's NULL pad) never ran
        FAILPOINTS.reset()
        before = len(wh.view("ol_a"))
        with FAILPOINTS.armed("maintain.pass", view="ol_a"):
            wh.insert("lineitem", [(1, 1, 5)])
        assert FAILPOINTS.fired("maintain.pass") == 1
        assert wh.scheduler.state("ol_a").retries == 1
        assert len(wh.view("ol_a")) == before  # row 1 replaced its NULL pad
        wh.check_consistency()


class TestQuarantine:
    def test_persistent_failure_is_quarantined_and_reported(self, wh):
        make_flaky(wh, "ol_a", fail_times=10_000)
        with pytest.raises(FanOutError) as excinfo:
            wh.insert("lineitem", [(1, 1, 5)])
        err = excinfo.value
        assert set(err.failures) == {"ol_a"}
        assert err.quarantined == ["ol_a"]
        assert "ol_b" in err.reports  # the healthy view was maintained
        assert wh.quarantined_views == ["ol_a"]

    def test_quarantined_view_is_excluded_then_stale(self, wh):
        make_flaky(wh, "ol_a", fail_times=10_000)
        with pytest.raises(FanOutError):
            wh.insert("lineitem", [(1, 1, 5)])
        stale_rows = dict(wh.view("ol_a")._rows)
        # subsequent changes no longer raise: the failing view is skipped
        reports = wh.insert("lineitem", [(2, 1, 7)])
        assert set(reports) == {"ol_b"}
        assert wh.view("ol_a")._rows == stale_rows  # untouched = stale
        # and the dashboard surfaces it
        assert "ol_a" in wh.telemetry.health.quarantined()
        assert "QUARANTINED" in wh.dashboard() or "quarantined" in wh.dashboard()

    def test_repair_view_reinstates(self, wh):
        flaky = make_flaky(wh, "ol_a", fail_times=10_000)
        with pytest.raises(FanOutError):
            wh.insert("lineitem", [(1, 1, 5)])
        flaky.remaining_failures = 0  # the fault is fixed
        wh.repair_view("ol_a")
        assert wh.quarantined_views == []
        wh.insert("lineitem", [(2, 1, 7)])
        wh.check_consistency()  # repaired view is maintained again


class TestSchedulerCore:
    def test_backoff_delays_are_bounded(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay_seconds=0.01, max_delay_seconds=0.05
        )
        assert policy.delay(1) == 0.01
        assert policy.delay(2) == 0.02
        assert policy.delay(3) == 0.04
        assert policy.delay(4) == 0.05  # capped
        assert policy.delay(9) == 0.05

    def test_rejects_a_policy_that_attempts_nothing(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_seconds=-0.001)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay_seconds=-1.0)

    def test_views_run_one_at_a_time_in_order_on_the_dispatcher(self):
        scheduler = MaintenanceScheduler(workers=2)
        ran = []
        active = [0]
        peak = [0]

        def task(name):
            def run():
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                ran.append((name, threading.current_thread().name))
                time.sleep(0.005)
                active[0] -= 1
                return name

            return Task(name, run)

        names = [f"v{i}" for i in range(4)]
        try:
            result = scheduler.apply(
                lambda: ([task(name) for name in names], None),
                "t",
                "insert",
            )
            assert result.ok and list(result.reports) == names
            assert peak[0] == 1
            assert ran == [(name, "repro-dispatcher") for name in names]
            assert not [
                t.name
                for t in threading.enumerate()
                if t.name.startswith("repro-maint")
            ]
        finally:
            scheduler.shutdown()

    def test_error_text_saying_timed_out_is_not_a_deadline_miss(self):
        # e.g. ShardUnavailableError("timed out after 5s waiting for a
        # shard reply"): the maintainer raised, so the view is
        # quarantined with that reason and nothing else is reported
        telemetry = Telemetry()
        scheduler = MaintenanceScheduler(
            workers=2, retry=RetryPolicy(max_attempts=1), telemetry=telemetry
        )

        def failing():
            raise MaintenanceError("timed out after 5s waiting for a reply")

        try:
            result = scheduler.apply(
                lambda: ([Task("v", failing), Task("fine", lambda: "ok")], None),
                "t",
                "insert",
            )
            assert result.quarantined == ["v"]
            events = telemetry.recorder.events
            assert [e.kind for e in events] == ["view.quarantined"]
            assert "timed out" in events[0].attrs["reason"]
        finally:
            scheduler.shutdown()

    def test_serial_scheduler_single_attempt_quarantines(self):
        calls = []

        def failing():
            calls.append(1)
            raise MaintenanceError("boom")

        scheduler = MaintenanceScheduler()  # workers=0, retry=None
        result = scheduler.apply(
            lambda: ([Task("v", failing)], None), "t", "insert"
        )
        assert len(calls) == 1  # no retry
        assert result.quarantined == ["v"]  # exhausted -> always quarantined
        assert scheduler.is_quarantined("v")
        skipped = scheduler.apply(
            lambda: ([Task("v", failing)], None), "t", "insert"
        )
        assert skipped.skipped == ["v"] and len(calls) == 1
        scheduler.reinstate("v")
        assert not scheduler.is_quarantined("v")
        scheduler.shutdown()

    def test_queue_depth_gauge_returns_to_zero(self):
        telemetry = Telemetry()
        scheduler = MaintenanceScheduler(workers=1, telemetry=telemetry)
        try:
            tickets = [
                scheduler.submit(
                    lambda: ([Task("v", lambda: time.sleep(0.005))], None),
                    "t",
                    "insert",
                )
                for _ in range(5)
            ]
            for ticket in tickets:
                ticket.wait()
            scheduler.drain()
        finally:
            scheduler.shutdown()
        gauge = telemetry.metrics.get("repro_scheduler_queue_depth")
        assert gauge.value() == 0


class TestAsync:
    def test_apply_async_then_flush(self):
        db = build_db()
        wh = Warehouse(db, workers=2)
        wh.create_view("ol", order_lines_expr())
        try:
            wh.apply_async("orders", "insert", [(1, 100)])
            wh.apply_async("lineitem", "insert", [(1, 1, 5)])
            wh.apply_async("orders", "insert", [(2, 200)])
            results = wh.flush()
            assert [r.ok for r in results] == [True, True, True]
            wh.check_consistency()
        finally:
            wh.scheduler.shutdown()

    def test_close_twice_then_flush_returns(self):
        wh = Warehouse(build_db(), workers=1)
        wh.create_view("ol", order_lines_expr())
        wh.insert("orders", [(1, 100)])

        def close_twice():
            wh.close()
            wh.close()
            wh.flush()

        closer = threading.Thread(target=close_twice, daemon=True)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive(), "close()/flush() after close() hung"

    def test_flush_surfaces_async_failures(self):
        db = build_db()
        wh = Warehouse(
            db,
            workers=2,
            retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.001),
        )
        wh.create_view("ol", order_lines_expr())
        make_flaky(wh, "ol", fail_times=10_000)
        try:
            wh.apply_async("orders", "insert", [(1, 100)])
            with pytest.raises(FanOutError) as excinfo:
                wh.flush()
            assert excinfo.value.quarantined == ["ol"]
        finally:
            wh.scheduler.shutdown()


# ---------------------------------------------------------------------------
# a failed pass undoes itself
# ---------------------------------------------------------------------------
class TestFailedPassIsUndone:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_single_attempt_ends_stale_not_half_applied(self, workers):
        """retry=None: a fault between the primary and the secondary
        apply quarantines the plain and the aggregated view exactly as
        they were before the change."""
        wh = Warehouse(build_db(), workers=workers)
        wh.create_view("ol", order_lines_expr())
        wh.create_aggregated_view(
            "per_cust",
            order_lines_expr(),
            ["orders.o_custkey"],
            [count_star("n"), agg_sum("lineitem.l_qty", "qty")],
        )
        wh.insert("orders", [(1, 100), (2, 200)])
        contents = {
            "ol": lambda: frozenset(wh.view("ol").rows()),
            "per_cust": lambda: wh.aggregated_view("per_cust").rows(),
        }
        before = {name: read() for name, read in contents.items()}
        mid_pass = {}

        def strike(view, **_context):
            mid_pass[view] = contents[view]()
            raise InjectedFault(f"{view} fails half-applied")

        try:
            with FAILPOINTS.armed(
                "maintain.pass", action="call", callback=strike, times=None
            ):
                with pytest.raises(FanOutError):
                    # order 1's first line: a primary insert, then a
                    # secondary delete of its NULL-padded row
                    wh.insert("lineitem", [(1, 1, 5)])
            assert wh.quarantined_views == ["ol", "per_cust"]
            for name, read in contents.items():
                assert mid_pass[name] != before[name], name  # primary landed
                assert read() == before[name], name  # ... and was undone
            for name in contents:
                wh.repair_view(name)
            wh.check_consistency()
        finally:
            wh.close()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_retried_tpch_change_copies_no_view(self, workers, tiny_tpch, no_undo_copy):
        """A 6-row change over the TPC-H outer-join view fails
        half-applied once and is retried: no view copy, no wholesale
        reset, no database copy anywhere in either attempt."""
        batches = TPCHGenerator(scale_factor=0.001, seed=42)  # tiny_tpch's twin
        batches.build()
        wh = Warehouse(
            tiny_tpch,
            workers=workers,
            retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.0),
        )
        wh.create_view("oj_view", oj_view())
        try:
            FAILPOINTS.reset()
            with FAILPOINTS.armed("maintain.pass", view="oj_view"):
                reports = wh.insert(
                    "lineitem", batches.lineitem_insert_batch(6, seed=1)
                )
            assert FAILPOINTS.fired("maintain.pass") == 1
            report = reports["oj_view"]
            assert report.primary_rows == 6 and report.total_view_changes > 6
            assert wh.scheduler.state("oj_view").retries == 1
            wh.check_consistency()
        finally:
            FAILPOINTS.reset()
            wh.close()

    def test_undo_failure_rebuilds_and_quarantines_at_once(self, wh, monkeypatch):
        """An inverse apply that raises: the view is rebuilt (equal to
        recompute) and quarantined after one attempt, never retried."""
        def broken_inverse(rows):
            raise RuntimeError("inverse apply failed")

        monkeypatch.setattr(wh.view("ol_a"), "delete_rows", broken_inverse)
        with FAILPOINTS.armed("maintain.pass", view="ol_a"):
            with pytest.raises(FanOutError) as excinfo:
                wh.insert("lineitem", [(1, 1, 5)])
        assert isinstance(excinfo.value.failures["ol_a"], UndoError)
        assert excinfo.value.quarantined == ["ol_a"]
        state = wh.scheduler.state("ol_a")
        assert (state.failures, state.retries) == (1, 0)
        wh.maintainer("ol_a").check_consistency()  # rebuilt from the tables
