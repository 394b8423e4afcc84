"""Scheduler + warehouse fan-out failure paths: quarantine at the first
failure, the graceful-degradation contract, the inline order of a
change's views, and the failed pass that undoes itself (so a quarantine
copies nothing)."""

import threading
import time

import pytest

from repro import Database, Q, eq
from repro.core import agg_sum, count_star
from repro.errors import FanOutError, MaintenanceError, UndoError
from repro.obs import Telemetry
from repro.runtime import FAILPOINTS, InjectedFault, MaintenanceScheduler, Task
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


class _BrokenMaintainer:
    """Delegates to a real ViewMaintainer but raises on every maintenance
    pass while ``broken`` is set."""

    def __init__(self, inner):
        self.inner = inner
        self.broken = True

    def __getattr__(self, attr):
        # view / definition / rebuild / rows / ...
        return getattr(self.inner, attr)

    def maintain(self, *args, **kwargs):
        if self.broken:
            raise MaintenanceError("storage hiccup")
        return self.inner.maintain(*args, **kwargs)


def make_broken(wh, name):
    wh._views[name] = _BrokenMaintainer(wh._views[name])
    return wh._views[name]


@pytest.fixture
def wh():
    db = build_db()
    warehouse = Warehouse(db, telemetry=Telemetry(), workers=2)
    warehouse.create_view("ol_a", order_lines_expr())
    warehouse.create_view("ol_b", order_lines_expr())
    warehouse.insert("orders", [(1, 100), (2, 200)])
    yield warehouse
    warehouse.scheduler.shutdown()


class TestQuarantine:
    def test_persistent_failure_is_quarantined_and_reported(self, wh):
        make_broken(wh, "ol_a")
        with pytest.raises(FanOutError) as excinfo:
            wh.insert("lineitem", [(1, 1, 5)])
        err = excinfo.value
        assert set(err.failures) == {"ol_a"}
        assert err.quarantined == ["ol_a"]
        assert "ol_b" in err.reports  # the healthy view was maintained
        assert wh.quarantined_views == ["ol_a"]

    def test_quarantined_view_is_excluded_then_stale(self, wh):
        make_broken(wh, "ol_a")
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
        broken = make_broken(wh, "ol_a")
        with pytest.raises(FanOutError):
            wh.insert("lineitem", [(1, 1, 5)])
        broken.broken = False  # the fault is fixed
        wh.repair_view("ol_a")
        assert wh.quarantined_views == []
        wh.insert("lineitem", [(2, 1, 7)])
        wh.check_consistency()  # repaired view is maintained again


class TestSchedulerCore:
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
        scheduler = MaintenanceScheduler(workers=2, telemetry=telemetry)

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

        scheduler = MaintenanceScheduler()  # workers=0
        result = scheduler.apply(
            lambda: ([Task("v", failing)], None), "t", "insert"
        )
        assert len(calls) == 1  # one attempt
        assert result.quarantined == ["v"]  # ... and its failure quarantines
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
        wh = Warehouse(db, workers=2)
        wh.create_view("ol", order_lines_expr())
        make_broken(wh, "ol")
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
    @pytest.mark.parametrize("failing", ["ol", "per_cust"])
    @pytest.mark.parametrize("workers", [0, 1])
    def test_single_attempt_ends_stale_not_half_applied(
        self, workers, failing, monkeypatch, no_undo_copy
    ):
        """A plain or an aggregated view whose pass fails between its
        primary and its secondary apply: ``maintain`` runs once, the
        change raises, the view is quarantined exactly as it was before
        the change, the other view stays exact, the undo copies nothing
        (the next publish reuses the view's last slice, which still reads
        as before the change), and ``repair_view`` restores recompute."""
        wh = Warehouse(build_db(), workers=workers)
        wh.create_view("ol", order_lines_expr())
        wh.create_aggregated_view(
            "per_cust",
            order_lines_expr(),
            ["orders.o_custkey"],
            [count_star("n"), agg_sum("lineitem.l_qty", "qty")],
        )
        wh.insert("orders", [(1, 100), (2, 200)])
        read = {
            "ol": lambda: frozenset(wh.view("ol").rows()),
            "per_cust": lambda: wh.aggregated_view("per_cust").rows(),
        }[failing]
        before, mid_pass, calls = read(), [], []
        target = wh._views[failing]
        maintain = target.maintain
        monkeypatch.setattr(
            target, "maintain", lambda *args: calls.append(args) or maintain(*args)
        )

        def strike(**_context):
            mid_pass.append(read())
            raise InjectedFault(f"{failing} fails half-applied")

        published = wh.snapshot().views[failing]
        try:
            with FAILPOINTS.armed(
                "maintain.pass", action="call", callback=strike, times=None,
                view=failing,
            ):
                with pytest.raises(FanOutError) as excinfo:
                    # order 1's first line: a primary insert, then a
                    # secondary delete of its NULL-padded row
                    wh.insert("lineitem", [(1, 1, 5)])
            assert len(calls) == len(mid_pass) == 1
            err = excinfo.value
            assert list(err.failures) == err.quarantined == [failing]
            assert wh.quarantined_views == [failing]
            assert set(err.reports) == {"ol", "per_cust"} - {failing}
            assert mid_pass[0] != before  # the primary landed ...
            assert read() == before  # ... and was undone
            wh.check_consistency()  # the other view is exact
            wh.insert("orders", [(3, 300)])  # published with the view stale
            # ... reusing its last slice, which reads as before the pass
            assert wh.snapshot().views[failing] is published
            assert frozenset(published.rows()) == frozenset(before)
            assert wh.snapshot().stale_views == {failing}
            wh.repair_view(failing)
            assert wh.quarantined_views == []
            wh.check_consistency()
        finally:
            wh.close()

    def test_undo_failure_rebuilds_and_quarantines_at_once(self, wh, monkeypatch):
        """An inverse apply that raises: the view is rebuilt (equal to
        recompute) and quarantined like any failed pass."""
        def broken_inverse(rows):
            raise RuntimeError("inverse apply failed")

        monkeypatch.setattr(wh.view("ol_a"), "delete_rows", broken_inverse)
        with FAILPOINTS.armed("maintain.pass", view="ol_a"):
            with pytest.raises(FanOutError) as excinfo:
                wh.insert("lineitem", [(1, 1, 5)])
        assert isinstance(excinfo.value.failures["ol_a"], UndoError)
        assert excinfo.value.quarantined == ["ol_a"]
        wh.maintainer("ol_a").check_consistency()  # rebuilt from the tables
