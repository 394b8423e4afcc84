"""Admission control on the async change path.

With ``max_queue_depth`` set, :meth:`Warehouse.apply_async` stops
buffering without limit: a full queue either blocks the submitter
(``overflow="block"``) or sheds the change with
:class:`BackpressureError` *before any base-table effect*
(``overflow="shed"``).  Both paths are observable through ``repro.obs``
(shed counter, queue-wait histogram).

The dispatcher is parked deterministically by arming the
``scheduler.fanout`` failpoint with a callback that waits on an event:
one change sits in flight, the queue holds ``max_queue_depth`` more,
and every further submit hits admission control.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import BackpressureError
from repro.obs import Telemetry
from repro.runtime import FAILPOINTS
from repro.warehouse import Warehouse

from .test_scheduler import build_db, order_lines_expr


@pytest.fixture(autouse=True)
def clean_failpoints():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


def parked_warehouse(overflow, telemetry=None):
    """A 1-worker warehouse whose dispatcher is parked on an event.

    Returns ``(warehouse, release)`` — call ``release()`` before
    flushing or closing.
    """
    gate = threading.Event()
    wh = Warehouse(
        build_db(),
        telemetry,
        workers=1,
        max_queue_depth=1,
        overflow=overflow,
    )
    wh.create_view("ol", order_lines_expr())
    # armed only now: create_view()'s internal drain barrier passes
    # through the same fan-out site and must not consume the arm
    FAILPOINTS.arm(
        "scheduler.fanout",
        action="call",
        times=1,
        callback=lambda **ctx: gate.wait(timeout=30),
    )
    return wh, gate.set


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestShedPolicy:
    def test_full_queue_sheds_before_any_base_table_effect(self):
        telemetry = Telemetry()
        wh, release = parked_warehouse("shed", telemetry)
        try:
            # the dispatcher dequeues #1 and parks mid-fan-out...
            wh.apply_async("orders", "insert", [(1, 100)])
            assert wait_until(
                lambda: FAILPOINTS.fired("scheduler.fanout") == 1
            )
            # ...#2 fills the queue, #3 must shed
            wh.apply_async("orders", "insert", [(2, 200)])
            with pytest.raises(BackpressureError):
                wh.apply_async("orders", "insert", [(3, 300)])

            # shed strictly before the base-table write and the WAL
            assert (3, 300) not in wh.db.tables["orders"].rows
            assert wh.scheduler.load_shed_count == 1
            shed = telemetry.metrics.get("repro_scheduler_load_shed_total")
            assert shed.value(table="orders") == 1
        finally:
            release()
        wh.flush()
        # the admitted changes landed; the shed one stayed out
        assert sorted(wh.db.tables["orders"].rows) == [(1, 100), (2, 200)]
        wh.check_consistency()
        wh.scheduler.shutdown()

    def test_queue_wait_histogram_records_dequeues(self):
        telemetry = Telemetry()
        wh, release = parked_warehouse("shed", telemetry)
        try:
            wh.apply_async("orders", "insert", [(1, 100)])
            assert wait_until(
                lambda: FAILPOINTS.fired("scheduler.fanout") == 1
            )
            wh.apply_async("orders", "insert", [(2, 200)])
        finally:
            release()
        wh.flush()
        series = telemetry.metrics.get(
            "repro_scheduler_queue_wait_seconds"
        ).labels()
        assert series.count >= 2  # one observation per dequeued change
        wh.scheduler.shutdown()


class TestBlockPolicy:
    def test_full_queue_blocks_until_capacity_frees(self):
        wh, release = parked_warehouse("block")
        submitted = threading.Event()

        def overflow_submit():
            wh.apply_async("orders", "insert", [(3, 300)])
            submitted.set()

        try:
            wh.apply_async("orders", "insert", [(1, 100)])
            assert wait_until(
                lambda: FAILPOINTS.fired("scheduler.fanout") == 1
            )
            wh.apply_async("orders", "insert", [(2, 200)])

            blocked = threading.Thread(target=overflow_submit)
            blocked.start()
            # the submitter is genuinely parked, not failing fast
            assert not submitted.wait(timeout=0.2)
            assert wh.scheduler.load_shed_count == 0
        finally:
            release()
        assert submitted.wait(timeout=10)
        blocked.join(timeout=10)
        wh.flush()
        assert sorted(wh.db.tables["orders"].rows) == [
            (1, 100),
            (2, 200),
            (3, 300),
        ]
        wh.check_consistency()
        wh.scheduler.shutdown()


class TestPolicyValidation:
    def test_unknown_overflow_policy_is_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            Warehouse(build_db(), max_queue_depth=4, overflow="drop")

    def test_unbounded_queue_never_sheds(self):
        wh = Warehouse(build_db(), workers=1, overflow="shed")
        wh.create_view("ol", order_lines_expr())
        for o in range(50):
            wh.apply_async("orders", "insert", [(o, o)])
        wh.flush()
        assert wh.scheduler.load_shed_count == 0
        assert len(wh.db.tables["orders"].rows) == 50
        wh.scheduler.shutdown()
