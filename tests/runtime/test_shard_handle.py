"""The shard handle's contract, identical on both backends: a spawned
process and a thread run the same serve loop at the far end of the same
pipe, so every test here runs against each.
"""

import multiprocessing
import threading
import time

import pytest

from repro.core.maintain import MaintenanceOptions, MaintenanceReport
from repro.errors import MaintenanceError
from repro.planner import wire
from repro.runtime.failpoints import FAILPOINTS
from repro.runtime.shardproc import ShardHandle

from .test_sharded_warehouse import build_db, order_lines_defn


def init_blob(orders=6, **settings):
    """What the coordinator sends one shard: schema, rows, settings."""
    db = build_db(orders=orders)
    return {
        "schema": wire.encode_schema(db),
        "rows": {name: list(t.rows) for name, t in db.tables.items()},
        "settings": settings,
    }


def live_workers():
    """Threads and processes running a shard's far end (not readers)."""
    return {t for t in threading.enumerate() if t.name == "repro-shard-0"} | {
        p for p in multiprocessing.active_children() if p.name == "repro-shard-0"
    }


def kill(handle):
    """Abrupt death: SIGKILL a process; a thread dies at the kill
    failpoint on its next command (no reply, no orderly close)."""
    if handle.backend == "process":
        handle.worker.kill()
    else:
        FAILPOINTS.arm("shard.worker.kill", action="raise", times=1, shard=0)
        handle.submit("ping")
    handle.worker.join(10.0)
    assert not handle.is_alive()


@pytest.fixture(params=["thread", "process"])
def backend(request):
    return request.param


@pytest.fixture
def handle(backend):
    handle = ShardHandle.start({0: init_blob()}, backend)[0]
    try:
        yield handle
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        handle.close(timeout=10.0)


def test_pipelined_submits_resolve_in_fifo_order(handle):
    replies = []
    for okey in range(100, 105):
        replies.append(
            handle.submit(
                "change", table="orders", operation="insert", rows=[(okey, 1)]
            )
        )
        replies.append(handle.submit("stats"))
    responses = [reply.wait(30.0) for reply in reversed(replies)][::-1]
    assert all(response["ok"] for response in responses)
    assert all("reports" in response for response in responses[::2])
    counts = [response["table_rows"]["orders"] for response in responses[1::2]]
    assert counts == [7, 8, 9, 10, 11]
    assert handle.queue_depth == 0


def test_the_pipe_carries_values(handle):
    """A view definition and its options go over as objects; reports
    come back as report objects and rows as tuples."""
    options = MaintenanceOptions(secondary_strategy="base")
    handle.call("create_view", view=order_lines_defn(), options=options)
    reports = handle.call(
        "change", table="lineitem", operation="insert", rows=[(0, 7, 70)]
    )["reports"]
    report = reports["order_lines"]
    assert isinstance(report, MaintenanceReport)
    assert (report.base_rows, report.operation) == (1, "insert")
    rows = handle.call(
        "query", view="order_lines", equalities={"lineitem.l_linenumber": 7}
    )["rows"]
    assert rows == [(0, 0, 0, 7, 70)]


def test_terminate_resolves_every_outstanding_reply_at_once(backend):
    handle = ShardHandle.start({0: init_blob(orders=4000)}, backend)[0]
    # materializing and checking a view over 8,000 lines keeps the
    # worker busy, so the ping behind them is still outstanding
    replies = [
        handle.submit("create_view", view=order_lines_defn(), options=None),
        handle.submit("check"),
        handle.submit("ping"),
    ]
    handle.terminate()
    responses = [reply.wait(0) for reply in replies]  # no waiting: all resolved
    assert responses[-1]["error"] == "ShardUnavailableError"
    assert handle.queue_depth == 0
    later = handle.submit("ping").wait(0)
    assert later["error"] == "ShardUnavailableError"
    assert "terminated" in later["message"]
    handle.worker.join(10.0)
    assert not handle.is_alive()


def test_close_returns_promptly_after_the_worker_died(handle):
    kill(handle)
    reply = handle.submit("ping")
    assert reply.wait(5.0)["error"] == "ShardUnavailableError"
    started = time.monotonic()
    handle.close(timeout=30.0)
    assert time.monotonic() - started < 5.0


def test_startup_failure_raises_typed_with_no_live_worker(backend):
    before = live_workers()
    with pytest.raises(MaintenanceError, match="requires a checkpoint_dir"):
        ShardHandle.start({0: init_blob(checkpoint_interval=5)}, backend)
    assert live_workers() == before


def test_a_startup_failure_on_shard_1_of_2_leaves_no_worker_alive(backend, tmp_path):
    """The workers of a sharded warehouse start side by side; when the
    second one fails to build its warehouse (its WAL path is a regular
    file), the construction raises and the first one, already up, is
    terminated with it."""
    from repro.errors import WalError
    from repro.warehouse import Warehouse

    def shard_workers():
        return {t for t in threading.enumerate() if t.name in ("repro-shard-0", "repro-shard-1")} | {
            p for p in multiprocessing.active_children()
            if p.name in ("repro-shard-0", "repro-shard-1")
        }

    before = shard_workers()
    (tmp_path / "wal").mkdir()
    (tmp_path / "wal" / "shard-1").write_text("not a segment directory")
    with pytest.raises(WalError, match="regular file"):
        Warehouse(build_db(), shards=2, shard_backend=backend, wal_path=str(tmp_path / "wal"))
    deadline = time.monotonic() + 10.0
    while shard_workers() != before and time.monotonic() < deadline:
        time.sleep(0.01)  # an abandoned thread exits at its next message
    assert shard_workers() == before
