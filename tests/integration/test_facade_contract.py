"""One facade, two transports: the same script against a local
warehouse, a 1-shard and a 2-shard sharded one must produce the same
result types, report keys, error types and final contents.

``Warehouse`` owns the change surface (insert / delete / delete_by_key /
update / apply_async / flush / transaction / close); ``ShardedWarehouse`` only
swaps the transport behind it (docs/ARCHITECTURE.md, "Facade contract").
Each script returns a *trace* — plain data describing what every call
returned or raised — and the sharded traces must equal the local one.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.request

import pytest

from repro import AsyncWarehouse
from repro.core import count_star
from repro.core.maintain import MaintenanceReport
from repro.errors import ConstraintError, FanOutError, MaintenanceError, ShardingError
from repro.runtime import ChangeTicket, FanOutResult
from repro.runtime.failpoints import FAILPOINTS
from repro.warehouse import Warehouse

from ..runtime.test_sharded_warehouse import build_db, order_lines_defn

FLAVOURS = {
    "local": {},
    "1-shard": {"shards": 1, "shard_backend": "thread"},
    "2-shards": {"shards": 2, "shard_backend": "thread"},
}
VIEW = "order_lines"


def make(flavour: str) -> Warehouse:
    wh = Warehouse(build_db(deferrable=True), **FLAVOURS[flavour])
    wh.create_view(VIEW, order_lines_defn())
    return wh


def shape(value):
    """A flavour-independent description of a facade return value."""
    if isinstance(value, MaintenanceReport):
        return ("report", value.view, value.table, value.operation)
    if isinstance(value, FanOutResult):
        return (
            "fan-out",
            value.table,
            value.operation,
            value.ok,
            sorted(value.reports),
            type(value.error).__name__,
        )
    if isinstance(value, dict):
        return {key: shape(item) for key, item in sorted(value.items())}
    if isinstance(value, list):
        return [shape(item) for item in value]
    raise AssertionError(f"unexpected facade return value {value!r}")


def raised(call, *args):
    with pytest.raises(Exception) as excinfo:
        call(*args)
    return type(excinfo.value).__name__


def contents(wh):
    return {
        "view": frozenset(wh.view_rows(VIEW)),
        "tables": {
            t: frozenset(wh.table_rows(t)) for t in sorted(wh.db.tables)
        },
        "definition": wh.definition(VIEW).name,
        "view_names": wh.view_names,
        "quarantined": wh.quarantined_views,
    }


def surface_script(wh):
    """Every public change/read entry point once, failures included."""
    trace = []
    note = lambda label, value: trace.append((label, value))  # noqa: E731

    note("insert", shape(wh.insert("orders", [(100, 1), (101, 2)])))
    note(
        "insert-lines",
        shape(wh.insert("lineitem", [(100, 0, 5), (101, 0, 7), (101, 1, 8)])),
    )
    note("delete", shape(wh.delete("lineitem", [(0, 0, 0)])))
    note(
        "delete_by_key",
        shape(wh.delete_by_key("lineitem", [(1, 0), (2, 1)])),
    )
    note("delete_by_key-none", len(wh.delete_by_key("lineitem", [(777, 7)])))
    # an empty statement changes nothing, so it reports nothing
    note("insert-empty", shape(wh.insert("lineitem", [])))
    note("delete-empty", shape(wh.delete("lineitem", [])))
    note("update", shape(wh.update("orders", [(100, 1)], [(100, 2)])))

    # queued changes resolve to FanOutResults, one per ticket, at flush
    tickets = [
        wh.apply_async("lineitem", "insert", [(okey, 9, okey)])
        for okey in range(4)
    ]
    assert all(isinstance(t, ChangeTicket) for t in tickets)
    note("flush", shape(wh.flush()))
    note("ticket.wait", shape(tickets[0].wait()))
    note("flush-empty", shape(wh.flush()))

    with wh.transaction() as txn:
        # the line precedes its order: the FK is deferred to commit
        lines = txn.insert("lineitem", [(300, 0, 1), (301, 0, 2)])
        note("txn.insert", shape(lines))
        orders = txn.insert("orders", [(300, 1), (301, 1)])
        note("txn.insert-orders", shape(orders))
        note("txn.delete", shape(txn.delete("lineitem", [(4, 0, 40)])))
    before = contents(wh)

    def rolled_back():
        with wh.transaction() as txn:
            txn.insert("orders", [(400, 1)])
            txn.insert("lineitem", [(400, 0, 1), (401, 0, 1)])
            raise RuntimeError("abort mid-transaction")

    def deferred_fk_violation():
        with wh.transaction() as txn:
            txn.insert("orders", [(600, 1)])
            txn.insert("lineitem", [(600, 0, 1), (999, 0, 1)])  # no order 999

    note("txn-rollback", raised(rolled_back))
    note("txn-deferred-fk", raised(deferred_fk_violation))
    # an update is one transaction: a bad new row undoes its delete too
    note("update-arity", raised(wh.update, "lineitem", [(3, 0, 30)], [(3, 0)]))
    note("update-fk", raised(wh.update, "lineitem", [(3, 0, 30)], [(99, 0, 21)]))
    assert contents(wh) == before

    # a constraint failure: raised synchronously, carried in result.error
    # when queued, re-raised by flush — and all-or-nothing either way
    duplicate = [(100, 0, 5), (5, 8, 58)]  # first row exists; second is new
    note("dup-sync", raised(wh.insert, "lineitem", duplicate))
    ticket = wh.apply_async("lineitem", "insert", duplicate)
    note("dup-ticket", shape(ticket.wait()))
    note("dup-flush", raised(wh.flush))
    note("unknown-op", raised(wh.apply_async, "lineitem", "upsert", []))
    assert contents(wh) == before

    # a view failing its pass: the change stands, the view is
    # quarantined, and the error says which views failed and which the
    # change quarantined — carried back from the shard when sharded
    with FAILPOINTS.armed("maintain.pass", view=VIEW):
        with pytest.raises(FanOutError) as excinfo:
            wh.insert("lineitem", [(3, 8, 38)])
    failure = excinfo.value
    note("view-failure", (sorted(failure.failures), failure.quarantined, sorted(failure.reports)))
    note("view-failure-quarantined", wh.quarantined_views)
    wh.repair_view(VIEW)

    async def front_end():
        awh = AsyncWarehouse(wh)
        ok = await awh.insert("lineitem", [(2, 7, 27), (3, 7, 37)])
        bad = await awh.insert("lineitem", duplicate)
        assert isinstance(bad.error, ConstraintError)
        with pytest.raises(ConstraintError):  # `bad` is still pending
            await awh.flush()
        flushed = await awh.flush()
        probe = await awh.query(VIEW, **{"orders.o_orderkey": 2})
        return shape(ok), shape(bad), shape(flushed), frozenset(probe)

    note("async", asyncio.run(front_end()))

    note("query", frozenset(wh.query(VIEW)))
    note(
        "query-key",
        wh.query(
            VIEW, **{"lineitem.l_orderkey": 101, "lineitem.l_linenumber": 1}
        ),
    )
    note(
        "query-predicate",
        frozenset(
            wh.query(VIEW, predicate=lambda r: r["lineitem.l_qty"] is None)
        ),
    )

    # a dropped view is gone everywhere; its name can be reused
    wh.drop_view(VIEW)
    note(
        "drop_view",
        (wh.view_names, raised(wh.query, VIEW), raised(wh.drop_view, VIEW)),
    )
    wh.create_view(VIEW, order_lines_defn())
    wh.check_consistency()
    note("final", contents(wh))
    return trace


def mixed_changes_script(wh):
    """Inserts and deletes across both tables, emptying one order."""
    ops = [
        ("insert", "orders", [(100, 1), (101, 2)]),
        ("insert", "lineitem", [(100, 0, 5), (101, 0, 7), (101, 1, 8)]),
        ("delete", "lineitem", [(0, 0, 0)]),
        ("delete", "lineitem", [(5, 0, 50), (5, 1, 51)]),
        ("delete", "orders", [(5, 2)]),
    ]
    trace = [
        shape(getattr(wh, kind)(table, rows)) for kind, table, rows in ops
    ]
    wh.check_consistency()
    trace.append(contents(wh))
    return trace


SCRIPTS = {"surface": surface_script, "mixed-changes": mixed_changes_script}


def run(flavour: str, script: str):
    with make(flavour) as wh:
        return SCRIPTS[script](wh)


@pytest.fixture(scope="module")
def local_traces():
    return {script: run("local", script) for script in SCRIPTS}


@pytest.mark.parametrize("script", SCRIPTS)
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_same_script_same_trace(flavour, script, local_traces):
    trace = run(flavour, script)
    assert trace == local_traces[script]


def test_surface_trace_is_what_the_contract_says(local_traces):
    """Pin the absolute shapes once (the parametrized test only says
    'equal to local')."""
    trace = dict(local_traces["surface"])
    report = ("report", VIEW, "orders", "insert")
    assert trace["insert"] == {VIEW: report}
    assert trace["update"] == [
        {VIEW: ("report", VIEW, "orders", "delete")},
        {VIEW: report},
    ]
    assert trace["flush"] == [
        ("fan-out", "lineitem", "insert", True, [VIEW], "NoneType")
    ] * 4
    assert trace["flush-empty"] == []
    assert trace["insert-empty"] == trace["delete-empty"] == {}
    assert trace["delete_by_key-none"] == 0
    assert trace["view-failure"] == ([VIEW], [VIEW], [])
    assert trace["view-failure-quarantined"] == [VIEW]
    assert trace["txn.insert"] == {
        VIEW: ("report", VIEW, "lineitem", "insert")
    }
    assert trace["txn-rollback"] == "RuntimeError"
    assert trace["txn-deferred-fk"] == trace["update-fk"] == "ConstraintError"
    assert trace["update-arity"] == "SchemaError"
    assert trace["dup-sync"] == trace["dup-flush"] == "ConstraintError"
    assert trace["dup-ticket"] == (
        "fan-out", "lineitem", "insert", False, [], "ConstraintError"
    )
    assert trace["unknown-op"] == "MaintenanceError"
    ok, bad, flushed, probe = trace["async"]
    assert ok[3] and ok[4] == [VIEW]
    assert bad == trace["dup-ticket"]
    assert flushed == [] and len(probe) == 3
    assert trace["drop_view"] == ([], "CatalogError", "CatalogError")
    assert trace["final"]["quarantined"] == []


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_an_update_is_one_journal_record_per_shard(flavour, tmp_path):
    """A same-key update of a referenced order commits as one
    transaction: one WAL record per participating shard (a prepare,
    when sharded), and locally one published snapshot."""
    with Warehouse(build_db(deferrable=True), wal_path=str(tmp_path / "wal"),
                   **FLAVOURS[flavour]) as wh:
        wh.create_view(VIEW, order_lines_defn())
        local = flavour == "local"
        published = wh.snapshots.published_count if local else None
        wh.update("orders", [(1, 1)], [(1, 2)])
        if local:
            assert wh.snapshots.published_count == published + 1
        assert (1, 2) in wh.table_rows("orders")
        wh.check_consistency()
    logs = {}
    for segment in tmp_path.glob("wal/**/seg-*.wal"):
        for line in segment.read_bytes().splitlines():
            record = json.loads(line.split(b" ", 1)[1])
            if record["kind"] in ("change", "txn"):
                logs.setdefault(segment.parent.name, []).append(record)
    assert len(logs) == (2 if flavour == "2-shards" else 1)
    for records in logs.values():
        assert [len(r["changes"]) for r in records] == [2]


def shard_threads():
    return {t for t in threading.enumerate() if t.name.startswith("repro-shard-")}


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_checkpoint_interval_without_a_checkpoint_dir_is_refused(flavour):
    """Every flavour refuses the same arguments with the same typed
    error, and a sharded one leaves no worker behind."""
    before = shard_threads()
    with pytest.raises(MaintenanceError, match="requires a checkpoint_dir"):
        Warehouse(build_db(), checkpoint_interval=5, **FLAVOURS[flavour])
    deadline = time.monotonic() + 5.0
    while shard_threads() - before and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not shard_threads() - before


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_obs_http_port_serves_healthz(flavour):
    """``obs_http_port=`` serves the introspection endpoint for every
    flavour once the transport is up, and ``close()`` stops it."""
    wh = Warehouse(build_db(), obs_http_port=0, **FLAVOURS[flavour])
    try:
        server = wh.obs_server
        assert server is not None and server.port
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as response:
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
    finally:
        wh.close()
    assert wh.obs_server is None


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_cold_restart_recovers_the_acked_history(flavour, tmp_path):
    """A WAL-only warehouse closed and reopened over the database it
    first opened with gets its acknowledged history back from
    ``recover()``: those tables are the restore point, at LSN 0, and
    every logged change replays over them — a deleted row stays gone."""
    settings = dict(FLAVOURS[flavour], wal_path=str(tmp_path / "wal"))
    wh = Warehouse(build_db(deferrable=True), **settings)
    wh.create_view(VIEW, order_lines_defn())
    wh.insert("orders", [(100, 1)])
    wh.insert("lineitem", [(100, 0, 5)])
    wh.delete("lineitem", [(0, 0, 0)])
    acked = contents(wh)
    wh.close()
    with Warehouse(build_db(deferrable=True), **settings) as again:
        again.create_view(VIEW, order_lines_defn())
        again.recover()
        assert again.last_recovery["replayed"] >= 3
        assert contents(again) == acked
        assert (0, 0, 0) not in again.table_rows("lineitem")
        again.check_consistency()


def per_order(wh, name):
    return wh.create_aggregated_view(
        name, order_lines_defn(name),
        group_by=["orders.o_orderkey"], aggregates=[count_star("lines")],
    )


#: what the local transport keeps in-process: a local warehouse answers
#: each by name, a sharded one refuses each with a ShardingError
WORKER_SIDE = {
    "create_aggregated_view": lambda wh: per_order(wh, "per_order_2"),
    "view": lambda wh: wh.view(VIEW),
    "aggregated_view": lambda wh: wh.aggregated_view("per_order"),
    "maintainer": lambda wh: wh.maintainer(VIEW),
    "serving_stats": lambda wh: wh.serving_stats(),
    "scheduler": lambda wh: wh.scheduler,
    "snapshots": lambda wh: wh.snapshots,
    "wal": lambda wh: wh.wal,
    "checkpoints": lambda wh: wh.checkpoints,
}


@pytest.mark.parametrize("name", WORKER_SIDE)
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_worker_side_surfaces_leave_the_contract_by_name(flavour, name):
    with make(flavour) as wh:
        if flavour == "local":
            per_order(wh, "per_order")
            WORKER_SIDE[name](wh)
        else:
            with pytest.raises(ShardingError):
                WORKER_SIDE[name](wh)
