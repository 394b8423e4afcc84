"""Shard supervision: fail-fast on dead workers, reincarnation from the
WAL lineage, flapping quarantine, and the construction/close fixes.

Thread-backend workers except the one process-backend acceptance test
(the ISSUE's chaos criterion: SIGKILL a real worker process mid-load,
observe typed failures within the deadline, automatic reincarnation,
and a consistent merged state).
"""

import threading
import time
from functools import partial

import pytest

from repro.core.maintain import MaintenanceOptions
from repro.errors import MaintenanceError, ShardingError, ShardUnavailableError
from repro.runtime import ShardingSpec
from repro.runtime.failpoints import FAILPOINTS
from repro.runtime.shardproc import WORKER_GC_THRESHOLD, ShardHandle
from repro.warehouse import Warehouse

from .test_checkpoint import flip_byte
from .test_sharded_warehouse import build_db, order_lines_defn


def make_supervised(tmp_path=None, shards=2, **kwargs):
    if tmp_path is not None:
        kwargs.setdefault("wal_path", str(tmp_path / "wal"))
    kwargs.setdefault("shard_backend", "thread")
    kwargs.setdefault("call_deadline_seconds", 2.0)
    kwargs.setdefault("probe_timeout_seconds", 0.3)
    wh = Warehouse(build_db(), shards=shards, **kwargs)
    wh.create_view("order_lines", order_lines_defn())
    return wh


def kill_worker(wh, shard):
    """Simulate SIGKILL on a thread-backend worker: next command makes
    the serve loop die abruptly (no reply, no orderly close)."""
    FAILPOINTS.arm("shard.worker.kill", action="raise", times=1, shard=shard)


def wait_all_up(wh, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if wh.supervisor.quiesced and all(
            s["state"] == "up" for s in wh.supervisor.status().values()
        ):
            return True
        time.sleep(0.02)
    return False


# ---------------------------------------------------------------------------
# detection + fail-fast
# ---------------------------------------------------------------------------
def test_dead_worker_fails_calls_fast_and_reincarnates(tmp_path):
    wh = make_supervised(tmp_path)
    try:
        wh.insert("orders", [(500, 1)])
        kill_worker(wh, shard=1)
        started = time.monotonic()
        with pytest.raises(ShardUnavailableError):
            # replicated: touches both shards, shard 1 dies mid-call
            wh.insert("orders", [(501, 2)])
        assert time.monotonic() - started < wh.call_deadline + 5.0
        assert wait_all_up(wh), wh.supervisor.status()
        status = wh.supervisor.status()
        assert status[1]["restarts"] == 1
        assert wh.last_recovery["kind"] == "reincarnation"
        assert not wh.last_recovery["degraded"]
        # the reincarnated shard serves again and the tier is coherent
        wh.insert("orders", [(502, 0)])
        wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


def test_stalled_worker_is_probed_then_replaced(tmp_path):
    wh = make_supervised(tmp_path, call_deadline_seconds=0.4)
    try:
        FAILPOINTS.arm(
            "shard.worker.stall",
            action="call",
            times=1,
            callback=lambda **_ctx: time.sleep(1.5),
            shard=0,
        )
        with pytest.raises(ShardUnavailableError):
            wh.insert("orders", [(510, 1)])
        assert wait_all_up(wh), wh.supervisor.status()
        assert wh.supervisor.status()[0]["restarts"] == 1
        wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.worker.stall")
        wh.close()


def test_reincarnation_replays_wal_lineage(tmp_path):
    wh = make_supervised(tmp_path)
    try:
        wh.insert("orders", [(520, 1)])
        wh.insert("lineitem", [(520, 0, 9)])
        kill_worker(wh, shard=0)
        with pytest.raises(ShardUnavailableError):
            wh.insert("orders", [(521, 2)])
        assert wait_all_up(wh)
        merged = wh.merged_database()
        # pre-kill durable work survived the worker's death
        assert 520 in {r[0] for r in merged.tables["orders"].rows}
        assert (520, 0) in {r[:2] for r in merged.tables["lineitem"].rows}
        wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


def test_reincarnation_keeps_the_loss_its_first_open_found(tmp_path):
    """A reincarnated worker opens its WAL twice: at start-up, which
    moves a CRC-failed segment to ``corrupt/``, and in ``recover``.  The
    second open must still know records were lost, so the replay of a
    re-insert evicts the row the lost delete would have removed."""
    wh = make_supervised(
        tmp_path, segment_bytes=64,
        sharding=ShardingSpec(2, {"lineitem": ("l_orderkey",)}),
    )
    try:
        wh.insert("lineitem", [(1, 7, 5)])
        wh.delete("lineitem", [(1, 7, 5)])
        wh.insert("lineitem", [(1, 7, 9)])
        wh.flush()
        deletes = [
            segment for segment in (tmp_path / "wal").glob("shard-*/seg-*.wal")
            if b'"op":"delete"' in segment.read_bytes()
        ]
        assert len(deletes) == 1
        flip_byte(deletes[0], offset=12)
        kill_worker(wh, shard=int(deletes[0].parent.name.split("-")[1]))
        with pytest.raises(ShardUnavailableError):
            wh.insert("orders", [(531, 1)])  # replicated: reaches the victim
        assert wait_all_up(wh), wh.supervisor.status()
        assert sum(s["restarts"] for s in wh.supervisor.status().values()) == 1
        assert wh.last_recovery["degraded"]
        assert wh.last_recovery["summary"]["quarantined_segments"]
        lines = {row[:2]: row for row in wh.table_rows("lineitem")}
        assert lines[(1, 7)] == (1, 7, 9)
        wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


def test_reincarnation_without_wal_is_degraded(tmp_path):
    # no durable lineage: the shard restarts from its initial rows —
    # replicated tables too — and post-construction history is lost:
    # reported, not hidden
    wh = make_supervised(tmp_path=None)
    try:
        wh.insert("orders", [(529, 1)])
        kill_worker(wh, shard=1)
        with pytest.raises(ShardUnavailableError):
            wh.insert("orders", [(530, 1)])
        assert wait_all_up(wh)
        assert wh.last_recovery["degraded"]
        with pytest.raises(MaintenanceError, match="replicated table 'orders' diverged on shard 1"):
            wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


def test_maintenance_options_survive_the_pipe_and_a_reincarnation(tmp_path):
    """A view's options reach every worker and come back with the one
    that replaces a killed worker: its orphan-row terms still run from
    the base tables, and the merged view equals the local one."""
    options = MaintenanceOptions(secondary_strategy="base", left_deep=False)
    local = Warehouse(build_db())
    wh = make_supervised(tmp_path)
    try:
        for target in (local, wh):
            target.create_view("base_lines", order_lines_defn("base_lines"), options)

        def lines_for_a_new_order(okey):
            """A first line for a new order: it replaces the order's
            null-extended row, a secondary term."""
            strategies = []
            for target in (local, wh):
                target.insert("orders", [(okey, 1)])
                reports = target.insert("lineitem", [(okey, 0, 1)])
                strategies.append(reports["base_lines"].secondary_strategy_used)
            return strategies

        local_used, sharded_used = lines_for_a_new_order(540)
        assert set(sharded_used.values()) == {"base"} and sharded_used == local_used
        (shard,) = wh.router.split_rows("lineitem", [(541, 0, 1)])
        kill_worker(wh, shard=shard)
        with pytest.raises(ShardUnavailableError):
            wh.insert("orders", [(599, 1)])  # rolled back on every shard
        assert wait_all_up(wh), wh.supervisor.status()
        assert wh.supervisor.status()[shard]["restarts"] == 1
        local_used, sharded_used = lines_for_a_new_order(541)
        assert set(sharded_used.values()) == {"base"} and sharded_used == local_used
        assert sorted(wh.view_rows("base_lines")) == sorted(local.view_rows("base_lines"))
        wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()
        local.close()


# ---------------------------------------------------------------------------
# a worker dying inside a multi-shard statement ends as the decision log says
# ---------------------------------------------------------------------------
SPREAD = [(o % 6, 100 + o, o) for o in range(16)]  # lineitem rows, both shards


def lineitem_keys(wh):
    return {row[:2] for row in wh.merged_database().tables["lineitem"].rows}


def insert_in_transaction(wh, table, rows):
    with wh.transaction() as txn:
        txn.insert(table, rows)


@pytest.mark.parametrize("insert", ["statement", "transaction"])
def test_kill_at_commit_keeps_the_committed_half(tmp_path, insert):
    """The decision is durable and shard 0 commits; shard 1 dies before
    its commit runs.  Its prepare was durable too, so the replacement
    reopens it in doubt and commits it: all 16 rows survive (with a
    volatile prepare, shard 1's 8 were lost)."""
    wh = make_supervised(tmp_path)
    apply = wh.insert if insert == "statement" else partial(insert_in_transaction, wh)
    try:
        assert len(wh.router.split_rows("lineitem", SPREAD)) == 2
        FAILPOINTS.arm("shard.worker.kill", shard=1, cmd="txn_commit")
        with pytest.raises(ShardUnavailableError):
            apply("lineitem", SPREAD)  # failed past the commit point
        assert wait_all_up(wh), wh.supervisor.status()
        wh.recover()
        assert {row[:2] for row in SPREAD} <= lineitem_keys(wh)
        assert wh.txnlog.pending() == []
        wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


def test_replacement_replays_a_prepare_in_its_log_position(tmp_path):
    """A pipelined insert of key K lands on shard 1 while the multi-shard
    delete of K is still prepared there, then shard 1 dies at its commit.
    The replacement replays the prepare where the log holds it — before
    the insert — so the committed history ends with the new K."""
    wh = make_supervised(tmp_path)
    try:
        doomed = sorted(wh.merged_database().tables["lineitem"].rows)
        parts = wh.router.split_rows("lineitem", doomed)
        assert len(parts) == 2
        k = (parts[1][0][0], parts[1][0][1], 999)
        FAILPOINTS.arm("shard.worker.kill", shard=1, cmd="txn_commit")
        deleted = wh.apply_async("lineitem", "delete", doomed)
        inserted = wh.apply_async("lineitem", "insert", [k])
        assert isinstance(deleted.wait().error, ShardUnavailableError)
        assert inserted.wait().ok
        assert wait_all_up(wh), wh.supervisor.status()
        wh.recover()
        assert sorted(wh.merged_database().tables["lineitem"].rows) == [k]
        assert wh.txnlog.pending() == []
        wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


def test_worker_dying_between_prepare_and_decision_aborts_everywhere(tmp_path):
    """Shard 1 prepares durably, then dies before its vote arrives: the
    coordinator aborts, and the replacement — which reopened the prepare
    in doubt — lands on the same side, with no recover() needed."""
    wh = make_supervised(tmp_path)
    try:
        FAILPOINTS.arm("shard.pipe.drop", action="skip", shard=1, cmd="txn_stmt")
        with pytest.raises(ShardUnavailableError):
            wh.insert("lineitem", SPREAD)
        assert wait_all_up(wh), wh.supervisor.status()
        assert not {row[:2] for row in SPREAD} & lineitem_keys(wh)
        assert wh.shard_stats()["shards"][1]["open_txns"] == []
        wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.pipe.drop")
        wh.close()


def test_reincarnation_leaves_an_undecided_transaction_to_the_coordinator(
    tmp_path,
):
    """Shard 1 dies after every shard prepared, while the coordinator
    is still deciding.  The replacement must not presume abort: it keeps
    the transaction in doubt, and the coordinator's commit lands it."""
    wh = make_supervised(tmp_path)

    def kill_shard_1(**_ctx):
        kill_worker(wh, shard=1)
        # answered (unavailable) once the revive has begun
        wh._handles[1].submit("ping").wait(10.0)
        assert wait_all_up(wh), wh.supervisor.status()

    try:
        with FAILPOINTS.armed("txn.coordinator.prepared", action="call", callback=kill_shard_1):
            wh.insert("lineitem", SPREAD)  # decided and committed after the revive
        assert wh.supervisor.status()[1]["restarts"] == 1
        assert {row[:2] for row in SPREAD} <= lineitem_keys(wh)
        assert wh.txnlog.pending() == []
        wh.check_consistency()
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


def test_no_checkpoint_covers_an_open_transaction(tmp_path):
    """While a prepared transaction is open on a shard, its
    auto-checkpoint waits and an explicit one refuses; recover() then
    aborts the undecided transaction, and nothing of it comes back."""
    wh = make_supervised(
        tmp_path, checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_interval=1
    )
    try:
        txn = wh.transaction()
        txn.insert("lineitem", SPREAD)
        txn.prepare()  # durable on both shards, undecided
        wh.insert("lineitem", [(0, 50, 1)])  # one shard: would auto-checkpoint
        assert not any((tmp_path / "ckpt").rglob("ckpt-*"))
        with pytest.raises(MaintenanceError, match="transaction open"):
            wh.checkpoint()
        wh.recover()
        assert lineitem_keys(wh) & {(0, 50), *(row[:2] for row in SPREAD)} == {(0, 50)}
        wh.check_consistency()
    finally:
        wh.close()


# ---------------------------------------------------------------------------
# flapping -> quarantine
# ---------------------------------------------------------------------------
def test_flapping_shard_is_quarantined_and_health_degrades(tmp_path):
    wh = make_supervised(tmp_path, restart_budget=2)
    try:
        for attempt in range(3):
            kill_worker(wh, shard=1)
            try:
                wh.insert("orders", [(540 + attempt, 1)])
            except ShardUnavailableError:
                pass
            wh.supervisor.wait_quiesced(15.0)
            if wh.supervisor.is_quarantined(1):
                break
        assert wh.supervisor.is_quarantined(1)
        assert wh.supervisor.degraded
        assert wh._handles[1]._closed.startswith("shard 1 is quarantined")
        assert wh.supervisor.status()[1]["state"] == "quarantined"
        assert wh.last_recovery["kind"] == "quarantine"
        assert wh.last_recovery["degraded"]
        assert wh.last_recovery["quarantined_shards"] == [1]
        # every later call fails fast with the typed error, no hang
        with pytest.raises(ShardUnavailableError):
            wh.insert("orders", [(560, 1)])
        # /healthz turns degraded (-> 503) on a quarantined shard
        from repro.obs.exposition import ObsServer

        payload = ObsServer(wh.telemetry, warehouse=wh).health_payload()
        assert payload["status"] == "degraded"
        assert payload["last_recovery"]["quarantined_shards"] == [1]
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


# ---------------------------------------------------------------------------
# satellite fixes: construction leak, fast close
# ---------------------------------------------------------------------------
def test_construction_failure_terminates_spawned_workers(monkeypatch):
    """If the Nth worker fails to spawn, the N-1 already-spawned workers
    must be terminated, not leaked."""
    from repro.runtime.shardproc import ShardHandle

    spawned = []
    real_init = ShardHandle.__init__

    def flaky_init(handle, shard, backend="process"):
        if shard == 1:
            raise ShardingError("injected spawn failure")
        real_init(handle, shard, backend)
        spawned.append(handle)

    monkeypatch.setattr(ShardHandle, "__init__", flaky_init)
    with pytest.raises(ShardingError, match="injected spawn failure"):
        Warehouse(build_db(), shards=2, shard_backend="thread")
    assert spawned, "first worker never spawned"
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not any(h.is_alive() for h in spawned):
            break
        time.sleep(0.02)
    assert not any(h.is_alive() for h in spawned), "worker leaked"


def test_close_resolves_outstanding_when_worker_already_dead():
    """close() on a handle whose worker died must resolve outstanding
    replies promptly instead of waiting out the 30s round-trip."""
    wh = make_supervised(tmp_path=None)
    try:
        wh.supervisor.stop()  # keep the supervisor out of this one
        handle = wh._handles[0]
        assert isinstance(handle, ShardHandle) and handle.backend == "thread"
        kill_worker(wh, shard=0)
        reply = handle.submit("ping")
        started = time.monotonic()
        # the dead worker's reply resolves to a typed error envelope
        # instead of blocking until the timeout
        response = reply.wait(10.0)
        assert response["error"] == "ShardUnavailableError"
        handle.close(timeout=10.0)
        assert time.monotonic() - started < 8.0
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


def test_supervisor_stop_drains_inflight_probes():
    wh = make_supervised(tmp_path=None)
    try:
        assert wh.supervisor.quiesced
        wh.supervisor.worker_unresponsive(0, "test probe")
        wh.supervisor.stop()
        assert wh.supervisor.quiesced
    finally:
        wh.close()


def test_stats_report_unavailable_shards_instead_of_failing(tmp_path):
    wh = make_supervised(tmp_path, restart_budget=0)
    try:
        kill_worker(wh, shard=1)
        with pytest.raises(ShardUnavailableError):
            wh.insert("orders", [(570, 1)])
        wh.supervisor.wait_quiesced(15.0)
        stats = wh.shard_stats()
        assert 0 in stats["shards"]
        assert 1 in stats["unavailable"]
        assert stats["supervisor"][1]["state"] == "quarantined"
    finally:
        FAILPOINTS.disarm("shard.worker.kill")
        wh.close()


def test_broken_pipe_write_surfaces_typed_error(tmp_path):
    """Submitting to a SIGKILLed worker can hit the broken pipe before
    the reader thread notices the death — the caller must still see the
    typed unavailability error, never a raw BrokenPipeError."""
    wh = make_supervised(
        tmp_path, shard_backend="process", probe_timeout_seconds=1.0
    )
    try:
        wh._handles[1].worker.kill()
        wh._handles[1].worker.join(timeout=10.0)
        with pytest.raises(ShardingError):
            # replicated: the facade writes to the dead worker's pipe
            wh.insert("orders", [(590, 1)])
        assert wait_all_up(wh, timeout=30.0), wh.supervisor.status()
        wh.check_consistency()
    finally:
        wh.close()


# ---------------------------------------------------------------------------
# acceptance: SIGKILL a real worker process mid-load
# ---------------------------------------------------------------------------
def test_process_worker_sigkill_acceptance(tmp_path):
    wh = make_supervised(
        tmp_path,
        shard_backend="process",
        call_deadline_seconds=10.0,
        probe_timeout_seconds=1.0,
    )
    errors = []

    def hammer(offset):
        for i in range(4):
            try:
                wh.insert("orders", [(600 + offset * 10 + i, 1)])
            except ShardingError as exc:
                # typed and bounded (ShardUnavailableError): the statement
                # reached the killed worker, and its transaction ends as
                # the decision log says — aborted, or committed by the
                # replacement when the decision was already durable
                errors.append(exc)
            time.sleep(0.02)

    try:
        wh.insert("orders", [(599, 0)])
        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(2)
        ]
        started = time.monotonic()
        for t in threads:
            t.start()
        wh._handles[1].worker.kill()
        for t in threads:
            t.join(timeout=60.0)
        assert all(not t.is_alive() for t in threads), (
            "a facade call hung on the killed worker"
        )
        assert time.monotonic() - started < 45.0
        assert wait_all_up(wh, timeout=30.0), wh.supervisor.status()
        assert wh.supervisor.status()[1]["restarts"] >= 1
        # the replacement process sizes its young generation too
        gc_stats = wh.shard_stats()["shards"][1]["gc"]
        assert gc_stats["threshold"][0] == WORKER_GC_THRESHOLD
        # merged state matches a recompute over the merged database
        wh.check_consistency()
    finally:
        wh.close()
