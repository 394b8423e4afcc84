"""Crash recovery: WAL replay re-drives lost changes, then the views are built.

The durability contract (docs/DURABILITY.md): recover() restores the
newest verifiable checkpoint or, with none, takes the tables the
warehouse was opened with as LSN 0, then replays every WAL entry past
that restore point.  A cold restart therefore reopens over the database
the warehouse first opened with.  The proof obligation here: after
replay, every non-quarantined view equals a full recompute of the final
database state, even when the crash tore the WAL mid-record — and a
warehouse whose tables are no longer a restore point refuses.
"""

from pathlib import Path

import pytest

from repro.algebra.expr import Project
from repro.core import ViewDefinition, count_star
from repro.errors import FanOutError, MaintenanceError, UnsupportedViewError
from repro.obs import Telemetry
from repro.runtime import FAILPOINTS, InjectedFault, WriteAheadLog
from repro.tpch import TPCHGenerator, oj_view, v3
from repro.warehouse import Warehouse

from .test_scheduler import build_db, make_broken, order_lines_expr


@pytest.fixture
def generator():
    return TPCHGenerator(scale_factor=0.001, seed=11)


def test_recovery_replay_matches_full_recompute(generator, tmp_path):
    wal_path = str(tmp_path / "changes.wal")
    db = generator.build()
    genesis = db.copy()  # the database the warehouse first opens with

    # -- before the crash: one flushed (acked) change ------------------
    wh = Warehouse(db, wal_path=wal_path)
    wh.create_view("v3", v3())
    wh.create_view("oj_view", oj_view())
    acked_batch = generator.lineitem_insert_batch(20, seed=1)
    wh.insert("lineitem", acked_batch)
    wh.flush()
    wh.close()

    # -- after the flush: a change whose fan-out never completed -------
    lost_batch = generator.lineitem_insert_batch(15, seed=2)
    wal = WriteAheadLog(wal_path)
    lost_lsn = wal.append("lineitem", "insert", [tuple(r) for r in lost_batch])
    wal.close()
    # ... and a crash mid-append of the next change: a torn final record
    # in the active (newest) segment of the WAL directory
    segments = sorted(Path(wal_path).glob("seg-*.wal"))
    with open(segments[-1], "ab") as handle:
        handle.write(b'deadbeef {"kind":"change","lsn":99,"table":"linei')

    # -- recovery: reopen over the original database -------------------
    wh2 = Warehouse(genesis, wal_path=wal_path)
    assert wh2.wal.torn_tail_dropped  # the torn record was truncated
    wh2.create_view("v3", v3())
    wh2.create_view("oj_view", oj_view())
    assert [e.lsn for e in wh2.wal.pending()] == [lost_lsn]

    results = wh2.recover()
    # the acked change replays too: the restore point predates it
    assert [r.lsn for r in results] == [lost_lsn - 1, lost_lsn]
    assert all(r.ok for r in results)
    assert wh2.wal.pending() == []  # replayed changes are acked

    # every view equals a full recompute of the recovered database
    wh2.check_consistency()
    # both batches really are in the base table, once each
    rows = genesis.table("lineitem").rows
    keys = [(row[0], row[1]) for row in rows]
    assert len(keys) == len(set(keys))
    assert {(r[0], r[1]) for r in acked_batch + lost_batch} <= set(keys)
    wh2.close()


def test_recovery_is_idempotent_once_acked(generator, tmp_path):
    """Recovering twice from the same log — once per cold restart over
    the original database — lands on the same state the live warehouse
    reached: acked entries replay over the restore point, never onto
    their own effects."""
    wal_path = str(tmp_path / "changes.wal")
    db = generator.build()
    genesis = db.copy()
    wh = Warehouse(db, wal_path=wal_path)
    wh.create_view("v3", v3())
    wh.insert("lineitem", generator.lineitem_insert_batch(10, seed=3))
    wh.flush()
    expected = set(db.table("lineitem").rows)
    wh.close()

    for _restart in range(2):
        restarted = genesis.copy()
        wh2 = Warehouse(restarted, wal_path=wal_path)
        wh2.create_view("v3", v3())
        assert len(wh2.recover()) == 1
        assert wh2.wal.pending() == []
        assert set(restarted.table("lineitem").rows) == expected
        wh2.check_consistency()
        wh2.close()


@pytest.mark.parametrize("checkpoints", [False, True])
def test_live_recover_without_a_restore_point_is_refused(tmp_path, checkpoints):
    """A warehouse that has applied changes since it opened, with no
    checkpoint to restore, has no restore point: recover() raises before
    touching anything (it used to replay nothing, or every logged change
    a second time), and a second call behaves the same."""
    settings = {"wal_path": str(tmp_path / "changes.wal")}
    if checkpoints:
        settings["checkpoint_dir"] = str(tmp_path / "ckpt")  # none written
    wh = Warehouse(build_db(), **settings)
    wh.create_view("ol", order_lines_expr())
    wh.insert("orders", [(0, 1)])
    wh.insert("lineitem", [(0, 99, 5)])
    wh.flush()
    before = {name: sorted(t.rows) for name, t in wh.db.tables.items()}
    for _attempt in range(2):
        with pytest.raises(MaintenanceError, match="no checkpoint to restore"):
            wh.recover()
        assert {n: sorted(t.rows) for n, t in wh.db.tables.items()} == before
        assert wh.last_recovery is None
        wh.check_consistency()
    # still live: changes keep landing
    wh.insert("lineitem", [(0, 100, 6)])
    wh.check_consistency()
    wh.close()


def test_recover_requires_a_wal():
    wh = Warehouse(build_db())
    with pytest.raises(MaintenanceError, match="wal_path"):
        wh.recover()
    wh.scheduler.shutdown()


@pytest.mark.parametrize("site", ["wal.append", "wal.fsync"])
@pytest.mark.parametrize("workers", [0, 2])
def test_failed_log_append_leaves_no_trace(tmp_path, site, workers):
    """A change whose WAL append fails is reported failed and is undone:
    tables as before, views recompute-equal, nothing for recovery to
    replay — and the same change retried goes through."""
    wal_path = str(tmp_path / "changes.wal")
    wh = Warehouse(build_db(), wal_path=wal_path, workers=workers)
    wh.create_view("ol", order_lines_expr())
    wh.insert("orders", [(1, 100)])
    before = {name: sorted(t.rows) for name, t in wh.db.tables.items()}
    for change in (
        lambda: wh.insert("orders", [(2, 200)]),
        lambda: wh.delete("orders", [(1, 100)]),
    ):
        with FAILPOINTS.armed(site), pytest.raises(InjectedFault):
            change()
        assert {n: sorted(t.rows) for n, t in wh.db.tables.items()} == before
        wh.check_consistency()
    wh.flush()
    assert wh.wal.pending() == []
    wh.insert("orders", [(2, 200)])  # the retry lands
    wh.check_consistency()
    wh.close()
    reopened = WriteAheadLog(wal_path)
    assert [e.rows for e in reopened.entries_after(0)] == [
        ((1, 100),), ((2, 200),)
    ]
    reopened.close()


def test_recovery_skips_quarantined_views(tmp_path):
    """recover() runs no maintenance pass: it replays into the tables,
    then builds the views.  A view whose passes fail therefore recovers
    like any other, and is quarantined only by the next change.  A view
    already quarantined when a live recover() runs is skipped: it stays
    quarantined, stale by contract, until repair_view."""
    settings = {
        "wal_path": str(tmp_path / "changes.wal"),
        "checkpoint_dir": str(tmp_path / "ckpt"),
    }
    wh = Warehouse(build_db(), **settings)
    wh.create_view("ol_a", order_lines_expr())
    wh.insert("orders", [(1, 100)])
    wh.flush()
    # a lost change
    wal = wh.wal
    lost = wal.append("orders", "insert", [(2, 200)])
    wh.scheduler.shutdown()
    wal.close()

    # over the original database, with a view whose every pass fails
    wh2 = Warehouse(build_db(), telemetry=Telemetry(), **settings)
    wh2.create_view("ol_a", order_lines_expr())
    wh2.create_view("ol_b", order_lines_expr())
    results = wh2.recover()
    assert [r.lsn for r in results] == [lost - 1, lost]
    assert all(r.ok for r in results)
    assert wh2.wal.pending() == []  # replayed changes are acked
    broken = make_broken(wh2, "ol_b")
    wh2.check_consistency()  # no pass ran, so the broken view recovered
    assert wh2.quarantined_views == []
    with pytest.raises(FanOutError):
        wh2.insert("orders", [(3, 300)])
    assert wh2.quarantined_views == ["ol_b"]

    # a live recover() from a checkpoint leaves the quarantined view be
    wh2.checkpoint()
    wh2.insert("lineitem", [(1, 0, 5)])
    stale = sorted(wh2.view_rows("ol_b"))
    wh2.recover()
    assert wh2.last_recovery["replayed"] == 1
    assert wh2.quarantined_views == ["ol_b"]
    assert sorted(wh2.view_rows("ol_b")) == stale
    wh2.maintainer("ol_a").check_consistency()
    # and repair brings the quarantined one back
    broken.broken = False
    wh2.repair_view("ol_b")
    wh2.check_consistency()
    wh2.close()


def corrupt_segment(wal_path, containing: bytes):
    """Flip a byte in the first record of the segment holding
    *containing*, which quarantines that whole segment on reopen."""
    for segment in sorted(Path(wal_path).glob("seg-*.wal")):
        raw = bytearray(segment.read_bytes())
        if containing in raw:
            raw[15] ^= 0x01
            segment.write_bytes(bytes(raw))
            return
    raise AssertionError(f"no WAL segment holds {containing!r}")


def test_no_write_path_rebuilds_an_index(tmp_path, no_index_rebuild):
    """The storage contract end to end: a warehouse delete, a committed
    transaction's statements and WAL replay — plain, and degraded with
    its key-conflict eviction — all edit the base-table indexes in place."""
    wal_path = str(tmp_path / "changes.wal")
    wh = Warehouse(build_db(), wal_path=wal_path, segment_bytes=64)
    wh.create_view("ol", order_lines_expr())
    wh.insert("orders", [(1, 100), (2, 100), (3, 100)])
    wh.insert("lineitem", [(1, 0, 5), (1, 1, 6), (2, 0, 7), (3, 0, 8)])
    wh.delete("lineitem", [(1, 0, 5)])
    wh.delete_by_key("lineitem", [(1, 1)])
    with wh.transaction() as txn:
        txn.insert("orders", [(4, 100)])
        txn.delete("lineitem", [(2, 0, 7)])
    wh.insert("lineitem", [(1, 0, 9)])  # re-uses the key freed above
    wh.check_consistency()
    expected = set(wh.db.table("lineitem").rows)
    assert expected == {(3, 0, 8), (1, 0, 9)}
    wh.close()

    def replay():
        recovered = Warehouse(build_db(), wal_path=wal_path, segment_bytes=64)
        recovered.create_view("ol", order_lines_expr())
        recovered.recover()
        recovered.check_consistency()
        rows = set(recovered.db.table("lineitem").rows)
        degraded = recovered.wal.corruption_detected
        recovered.close()
        return rows, degraded

    assert replay() == (expected, False)
    # lose the delete of (1, 0, 5): the replayed insert of (1, 0, 9)
    # must evict the stale holder of its key, found by primary-key probe
    corrupt_segment(wal_path, b'"op":"delete","fk_allowed":true,"rows":[[1,0,5]]')
    rows, degraded = replay()
    assert degraded
    assert (1, 0, 9) in rows and (1, 0, 5) not in rows


def register_views(wh):
    """Two identical plain views and an aggregated one over them."""
    wh.create_view("ol_a", order_lines_expr())
    wh.create_view("ol_b", order_lines_expr())
    wh.create_aggregated_view(
        "per_cust", order_lines_expr(), ["orders.o_custkey"], [count_star("n")]
    )


def test_recover_builds_each_view_once(tmp_path, monkeypatch):
    """A warehouse reopened over a WAL that has logged a change owes a
    recover(): create_view only registers, and recover() restores the
    checkpoint, replays the suffix into the tables and evaluates each
    view once — after a CRC loss too, when it names them recomputed."""
    settings = {
        "wal_path": str(tmp_path / "changes.wal"),
        "checkpoint_dir": str(tmp_path / "ckpt"),
        "segment_bytes": 64,  # one record per segment
    }
    wh = Warehouse(build_db(), **settings)
    register_views(wh)
    wh.insert("orders", [(1, 100), (2, 100)])
    wh.checkpoint()
    wh.insert("lineitem", [(1, 0, 5), (2, 0, 6)])
    wh.delete("lineitem", [(1, 0, 5)])
    wh.insert("lineitem", [(1, 0, 7)])
    wh.close()
    names = ["ol_a", "ol_b", "per_cust"]
    builds = []
    evaluate = ViewDefinition.evaluate
    monkeypatch.setattr(
        ViewDefinition,
        "evaluate",
        lambda self, db: builds.append(self.name) or evaluate(self, db),
    )

    def recover():
        builds.clear()
        reopened = Warehouse(build_db(), **settings)
        register_views(reopened)
        assert builds == []
        with pytest.raises(UnsupportedViewError, match="key column"):
            bad = Project(order_lines_expr(), ["orders.o_orderkey"])
            reopened.create_view("bad", bad)  # refused at once all the same
        reopened.recover()
        assert sorted(builds) == names
        reopened.check_consistency()
        return reopened

    reopened = recover()
    assert reopened.last_recovery["checkpoint_lsn"] is not None
    assert reopened.last_recovery["replayed"] == 3
    assert reopened.last_recovery["recomputed_views"] == []
    reopened.close()

    corrupt_segment(settings["wal_path"], b'"op":"delete"')
    reopened = recover()
    assert reopened.last_recovery["corruption_detected"]
    assert sorted(reopened.last_recovery["recomputed_views"]) == names
    assert (1, 0, 7) in reopened.db.table("lineitem").rows
    reopened.close()


def test_an_in_doubt_transaction_aborted_after_recovery(tmp_path):
    """recover() applies a prepared transaction's statements to the
    tables only, builds the views over them, and holds the transaction
    in doubt; its abort then runs the inverses through maintenance, and
    every view ends equal to its recompute."""
    wal_path = str(tmp_path / "changes.wal")
    wh = Warehouse(build_db(), wal_path=wal_path)
    register_views(wh)
    wh.insert("orders", [(1, 100), (2, 200)])
    wh.insert("lineitem", [(1, 0, 5), (2, 0, 6)])
    before = {name: sorted(t.rows) for name, t in wh.db.tables.items()}
    txn = wh.transaction()
    txn.txn_id = "t1-ab"
    txn.delete("lineitem", [(1, 0, 5)])
    txn.insert("orders", [(3, 300)])
    txn.insert("lineitem", [(3, 0, 7)])
    txn.prepare()  # durable, and in doubt from here
    wh.insert("lineitem", [(2, 1, 8)])  # a later change, after it in the log
    wh.scheduler.shutdown()
    wh.wal.close()

    reopened = Warehouse(build_db(), wal_path=wal_path)
    register_views(reopened)
    reopened.recover()
    assert list(reopened._in_doubt) == ["t1-ab"]
    assert (3, 0, 7) in reopened.db.table("lineitem").rows
    reopened.check_consistency()
    reopened._in_doubt.pop("t1-ab").rollback()
    before["lineitem"] = sorted(before["lineitem"] + [(2, 1, 8)])
    assert {n: sorted(t.rows) for n, t in reopened.db.tables.items()} == before
    reopened.check_consistency()
    assert reopened.quarantined_views == []
    reopened.close()


@pytest.mark.parametrize("read", ["view_rows", "snapshot", "change"])
def test_a_read_before_recover_builds_the_registered_views(tmp_path, read):
    """No caller sees an unbuilt view: on a warehouse that owes a
    recover(), the first read or change builds every registered view
    over the tables as they stand; recover() then rebuilds them."""
    wal_path = str(tmp_path / "changes.wal")
    wh = Warehouse(build_db(), wal_path=wal_path)
    wh.insert("orders", [(1, 100)])
    wh.close()
    reopened = Warehouse(build_db(), wal_path=wal_path)
    assert reopened.create_view("ol", order_lines_expr()) is None
    if read == "view_rows":
        assert reopened.view_rows("ol") == []
    elif read == "snapshot":
        assert reopened.query("ol") == []
    else:
        reopened.insert("orders", [(2, 200)])
        assert len(reopened.view_rows("ol")) == 1
    reopened.check_consistency()
    if read != "change":  # a change makes the tables no restore point
        reopened.recover()
        assert len(reopened.view_rows("ol")) == 1
        reopened.check_consistency()
    reopened.close()


def test_a_second_crash_after_a_degraded_recovery_still_evicts(tmp_path):
    """A warehouse that crashes again after a degraded recovery, before
    its next checkpoint, reopens a log whose damaged segment already sits
    in ``corrupt/``.  The ``lost`` marker the first reopen wrote still
    says a record may be missing, so the second replay evicts the key the
    lost delete freed — until a checkpoint past the loss is compacted."""
    from .test_sharded_warehouse import build_db as seeded_db

    settings = dict(
        wal_path=str(tmp_path / "changes.wal"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        segment_bytes=64,
    )

    def reopen():
        wh = Warehouse(seeded_db(), **settings)
        wh.create_view("ol", order_lines_expr())
        wh.recover()
        wh.check_consistency()
        return wh

    wh = Warehouse(seeded_db(), **settings)
    wh.create_view("ol", order_lines_expr())
    wh.insert("lineitem", [(1, 7, 5)])
    wh.delete("lineitem", [(1, 7, 5)])
    wh.insert("lineitem", [(1, 7, 9)])
    wh.close()
    corrupt_segment(settings["wal_path"], b'"op":"delete","fk_allowed":true,"rows":[[1,7,5]]')
    first = reopen()
    assert first.last_recovery["corruption_detected"]
    first.insert("lineitem", [(2, 7, 1)])
    first.close()  # crashes again before any checkpoint
    second = reopen()
    assert second.last_recovery["corruption_detected"]
    assert second.last_recovery["quarantined_segments"] == []  # moved by the first
    rows = set(second.db.table("lineitem").rows)
    assert {(1, 7, 9), (2, 7, 1)} <= rows and (1, 7, 5) not in rows
    second.checkpoint()  # a base past the loss, and the log compacted to it
    second.close()
    third = reopen()
    assert not third.last_recovery["corruption_detected"]
    assert set(third.db.table("lineitem").rows) == rows
    third.close()
