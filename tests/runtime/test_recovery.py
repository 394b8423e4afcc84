"""Crash recovery: WAL replay re-drives lost maintenance work.

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

from repro.errors import MaintenanceError
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
    """A view that keeps failing during replay is quarantined; the
    others still recover to the recomputed state."""
    wal_path = str(tmp_path / "changes.wal")
    wh = Warehouse(build_db(), wal_path=wal_path)
    wh.create_view("ol_a", order_lines_expr())
    wh.insert("orders", [(1, 100)])
    wh.flush()
    # a lost change
    wal = wh.wal
    lost = wal.append("orders", "insert", [(2, 200)])
    wh.scheduler.shutdown()
    wal.close()

    # over the original database
    wh2 = Warehouse(build_db(), telemetry=Telemetry(), wal_path=wal_path)
    wh2.create_view("ol_a", order_lines_expr())
    wh2.create_view("ol_b", order_lines_expr())
    make_broken(wh2, "ol_b")
    results = wh2.recover()
    assert [r.lsn for r in results] == [lost - 1, lost]
    assert results[0].quarantined == ["ol_b"]
    assert wh2.wal.pending() == []  # acked anyway: repair, don't replay
    # the healthy view recovered fully
    wh2.maintainer("ol_a").check_consistency()
    # and repair brings the quarantined one back
    wh2.maintainer("ol_b").broken = False
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
