"""Checkpointed, bounded recovery: checkpoint + WAL-suffix replay.

The contract under test (docs/DURABILITY.md): a checkpoint captures
base tables and the last-applied LSN, never a view; recovery restores
the newest verifiable checkpoint, rebuilds every view from it and
replays only the WAL entries past its LSN, so restart cost is
proportional to the checkpoint interval — not the total logged history.
Crash windows around the checkpoint write and the compaction that
follows it are driven through failpoints.
"""

from __future__ import annotations

import json
import os
import zlib

import pytest

from repro.errors import CheckpointError, FanOutError, MaintenanceError
from repro.runtime import (
    FAILPOINTS,
    CheckpointManager,
    InjectedFault,
    WriteAheadLog,
)
from repro.warehouse import Warehouse

from .test_scheduler import build_db, order_lines_expr


@pytest.fixture(autouse=True)
def clean_failpoints():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


def make_warehouse(tmp_path, db=None, **kwargs):
    kwargs.setdefault("wal_path", str(tmp_path / "wal"))
    kwargs.setdefault("checkpoint_dir", str(tmp_path / "checkpoints"))
    return Warehouse(db if db is not None else build_db(), **kwargs)


def restart(tmp_path, wh, **kwargs):
    """Simulate a crash-restart: drop the warehouse, reopen the same
    durable state against a fresh genesis database."""
    wh.scheduler.shutdown()
    if wh.wal is not None:
        wh.wal.close()
    wh2 = make_warehouse(tmp_path, **kwargs)
    wh2.create_view("ol", order_lines_expr())
    return wh2


class TestCheckpointRoundTrip:
    def test_checkpoint_captures_and_restores_state(self, tmp_path):
        wh = make_warehouse(tmp_path)
        wh.create_view("ol", order_lines_expr())
        wh.insert("orders", [(1, 100), (2, 200)])
        wh.insert("lineitem", [(1, 1, 5)])
        path = wh.checkpoint()
        assert os.path.exists(path)

        # changes after the checkpoint are suffix, not snapshot
        wh.insert("orders", [(3, 300)])
        wh.flush()
        expected = sorted(wh.view("ol").rows())

        wh2 = restart(tmp_path, wh)
        wh2.recover()
        assert wh2.last_recovery["checkpoint_lsn"] is not None
        assert wh2.last_recovery["replayed"] == 1  # only the suffix
        assert sorted(wh2.view("ol").rows()) == expected
        wh2.check_consistency()
        wh2.close()

    def test_restore_keeps_secondary_indexes(self, tmp_path):
        """The base stores the schema in the shard wire's form, indexes
        included: a restore over a genesis database without the index
        still has it."""
        db = build_db()
        db.create_index("lineitem", ["l_qty"])
        wh = make_warehouse(tmp_path, db=db)
        wh.insert("orders", [(1, 100)])
        wh.insert("lineitem", [(1, 1, 5)])
        wh.checkpoint()
        wh2 = restart(tmp_path, wh)
        wh2.recover()
        indexed = {tuple(i.columns) for i in wh2.db.table("lineitem").indexes}
        assert ("lineitem.l_qty",) in indexed
        assert wh2.db.table("lineitem").rows == [(1, 1, 5)]
        wh2.close()

    def test_checkpoint_requires_a_directory(self):
        wh = Warehouse(build_db())
        with pytest.raises(MaintenanceError, match="checkpoint_dir"):
            wh.checkpoint()
        wh.scheduler.shutdown()

    def test_checkpoint_interval_requires_a_directory(self):
        with pytest.raises(MaintenanceError, match="checkpoint_dir"):
            Warehouse(build_db(), checkpoint_interval=10)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_an_empty_statement_changes_nothing(self, tmp_path, workers):
        """No WAL record, no maintenance pass, no publish, and no count
        towards ``checkpoint_interval``: an empty delta is no change."""
        wh = make_warehouse(tmp_path, checkpoint_interval=2, workers=workers)
        wh.create_view("ol", order_lines_expr())
        wh.insert("orders", [(1, 100)])
        published = wh.snapshots.published_count
        assert wh.insert("lineitem", []) == {}
        assert wh.delete("lineitem", []) == {}
        assert wh.delete_by_key("orders", [(999,)]) == {}  # no such key
        ticket = wh.apply_async("orders", "delete", [])
        assert wh.flush()[0].reports == {} and ticket.wait().lsn is None
        assert wh.wal.last_lsn == 1
        assert wh.snapshots.published_count == published
        assert wh.checkpoints.checkpoint_paths() == []
        wh.insert("orders", [(2, 200)])  # the second change checkpoints
        assert len(wh.checkpoints.checkpoint_paths()) == 1
        with wh.transaction() as txn:  # a statement in a transaction too
            assert txn.insert("orders", []) == {}
        assert wh.wal.last_lsn == 2
        wh.close()

    def test_checkpoint_compacts_the_wal(self, tmp_path):
        wh = make_warehouse(tmp_path, segment_bytes=128)
        wh.create_view("ol", order_lines_expr())
        for o in range(20):
            wh.insert("orders", [(o, o * 10)])
        assert len(wh.wal.segment_paths()) > 1
        wh.checkpoint()
        # everything the checkpoint covers is deleted; only the active
        # segment (and at most one successor) survives
        assert len(wh.wal.segment_paths()) <= 2
        assert wh.wal.compacted_through == wh.wal.last_lsn
        wh.close()


class TestBoundedRecovery:
    def test_recovery_replays_only_the_post_checkpoint_suffix(
        self, tmp_path
    ):
        """Acceptance: 10k logged changes with periodic checkpoints —
        recovery replays the post-checkpoint suffix, not the history."""
        wh = make_warehouse(
            tmp_path,
            checkpoint_interval=1000,
            segment_bytes=64 * 1024,
            workers=0,
        )
        wh.create_view("ol", order_lines_expr())
        total = 10_000
        for o in range(total):
            wh.insert("orders", [(o, o % 97)])
        wh.flush()
        assert wh.wal.last_lsn == total
        # auto-checkpoints fired; the WAL keeps a bounded suffix, not
        # 10k records' worth of segments
        assert wh.checkpoints.checkpoint_paths()
        suffix = len(wh.wal.entries_after(wh.wal.compacted_through))

        wh2 = restart(
            tmp_path, wh, checkpoint_interval=1000, workers=0
        )
        wh2.recover()
        info = wh2.last_recovery
        assert info["checkpoint_lsn"] is not None
        assert info["checkpoint_lsn"] >= total - 1000
        assert info["replayed"] == total - info["checkpoint_lsn"]
        assert info["replayed"] <= max(suffix, 1000) < total
        assert len(wh2.db.tables["orders"].rows) == total
        wh2.check_consistency()
        wh2.close()

    def test_empty_checkpoint_dir_falls_back_to_full_replay(
        self, tmp_path
    ):
        """checkpoint_dir configured but never written: the process
        reopens over genesis, as the runbook says, so the acked prefix
        replays from LSN 0 along with the unacknowledged tail."""
        wh = make_warehouse(tmp_path)
        wh.create_view("ol", order_lines_expr())
        wh.insert("orders", [(1, 100)])
        wh.insert("lineitem", [(1, 1, 5)])
        wh.flush()
        lost = wh.wal.append("orders", "insert", [(2, 200)])

        wh2 = restart(tmp_path, wh)
        wh2.recover()
        assert wh2.last_recovery["checkpoint_lsn"] is None
        assert wh2.last_recovery["replayed"] == 3
        assert wh2.wal.is_acked(lost)
        assert sorted(wh2.db.tables["orders"].rows) == [(1, 100), (2, 200)]
        assert wh2.db.tables["lineitem"].rows == [(1, 1, 5)]
        wh2.check_consistency()
        wh2.close()

    def test_every_restore_point_damaged_replays_the_whole_log(self, tmp_path):
        """Every checkpoint file fails verification but the WAL was never
        compacted past genesis: the tables the restart opened with are
        the restore point, and all of the log replays over them."""
        wh = make_warehouse(tmp_path)
        wh.create_view("ol", order_lines_expr())
        wh.checkpoint()  # at LSN 0: compacts nothing
        wh.insert("orders", [(1, 100), (2, 200)])
        wh.checkpoint()  # a delta; the WAL keeps the fallback's suffix
        wh.insert("lineitem", [(1, 1, 5)])
        wh.flush()
        assert wh.wal.compacted_through == 0
        expected = sorted(wh.view("ol").rows())
        paths = wh.checkpoints.checkpoint_paths()
        assert len(paths) == 2
        for path in paths:
            flip_byte(path)

        wh2 = restart(tmp_path, wh)
        wh2.recover()
        assert wh2.last_recovery["checkpoint_lsn"] is None
        assert wh2.last_recovery["replayed"] == 2
        assert sorted(wh2.db.tables["orders"].rows) == [(1, 100), (2, 200)]
        assert sorted(wh2.view("ol").rows()) == expected
        wh2.check_consistency()
        assert wh2.checkpoints.checkpoint_paths() == []  # all in corrupt/
        wh2.close()

    def test_view_created_after_checkpoint_is_rebuilt(self, tmp_path):
        wh = make_warehouse(tmp_path)
        wh.create_view("ol", order_lines_expr())
        wh.insert("orders", [(1, 100)])
        wh.checkpoint()
        wh.scheduler.shutdown()
        wh.wal.close()

        wh2 = make_warehouse(tmp_path)
        wh2.create_view("ol", order_lines_expr())
        wh2.create_view("ol2", order_lines_expr())  # not in the snapshot
        wh2.recover()
        assert sorted(wh2.view("ol2").rows()) == sorted(
            wh2.view("ol").rows()
        )
        wh2.check_consistency()
        wh2.close()


class TestCrashWindows:
    def test_crash_mid_checkpoint_keeps_the_previous_one(self, tmp_path):
        """A crash between the .tmp fsync and the publish rename leaves
        the previous checkpoint set intact — latest() never sees the
        orphan and recovery replays a longer suffix instead."""
        wh = make_warehouse(tmp_path)
        wh.create_view("ol", order_lines_expr())
        wh.insert("orders", [(1, 100)])
        first = wh.checkpoint()

        wh.insert("orders", [(2, 200)])
        FAILPOINTS.arm("checkpoint.write", action="raise")
        with pytest.raises(InjectedFault):
            wh.checkpoint()
        FAILPOINTS.disarm("checkpoint.write")

        latest = wh.checkpoints.latest()
        assert latest is not None and latest.path == first

        wh2 = restart(tmp_path, wh)
        wh2.recover()
        info = wh2.last_recovery
        assert info["checkpoint_path"] == first
        assert info["replayed"] == 1  # the insert past checkpoint #1
        assert (2, 200) in wh2.db.tables["orders"].rows
        wh2.check_consistency()
        # the orphaned .tmp is swept by the next successful write
        wh2.checkpoint()
        leftovers = [
            n
            for n in os.listdir(str(tmp_path / "checkpoints"))
            if n.endswith(".tmp")
        ]
        assert leftovers == []
        wh2.close()

    def test_crash_between_checkpoint_write_and_compaction(
        self, tmp_path
    ):
        """The checkpoint publishes but the compaction marker never
        lands: recovery uses the new checkpoint and the stale covered
        segments are simply replay-empty; the next checkpoint compacts
        them away."""
        wh = make_warehouse(tmp_path, segment_bytes=128)
        wh.create_view("ol", order_lines_expr())
        for o in range(8):
            wh.insert("orders", [(o, o * 10)])
        segments_before = len(wh.wal.segment_paths())

        FAILPOINTS.arm("wal.compact", action="raise")
        with pytest.raises(InjectedFault):
            wh.checkpoint()
        FAILPOINTS.disarm("wal.compact")
        # checkpoint exists, WAL was never compacted behind it
        assert wh.checkpoints.latest() is not None
        assert wh.wal.compacted_through == 0
        assert len(wh.wal.segment_paths()) >= segments_before

        wh2 = restart(tmp_path, wh, segment_bytes=128)
        wh2.recover()
        assert wh2.last_recovery["checkpoint_lsn"] == 8
        assert wh2.last_recovery["replayed"] == 0
        wh2.check_consistency()
        wh2.checkpoint()  # compacts this time
        assert wh2.wal.compacted_through >= 8
        assert len(wh2.wal.segment_paths()) <= 2
        wh2.close()

    def test_ack_for_lsn_inside_a_deleted_segment_is_a_noop(
        self, tmp_path
    ):
        """An in-flight ack can arrive for a change whose segment the
        compactor already deleted — it must not fail or resurrect."""
        wal = WriteAheadLog(str(tmp_path / "wal"), segment_bytes=64)
        lsns = [
            wal.append("orders", "insert", [(o, o)]) for o in range(6)
        ]
        assert len(wal.segment_paths()) > 1
        wal.compact(lsns[-1])
        for lsn in lsns:
            wal.ack(lsn)  # late acks: all covered, all no-ops
            assert wal.is_acked(lsn)
        assert wal.pending() == []
        wal.close()
        # and the no-op acks left nothing weird behind on reopen
        with WriteAheadLog(str(tmp_path / "wal"), segment_bytes=64) as w2:
            assert w2.compacted_through == lsns[-1]
            assert w2.pending() == []

    def test_fsync_failure_surfaces_and_wal_stays_usable(self, tmp_path):
        """An fsync error propagates to the writer (durability cannot
        be silently skipped), the append it failed is withdrawn — the
        writer was told it did not happen (docs/DURABILITY.md) — and the
        log remains appendable and readable after."""
        wal = WriteAheadLog(str(tmp_path / "wal"), fsync_batch=1)
        wal.append("orders", "insert", [(1, 1)])
        FAILPOINTS.arm("wal.fsync", action="raise")
        with pytest.raises(InjectedFault):
            wal.append("orders", "insert", [(2, 2)])
        FAILPOINTS.disarm("wal.fsync")
        lsn3 = wal.append("orders", "insert", [(3, 3)])
        wal.close()

        with WriteAheadLog(str(tmp_path / "wal")) as w2:
            assert not w2.corruption_detected
            assert w2.last_lsn == lsn3
            assert [e.rows for e in w2.pending()] == [((1, 1),), ((3, 3),)]


class TestCheckpointManagerCorruption:
    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path):
        db = build_db()
        db.insert("orders", [(1, 100)])
        manager = CheckpointManager(str(tmp_path / "ck"))
        good = manager.write(db, lsn=5)
        db.insert("orders", [(2, 200)])
        bad = manager.write(db, lsn=9)
        with open(bad, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff")

        latest = manager.latest()
        assert latest is not None and latest.path == good
        assert latest.lsn == 5
        # the corrupt one was quarantined, not deleted
        sidecar = os.path.join(
            str(tmp_path / "ck"), "corrupt", os.path.basename(bad)
        )
        assert os.path.exists(sidecar)

    def test_every_checkpoint_corrupt_means_none(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "ck"), keep=1)
        path = manager.write(build_db(), lsn=1)
        with open(path, "wb") as handle:
            handle.write(b"not a checkpoint")
        assert manager.latest() is None

    def test_prune_keeps_the_newest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "ck"), keep=2)
        db = build_db()
        for lsn in (1, 2, 3):
            manager.write(db, lsn=lsn)
        paths = manager.checkpoint_paths()
        assert len(paths) == 2
        assert manager.latest().lsn == 3


# ---------------------------------------------------------------------------
# lineages: a base, its deltas, compaction
# ---------------------------------------------------------------------------
def flip_byte(path, offset=40):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x20]))


def read_record(path):
    """The JSON record of one checkpoint file (past its CRC frame)."""
    with open(path, "rb") as handle:
        return json.loads(handle.read()[9:])


def rewrite_record(path, **members):
    """Add *members* to a checkpoint file's record, re-framed with a
    valid CRC."""
    payload = json.dumps({**read_record(path), **members}).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(b"%08x " % (zlib.crc32(payload) & 0xFFFFFFFF) + payload)


def kinds(wh):
    return [
        "delta" if path.endswith(".delta.json") else "base"
        for path in wh.checkpoints.checkpoint_paths()
    ]


def restored_tables(tmp_path):
    """The tables a fresh manager restores from the checkpoint files."""
    data = CheckpointManager(str(tmp_path / "checkpoints")).latest()
    return {name: sorted(map(tuple, rows)) for name, rows in data.tables.items()}


def live_tables(wh):
    return {name: sorted(table.rows) for name, table in wh.db.tables.items()}


def lineage_warehouse(tmp_path, orders=60, **kwargs):
    """A warehouse whose base is big enough that a few small deltas do
    not trigger compaction."""
    wh = make_warehouse(tmp_path, **kwargs)
    wh.create_view("ol", order_lines_expr())
    wh.insert("orders", [(o, o % 7) for o in range(orders)])
    wh.insert("lineitem", [(o, 0, o) for o in range(orders)])
    return wh


class TestLineage:
    def test_base_plus_deltas_restores_the_live_state(self, tmp_path):
        wh = lineage_warehouse(tmp_path)
        wh.checkpoint()
        for step in range(3):
            wh.insert("lineitem", [(step, 1, 7)])
            wh.delete("lineitem", [(step + 10, 0, step + 10)])
            with wh.transaction() as txn:
                txn.insert("orders", [(100 + step, 1)])
                txn.insert("lineitem", [(100 + step, 0, 1)])
            wh.checkpoint()
        assert kinds(wh) == ["base", "delta", "delta", "delta"]
        paths = wh.checkpoints.checkpoint_paths()
        assert all(os.path.getsize(p) > 0 for p in paths)
        assert paths == sorted(paths)  # oldest first
        assert os.path.getsize(paths[-1]) < os.path.getsize(paths[0]) / 4
        expected_view = sorted(wh.view("ol").rows())
        expected_lines = sorted(wh.db.table("lineitem").rows)

        wh2 = restart(tmp_path, wh)
        wh2.recover()
        assert wh2.last_recovery["checkpoint_path"] == paths[-1]
        assert wh2.last_recovery["replayed"] == 0
        assert sorted(wh2.view("ol").rows()) == expected_view
        assert sorted(wh2.db.table("lineitem").rows) == expected_lines
        wh2.check_consistency()
        # recovery restored the newest restore point and replayed the
        # WAL past it, so the next checkpoint nets from there: a delta
        wh2.insert("lineitem", [(50, 1, 1)])
        wh2.checkpoint()
        assert kinds(wh2)[-1] == "delta"
        assert restored_tables(tmp_path) == live_tables(wh2)
        wh2.close()

    def test_dropped_and_created_views_across_a_lineage(self, tmp_path):
        """View DDL leaves the lineage alone: a checkpoint holds no view,
        so dropping, creating or repairing one never forces a base, and
        restore rebuilds whatever views the restarted process registers."""
        wh = lineage_warehouse(tmp_path)
        wh.create_view("ol2", order_lines_expr())
        wh.checkpoint()
        wh.drop_view("ol2")
        wh.insert("lineitem", [(1, 1, 1)])
        wh.checkpoint()
        wh.create_view("ol3", order_lines_expr())
        wh.repair_view("ol")
        wh.insert("lineitem", [(2, 1, 2)])
        wh.checkpoint()
        assert kinds(wh) == ["base", "delta", "delta"]
        expected = sorted(wh.view("ol3").rows())
        wh2 = restart(tmp_path, wh)
        wh2.create_view("ol3", order_lines_expr())
        wh2.recover()
        assert wh2.last_recovery["replayed"] == 0
        assert sorted(wh2.view("ol3").rows()) == expected
        wh2.check_consistency()
        wh2.close()

    def test_quarantined_view_leaves_the_next_checkpoint_a_delta(
        self, tmp_path
    ):
        wh = lineage_warehouse(tmp_path)
        wh.create_view("ol2", order_lines_expr())
        wh.checkpoint()
        with FAILPOINTS.armed(
            "scheduler.task", action="raise", times=None, view="ol2"
        ):
            with pytest.raises(FanOutError):
                wh.insert("lineitem", [(1, 1, 1)])
        assert wh.quarantined_views == ["ol2"]
        wh.checkpoint()
        assert kinds(wh) == ["base", "delta"]
        wh2 = restart(tmp_path, wh)
        wh2.create_view("ol2", order_lines_expr())
        wh2.recover()  # ol2 is rebuilt from the restored tables
        assert wh2.last_recovery["replayed"] == 0
        assert wh2.quarantined_views == []
        assert (1, 1, 1) in wh2.db.table("lineitem").rows
        wh2.check_consistency()
        wh2.close()

    def test_a_base_holds_the_tables_only(self, tmp_path):
        """A base record is the LSN, the sequence number, the schema and
        the tables — byte for byte the same however many views exist."""
        sizes = []
        for views in (0, 3):
            wh = make_warehouse(tmp_path / f"views{views}")
            for view in range(views):
                wh.create_view(f"ol{view}", order_lines_expr())
            wh.insert("orders", [(o, o % 7) for o in range(20)])
            wh.insert("lineitem", [(o, 0, o) for o in range(20)])
            path = wh.checkpoint()
            assert sorted(read_record(path)) == ["lsn", "schema", "seq", "tables"]
            sizes.append(os.path.getsize(path))
            wh.close()
        assert sizes[0] == sizes[1]

    def test_files_that_still_carry_views_restore(self, tmp_path):
        """A base and a delta written when checkpoints still stored view
        rows restore: the tables are read, the ``views`` member never —
        every view is rebuilt, so even rows that are wrong do no harm."""
        wh = lineage_warehouse(tmp_path)
        base = wh.checkpoint()
        wh.insert("lineitem", [(1, 1, 1)])
        delta = wh.checkpoint()
        wh.flush()
        expected = sorted(wh.view("ol").rows())
        bogus = [[999, 999, 999, 999, 999]]
        rewrite_record(base, views={"ol": bogus})
        rewrite_record(delta, views={"ol": {"+": bogus, "-": []}})

        wh2 = restart(tmp_path, wh)
        wh2.recover()
        assert wh2.last_recovery["checkpoint_path"] == delta
        assert wh2.last_recovery["replayed"] == 0
        assert sorted(wh2.view("ol").rows()) == expected
        wh2.check_consistency()
        wh2.close()

    def test_bitflipped_delta_restores_the_prefix_and_replays_more(
        self, tmp_path
    ):
        wh = lineage_warehouse(tmp_path)
        wh.checkpoint()
        wh.insert("lineitem", [(1, 1, 1)])
        wh.checkpoint()
        wh.insert("lineitem", [(2, 1, 2)])
        wh.insert("lineitem", [(3, 1, 3)])
        wh.checkpoint()
        wh.insert("lineitem", [(4, 1, 4)])
        wh.flush()
        assert kinds(wh) == ["base", "delta", "delta"]
        paths = wh.checkpoints.checkpoint_paths()
        expected = sorted(wh.view("ol").rows())
        flip_byte(paths[-1])

        wh2 = restart(tmp_path, wh)
        wh2.recover()
        info = wh2.last_recovery
        assert info["checkpoint_path"] == paths[1]  # the prefix before it
        assert info["replayed"] == 3  # two behind the lost delta + the tail
        assert sorted(wh2.view("ol").rows()) == expected
        wh2.check_consistency()
        sidecar = os.path.join(
            str(tmp_path / "checkpoints"), "corrupt", os.path.basename(paths[-1])
        )
        assert os.path.exists(sidecar)
        assert wh2.checkpoints.checkpoint_paths() == paths[:2]
        wh2.close()

    def test_bitflipped_base_falls_back_to_the_previous_lineage(
        self, tmp_path
    ):
        wh = lineage_warehouse(tmp_path, orders=8)
        wh.checkpoint()
        order = 8
        while "base" not in kinds(wh)[1:]:
            # each delta is a large share of this small base, so the
            # compaction rule starts the second lineage
            wh.insert("orders", [(o, 0) for o in range(order, order + 4)])
            order += 4
            wh.checkpoint()
        assert kinds(wh)[-2:] == ["delta", "base"]
        paths = wh.checkpoints.checkpoint_paths()
        expected = sorted(wh.view("ol").rows())
        flip_byte(paths[-1])

        wh2 = restart(tmp_path, wh)
        wh2.recover()
        assert wh2.last_recovery["checkpoint_path"] == paths[-2]
        assert wh2.last_recovery["replayed"] == 1
        assert sorted(wh2.view("ol").rows()) == expected
        wh2.check_consistency()
        wh2.close()

    def test_compaction_rewrites_a_base_and_prunes_after_it_is_durable(
        self, tmp_path
    ):
        wh = lineage_warehouse(tmp_path, orders=8)
        wh.checkpoint()
        order = 8
        while "base" not in kinds(wh)[1:]:
            # each delta is a large share of this small base
            wh.insert("orders", [(o, 0) for o in range(order, order + 4)])
            order += 4
            with FAILPOINTS.armed("checkpoint.prune", action="raise"):
                with pytest.raises(InjectedFault):
                    wh.checkpoint()
            # crashed before pruning: everything older is still there
            assert kinds(wh)[0] == "base"
            assert len(kinds(wh)) >= 2
        old_lineage = kinds(wh)[:-1]
        assert old_lineage[0] == "base" and "delta" in old_lineage
        # the crash came after the new base was durable: the next write
        # is a delta on it, and with it (keep = 2 restore points) the
        # first lineage is pruned
        wh.insert("orders", [(order, 0)])
        wh.checkpoint()
        paths = wh.checkpoints.checkpoint_paths()
        assert kinds(wh) == ["base", "delta"]
        assert paths == sorted(paths)
        expected = sorted(wh.db.table("orders").rows)
        wh2 = restart(tmp_path, wh)
        wh2.recover()
        assert sorted(wh2.db.table("orders").rows) == expected
        wh2.check_consistency()
        wh2.close()

    def test_crash_at_prune_recovers_from_the_new_restore_point(
        self, tmp_path
    ):
        wh = lineage_warehouse(tmp_path)
        wh.checkpoint()
        wh.insert("lineitem", [(1, 1, 1)])
        with FAILPOINTS.armed("checkpoint.prune", action="raise"):
            with pytest.raises(InjectedFault):
                wh.checkpoint()
        wh.insert("lineitem", [(2, 1, 2)])
        wh.flush()
        expected = sorted(wh.view("ol").rows())
        wh2 = restart(tmp_path, wh)
        wh2.recover()
        assert wh2.last_recovery["checkpoint_path"].endswith(".delta.json")
        assert wh2.last_recovery["replayed"] == 1
        assert sorted(wh2.view("ol").rows()) == expected
        wh2.check_consistency()
        wh2.close()


class TestFallbackKeepsItsWalSuffix:
    """The WAL is compacted only through the *oldest* restore point
    kept, so the one a damaged newest file falls back to can still be
    rolled forward — and recovery refuses, typed, if it ever cannot."""

    def test_compaction_trails_the_newest_checkpoint(self, tmp_path):
        wh = lineage_warehouse(tmp_path)
        wh.checkpoint()
        first = wh.wal.last_lsn
        assert wh.wal.compacted_through == first  # the only restore point
        wh.insert("lineitem", [(1, 1, 1)])
        wh.checkpoint()
        assert wh.wal.compacted_through == first  # the fallback's LSN
        wh.insert("lineitem", [(2, 1, 2)])
        wh.checkpoint()
        assert wh.wal.compacted_through == first + 1
        assert wh.checkpoints.compactable_lsn() == first + 1
        wh.close()

    def test_restore_point_older_than_the_wal_is_refused(self, tmp_path):
        wh = lineage_warehouse(tmp_path)
        wh.checkpoint()
        wh.insert("lineitem", [(1, 1, 1)])
        wh.checkpoint()
        wh.insert("lineitem", [(2, 1, 2)])
        wh.checkpoint()
        paths = wh.checkpoints.checkpoint_paths()
        flip_byte(paths[1])  # both restore points the WAL still serves
        wh.scheduler.shutdown()
        wh.wal.close()

        wh2 = make_warehouse(tmp_path)
        wh2.create_view("ol", order_lines_expr())
        pinned = wh2.snapshot()
        before = sorted(wh2.db.table("lineitem").rows)
        with pytest.raises(CheckpointError) as excinfo:
            wh2.recover()
        through = wh2.wal.compacted_through
        base_lsn = through - 1
        assert f"LSN {base_lsn}," in str(excinfo.value)
        assert f"LSN {through} " in str(excinfo.value)
        # nothing was touched
        assert pinned.valid and wh2.snapshot() is pinned
        assert sorted(wh2.db.table("lineitem").rows) == before
        assert wh2.last_recovery is None
        wh2.scheduler.shutdown()
        wh2.wal.close()

    def test_unknown_restore_points_are_never_compacted_past(self, tmp_path):
        wh = lineage_warehouse(tmp_path)
        wh.checkpoint()
        wh.insert("lineitem", [(1, 1, 1)])
        wh.checkpoint()
        through = wh.wal.compacted_through
        wh.scheduler.shutdown()
        wh.wal.close()
        # a fresh process that checkpoints without having recovered has
        # read neither file: it cannot vouch for the older one's LSN
        wh2 = make_warehouse(tmp_path)
        wh2.create_view("ol", order_lines_expr())
        assert wh2.checkpoints.compactable_lsn() is None
        wh2.recover()
        assert wh2.checkpoints.compactable_lsn() == through
        wh2.close()


class TestDeltasComeFromTheWal:
    """A delta is the WAL entries past the newest restore point, netted
    per table: whatever mix of operations an interval holds, the
    restored tables are the live ones."""

    def test_every_interval_restores_the_live_tables(self, tmp_path):
        wh = lineage_warehouse(tmp_path, orders=200)
        wh.checkpoint()

        def committed():
            with wh.transaction() as txn:
                txn.insert("orders", [(300, 1)])
                txn.insert("lineitem", [(300, 0, 1), (300, 1, 2)])
                txn.delete("lineitem", [(300, 1, 2)])

        def rolled_back():
            with pytest.raises(RuntimeError):
                with wh.transaction() as txn:
                    txn.insert("orders", [(301, 1)])
                    txn.delete("lineitem", [(5, 0, 5)])
                    raise RuntimeError("abort")

        def batched():
            batch = wh.batch()
            batch.insert("lineitem", [(6, 1, 9)])
            batch.delete("lineitem", [(6, 0, 6)])
            batch.insert("lineitem", [(8, 1, 8)])
            batch.delete("lineitem", [(8, 1, 8)])
            batch.flush()

        intervals = [
            # insert then delete of one row: nets to nothing
            lambda: (wh.insert("lineitem", [(1, 1, 1)]), wh.delete("lineitem", [(1, 1, 1)])),
            # delete then reinsert of the same row
            lambda: (wh.delete("lineitem", [(2, 0, 2)]), wh.insert("lineitem", [(2, 0, 2)])),
            # a key update: the row moves to another key
            lambda: wh.update("lineitem", [(3, 0, 3)], [(3, 5, 3)]),
            committed,
            rolled_back,
            lambda: wh.update("lineitem", [(4, 0, 4)], [(4, 0, 44)]),
            lambda: wh.delete_by_key("lineitem", [(7, 0)]),
            batched,
        ]
        for interval in intervals:
            interval()
            wh.checkpoint()
            assert restored_tables(tmp_path) == live_tables(wh)
        assert kinds(wh) == ["base"] + ["delta"] * len(intervals)
        wh.close()

    def test_a_degraded_recovery_is_followed_by_a_base(self, tmp_path):
        """A quarantined WAL segment means entries are missing: the ones
        left cannot stand for the change since the restore point."""
        wh = lineage_warehouse(tmp_path, segment_bytes=150)
        wh.checkpoint()
        for line in range(6):
            wh.insert("lineitem", [(line, 1, line)])
        wh.flush()
        segments = wh.wal.segment_paths()
        assert len(segments) >= 3
        flip_byte(segments[1], offset=12)

        wh2 = restart(tmp_path, wh, segment_bytes=150)
        wh2.recover()
        assert wh2.last_recovery["quarantined_segments"]
        wh2.checkpoint()
        assert kinds(wh2)[-1] == "base"
        assert restored_tables(tmp_path) == live_tables(wh2)
        wh2.close()

    def test_without_a_wal_every_checkpoint_is_a_base(self, tmp_path):
        wh = lineage_warehouse(tmp_path, wal_path=None)
        wh.checkpoint()
        wh.insert("lineitem", [(1, 1, 1)])
        wh.checkpoint()
        assert kinds(wh) == ["base", "base"]
        assert restored_tables(tmp_path) == live_tables(wh)
        wh.close()

    def test_a_failed_publish_leaves_the_next_delta_correct(self, tmp_path):
        wh = lineage_warehouse(tmp_path)
        wh.checkpoint()

        def boom(*args, **kwargs):
            raise RuntimeError("mid-capture")

        publish, wh.snapshots.publish = wh.snapshots.publish, boom
        wh.insert("lineitem", [(1, 1, 1)])  # applied and acked, not published
        wh.snapshots.publish = publish
        assert wh.serving_stats()["publish_errors"] == 1
        wh.checkpoint()
        assert kinds(wh) == ["base", "delta"]
        assert restored_tables(tmp_path) == live_tables(wh)
        wh.close()
