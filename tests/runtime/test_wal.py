"""WriteAheadLog unit tests: LSNs, acks, group commit, segmentation,
compaction, and corruption quarantine."""

import json
import os
import re
import zlib

import pytest

from repro.errors import WalError
from repro.runtime import (
    DEFAULT_SEGMENT_BYTES,
    FAILPOINTS,
    InjectedFault,
    WriteAheadLog,
)


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "changes.wal")


def active_segment(wal):
    return wal.segment_paths()[-1]


class TestAppendAck:
    def test_lsns_are_monotonic_from_one(self, wal_path):
        wal = WriteAheadLog(wal_path)
        assert wal.last_lsn == 0
        lsns = [
            wal.append("orders", "insert", [(i, i * 10)]) for i in range(5)
        ]
        assert lsns == [1, 2, 3, 4, 5]
        assert wal.last_lsn == 5
        wal.close()

    def test_pending_excludes_acked_in_lsn_order(self, wal_path):
        wal = WriteAheadLog(wal_path)
        a = wal.append("orders", "insert", [(1, 10)])
        b = wal.append("lineitem", "delete", [(1, 1, 5.0)])
        c = wal.append("orders", "insert", [(2, 20)])
        wal.ack(b)
        assert [e.lsn for e in wal.pending()] == [a, c]
        wal.ack(a)
        wal.ack(c)
        assert wal.pending() == []
        wal.close()

    def test_ack_is_idempotent_but_rejects_unknown_lsn(self, wal_path):
        wal = WriteAheadLog(wal_path)
        lsn = wal.append("orders", "insert", [(1, 10)])
        wal.ack(lsn)
        wal.ack(lsn)  # no error
        with pytest.raises(WalError):
            wal.ack(lsn + 7)
        wal.close()

    @pytest.mark.parametrize("site", ["wal.append", "wal.fsync"])
    def test_failed_append_is_withdrawn(self, wal_path, site):
        """All or nothing: a record that reached the segment but not
        stable storage is cut back out, in memory and on disk."""
        wal = WriteAheadLog(wal_path)
        first = wal.append("orders", "insert", [(1, 10)])
        size = os.path.getsize(active_segment(wal))
        with FAILPOINTS.armed(site), pytest.raises(InjectedFault):
            wal.append("orders", "insert", [(2, 20)])
        assert [e.lsn for e in wal.pending()] == [first]
        assert os.path.getsize(active_segment(wal)) == size
        # the LSN was handed back and the log is still appendable
        assert wal.append("orders", "insert", [(3, 30)]) == first + 1
        wal.close()
        reopened = WriteAheadLog(wal_path)
        assert [e.rows for e in reopened.pending()] == [((1, 10),), ((3, 30),)]
        assert not reopened.torn_tail_dropped
        reopened.close()

    def test_journal_is_one_record_loaded_as_consecutive_entries(self, wal_path):
        wal = WriteAheadLog(wal_path)
        changes = [("orders", "insert", [(2, 20)], True), ("lineitem", "delete", [(1, 1, 5.0)], True)]
        with FAILPOINTS.armed("wal.fsync"), pytest.raises(InjectedFault):
            wal.journal(changes)  # withdrawn whole
        assert wal.journal(changes) == [1, 2]
        wal.close()
        with open(active_segment(wal)) as handle:
            assert len(handle.readlines()) == 1
        reopened = WriteAheadLog(wal_path)
        assert [(e.lsn, e.table, e.rows) for e in reopened.pending()] == [
            (1, "orders", ((2, 20),)),
            (2, "lineitem", ((1, 1, 5.0),)),
        ]
        assert reopened.append("orders", "insert", [(3, 30)]) == 3
        reopened.close()

    def test_append_failing_across_a_rotation_is_withdrawn(self, wal_path):
        wal = WriteAheadLog(wal_path, segment_bytes=64)
        wal.append("orders", "insert", [(1, 10)])  # fills the segment
        with FAILPOINTS.armed("wal.fsync", times=2), pytest.raises(InjectedFault):
            wal.append("orders", "insert", [(2, 20)])  # the rotation's fsync
        assert wal.append("orders", "insert", [(3, 30)]) == 2
        wal.close()
        reopened = WriteAheadLog(wal_path)
        assert [e.rows for e in reopened.pending()] == [((1, 10),), ((3, 30),)]
        reopened.close()

    def test_entry_preserves_rows_operation_and_fk_flag(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(
            "lineitem",
            "delete",
            [(1, 1, 5.0, None), (2, 1, "x", True)],
            fk_allowed=False,
        )
        wal.close()
        entry = WriteAheadLog(wal_path).pending()[0]
        assert entry.table == "lineitem"
        assert entry.operation == "delete"
        assert entry.fk_allowed is False
        assert entry.rows == ((1, 1, 5.0, None), (2, 1, "x", True))


class TestPreparedRecords:
    """A ``txn`` tagged with an id is a prepare: in doubt until an ack
    commits it or a ``resolve`` marker aborts it — across reopen too."""

    CHANGES = [("orders", "insert", [(2, 20)], True), ("lineitem", "delete", [(1, 1, 5.0)], True)]

    def prepared(self, wal_path):
        wal = WriteAheadLog(wal_path)
        before = wal.append("orders", "insert", [(1, 10)])
        lsns = wal.journal(self.CHANGES, "t1-ab")
        after = wal.append("orders", "insert", [(3, 30)])
        return wal, before, lsns, after

    def test_in_doubt_replays_in_its_log_position_across_reopen(self, wal_path):
        wal, before, lsns, after = self.prepared(wal_path)
        for log in (wal, WriteAheadLog(wal_path)):
            assert [e.lsn for e in log.pending()] == [before, *lsns, after]
            assert [e.lsn for e in log.entries_after(0)] == [before, *lsns, after]
            assert log.in_doubt() == dict.fromkeys(lsns, "t1-ab")
            log.close()

    def test_an_ack_commits_the_whole_transaction(self, wal_path):
        wal, before, lsns, after = self.prepared(wal_path)
        wal.ack(lsns[0])
        assert wal.in_doubt() == {}
        assert [e.lsn for e in wal.pending()] == [before, lsns[1], after]
        wal.close()
        reopened = WriteAheadLog(wal_path)
        assert reopened.in_doubt() == {}
        assert [e.lsn for e in reopened.entries_after(0)] == [before, *lsns, after]
        reopened.close()

    def test_a_resolve_marker_drops_its_changes(self, wal_path):
        wal, before, lsns, after = self.prepared(wal_path)
        wal.resolve("t1-ab")
        assert wal.in_doubt() == {}
        wal.close()
        reopened = WriteAheadLog(wal_path)
        assert reopened.in_doubt() == {}
        assert [e.lsn for e in reopened.entries_after(0)] == [before, after]
        assert reopened.append("orders", "insert", [(4, 40)]) == after + 1
        reopened.close()


class TestDurabilityAcrossReopen:
    def test_reload_round_trip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        first = wal.append("orders", "insert", [(1, 10)])
        second = wal.append("orders", "insert", [(2, 20)])
        wal.ack(first)
        wal.close()

        reopened = WriteAheadLog(wal_path)
        assert reopened.last_lsn == 2
        assert reopened.is_acked(first)
        assert [e.lsn for e in reopened.pending()] == [second]
        # new appends continue the LSN sequence
        assert reopened.append("orders", "delete", [(1, 10)]) == 3
        reopened.close()

    def test_group_commit_fsyncs_every_batch(self, wal_path):
        wal = WriteAheadLog(wal_path, fsync_batch=3)
        wal.append("t", "insert", [(1,)])
        wal.append("t", "insert", [(2,)])
        assert wal._unsynced == 2  # below the batch: not yet fsynced
        wal.append("t", "insert", [(3,)])
        assert wal._unsynced == 0  # batch boundary hit
        wal.append("t", "insert", [(4,)])
        wal.sync()  # explicit flush boundary
        assert wal._unsynced == 0
        wal.close()

    def test_ack_rides_the_next_fsync(self, wal_path, monkeypatch):
        """An ack is advisory (recovery replays acked entries too), so it
        forces no fsync of its own: with fsync_batch=1 an append plus its
        ack costs one fsync, and close() makes the ack durable."""
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        wal = WriteAheadLog(wal_path, fsync_batch=1)
        wal.ack(wal.append("orders", "insert", [(1, 10)]))
        assert len(fsyncs) == 1
        wal.close()
        assert len(fsyncs) == 2
        with WriteAheadLog(wal_path) as reopened:
            assert reopened.is_acked(1)

    def test_context_manager_and_idempotent_close(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append("t", "insert", [(1,)])
        wal.close()  # second close is a no-op
        wal.sync()  # sync after close is a no-op too
        with WriteAheadLog(wal_path) as reopened:
            assert reopened.last_lsn == 1


class TestSegmentation:
    def test_rotation_at_the_size_threshold(self, wal_path):
        wal = WriteAheadLog(wal_path, segment_bytes=200)
        for i in range(12):
            wal.append("orders", "insert", [(i, i * 10)])
        assert len(wal.segment_paths()) > 1
        names = [os.path.basename(p) for p in wal.segment_paths()]
        assert names == sorted(names)
        assert all(n.startswith("seg-") and n.endswith(".wal") for n in names)
        wal.close()
        # every record survives the rotation boundaries
        reopened = WriteAheadLog(wal_path, segment_bytes=200)
        assert [e.lsn for e in reopened.pending()] == list(range(1, 13))
        reopened.close()

    def test_default_segment_size_keeps_one_segment(self, wal_path):
        wal = WriteAheadLog(wal_path)
        for i in range(20):
            wal.append("orders", "insert", [(i,)])
        assert len(wal.segment_paths()) == 1
        assert wal.disk_bytes() > 0
        wal.close()

    def test_records_are_crc_framed(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("orders", "insert", [(1, 10)])
        wal.close()
        raw = open(active_segment(WriteAheadLog(wal_path)), "rb").read()
        line = raw.splitlines()[0]
        crc, payload = line.split(b" ", 1)
        assert crc.decode() == format(
            zlib.crc32(payload) & 0xFFFFFFFF, "08x"
        )
        assert json.loads(payload)["kind"] == "change"


class TestCompaction:
    def test_compact_deletes_covered_segments(self, wal_path):
        wal = WriteAheadLog(wal_path, segment_bytes=150)
        for i in range(10):
            wal.append("orders", "insert", [(i, i)])
        before = len(wal.segment_paths())
        assert before > 2
        deleted = wal.compact(8)
        assert deleted > 0
        assert len(wal.segment_paths()) < before
        assert wal.compacted_through == 8
        # entries at or below the horizon are gone; the tail survives
        assert [e.lsn for e in wal.pending()] == [9, 10]
        wal.close()

    def test_compaction_horizon_is_durable(self, wal_path):
        wal = WriteAheadLog(wal_path, segment_bytes=150)
        for i in range(10):
            wal.append("orders", "insert", [(i, i)])
        wal.compact(8)
        wal.close()
        reopened = WriteAheadLog(wal_path, segment_bytes=150)
        assert reopened.compacted_through == 8
        assert [e.lsn for e in reopened.pending()] == [9, 10]
        # LSNs keep counting past the compacted prefix
        assert reopened.append("orders", "insert", [(99, 99)]) == 11
        reopened.close()

    def test_ack_below_the_horizon_is_a_noop(self, wal_path):
        wal = WriteAheadLog(wal_path, segment_bytes=150)
        for i in range(10):
            wal.append("orders", "insert", [(i, i)])
        wal.compact(8)
        wal.ack(3)  # inside a deleted segment: must not raise
        assert wal.is_acked(3)
        with pytest.raises(WalError):
            wal.ack(42)  # beyond last_lsn is still an error
        wal.close()

    def test_disk_footprint_stays_flat_under_compaction(self, wal_path):
        wal = WriteAheadLog(wal_path, segment_bytes=256)
        peaks = []
        lsn = 0
        for _round in range(5):
            for _ in range(20):
                lsn = wal.append("orders", "insert", [(lsn, "x" * 20)])
            wal.compact(lsn)
            peaks.append(wal.disk_bytes())
        # each round logs the same volume and compacts it away again, so
        # the footprint cannot trend upward
        assert max(peaks) < 3 * min(peaks)
        wal.close()


class TestCrashTolerance:
    def test_torn_final_record_is_truncated(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("orders", "insert", [(1, 10)])
        wal.append("orders", "insert", [(2, 20)])
        segment = active_segment(wal)
        wal.close()
        # crash mid-write: final record is half a line
        with open(segment, "ab") as handle:
            handle.write(b'deadbeef {"kind":"change","lsn":3,"table":"ord')

        recovered = WriteAheadLog(wal_path)
        assert recovered.torn_tail_dropped
        assert not recovered.corruption_detected
        assert recovered.last_lsn == 2
        assert [e.lsn for e in recovered.pending()] == [1, 2]
        # the torn bytes are gone from disk, so the next append is clean
        assert recovered.append("orders", "insert", [(3, 30)]) == 3
        recovered.close()
        assert [e.lsn for e in WriteAheadLog(wal_path).pending()] == [1, 2, 3]

    def test_corruption_before_the_tail_quarantines_the_segment(
        self, wal_path
    ):
        wal = WriteAheadLog(wal_path)
        wal.append("orders", "insert", [(1, 10)])
        wal.append("orders", "insert", [(2, 20)])
        segment = active_segment(wal)
        wal.close()
        lines = open(segment, "rb").read().splitlines(keepends=True)
        lines[0] = b'deadbeef {"kind":"chan\n'  # corrupt a NON-final record
        with open(segment, "wb") as handle:
            handle.writelines(lines)

        recovered = WriteAheadLog(wal_path)  # must NOT raise
        assert recovered.corruption_detected
        assert len(recovered.quarantined_segments) == 1
        sidecar = recovered.quarantined_segments[0]
        assert os.sep + "corrupt" + os.sep in sidecar
        assert os.path.exists(sidecar)
        # nothing from the damaged segment was ingested
        assert recovered.pending() == []
        recovered.close()

    def test_bitflip_fails_the_crc_and_quarantines(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("orders", "insert", [(1, 10)])
        wal.append("orders", "insert", [(2, 20)])
        segment = active_segment(wal)
        wal.close()
        raw = bytearray(open(segment, "rb").read())
        raw[15] ^= 0x01  # one bit, inside the first record's payload
        with open(segment, "wb") as handle:
            handle.write(bytes(raw))

        recovered = WriteAheadLog(wal_path)
        assert recovered.corruption_detected
        assert recovered.pending() == []
        recovered.close()

    def test_unknown_record_kind_quarantines(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("orders", "insert", [(1, 10)])
        segment = active_segment(wal)
        wal.close()
        payload = json.dumps({"kind": "mystery", "lsn": 2})
        crc = format(zlib.crc32(payload.encode()) & 0xFFFFFFFF, "08x")
        with open(segment, "a") as handle:
            handle.write(f"{crc} {payload}\n")
            handle.write(f"{crc} {payload}\n")  # NOT a torn tail: 2 records

        recovered = WriteAheadLog(wal_path)
        assert recovered.corruption_detected
        assert recovered.pending() == []
        recovered.close()

    def test_middle_segment_quarantine_keeps_the_rest(self, wal_path):
        wal = WriteAheadLog(wal_path, segment_bytes=150)
        for i in range(10):
            wal.append("orders", "insert", [(i, i)])
        assert len(wal.segment_paths()) >= 3
        victim = wal.segment_paths()[1]
        survivors = {
            e.lsn for e in wal.pending()
        }
        wal.close()
        raw = bytearray(open(victim, "rb").read())
        raw[12] ^= 0x10
        with open(victim, "wb") as handle:
            handle.write(bytes(raw))

        recovered = WriteAheadLog(wal_path, segment_bytes=150)
        assert recovered.corruption_detected
        kept = {e.lsn for e in recovered.pending()}
        assert kept  # the intact segments still replay
        assert kept < survivors  # the victim's records are gone
        recovered.close()

    def test_empty_and_missing_files_are_fine(self, wal_path):
        assert WriteAheadLog(wal_path).pending() == []  # created fresh
        assert os.path.exists(wal_path)
        wal = WriteAheadLog(wal_path)  # reopen the now-empty directory
        assert wal.last_lsn == 0
        wal.close()

    def test_regular_file_at_wal_path_is_a_typed_error(self, wal_path):
        with open(wal_path, "w") as handle:
            handle.write('{"kind":"ack","lsn":1}\n')
        with pytest.raises(WalError, match=re.escape(repr(wal_path))):
            WriteAheadLog(wal_path)
        assert os.path.isfile(wal_path)  # left untouched
