"""The coordinator decision log and the 2PC crash windows.

Unit half: the :class:`TxnDecisionLog` file format — atomic decide,
forget, quarantine of a torn or bit-flipped record (presumed abort),
and the volatile degradation without a directory.  Integration half: a sharded
warehouse crashed at each coordinator failpoint between prepare and
commit must resolve deterministically through ``recover()``, leaving
every shard on the same side of the decision.
"""

import json
import os

import pytest

from repro.errors import ReproError
from repro.runtime.failpoints import FAILPOINTS, InjectedFault
from repro.runtime.txnlog import TxnDecisionLog
from repro.warehouse import Warehouse

from .test_sharded_warehouse import build_db, order_lines_defn


# ---------------------------------------------------------------------------
# file-format unit tests
# ---------------------------------------------------------------------------
def test_decide_pending_forget_roundtrip(tmp_path):
    log = TxnDecisionLog(str(tmp_path / "txnlog"))
    assert log.pending() == []
    log.decide("t1-abc", [0, 1])
    (record,) = log.pending()
    assert record.txn_id == "t1-abc"
    assert record.shards == [0, 1]
    # a second log over the same directory sees the decision: this is
    # exactly the coordinator-restart read path
    reopened = TxnDecisionLog(str(tmp_path / "txnlog"))
    assert [r.txn_id for r in reopened.pending()] == ["t1-abc"]
    log.forget("t1-abc")
    assert log.pending() == []
    log.forget("t1-abc")  # idempotent


def test_tmp_orphan_is_not_a_decision(tmp_path):
    # crash before os.replace: the record exists only under .tmp —
    # identical to no decision at all, and swept on reopen
    directory = str(tmp_path / "txnlog")
    log = TxnDecisionLog(directory)
    with open(os.path.join(directory, "txn-t9.json.tmp"), "w") as fh:
        json.dump({"txn_id": "t9", "decision": "commit"}, fh)
    assert log.pending() == []
    reopened = TxnDecisionLog(directory)
    assert reopened.pending() == []
    assert not os.path.exists(os.path.join(directory, "txn-t9.json.tmp"))


def test_torn_record_quarantined_as_presumed_abort(tmp_path):
    directory = str(tmp_path / "txnlog")
    log = TxnDecisionLog(directory)
    log.decide("t1-keep", [0])
    with open(os.path.join(directory, "txn-t2-torn.json"), "w") as fh:
        fh.write('{"txn_id": "t2-torn", "decis')  # torn mid-write
    records = log.pending()
    # the torn record resolves as abort (absent), the good one survives
    assert [r.txn_id for r in records] == ["t1-keep"]
    assert log.quarantined == ["txn-t2-torn.json"]
    sidecar = os.path.join(directory, "corrupt", "txn-t2-torn.json")
    assert os.path.exists(sidecar)


def test_unknown_decision_value_is_quarantined(tmp_path):
    directory = str(tmp_path / "txnlog")
    log = TxnDecisionLog(directory)
    with open(os.path.join(directory, "txn-t3.json"), "w") as fh:
        json.dump({"txn_id": "t3", "decision": "maybe", "shards": []}, fh)
    assert log.pending() == []
    assert log.quarantined == ["txn-t3.json"]


def test_unframed_record_is_quarantined(tmp_path):
    """A well-formed decision without its CRC frame — the format written
    before decisions were framed — fails verification: presumed abort."""
    directory = str(tmp_path / "txnlog")
    log = TxnDecisionLog(directory)
    with open(os.path.join(directory, "txn-t3.json"), "w") as fh:
        json.dump({"version": 1, "txn_id": "t3", "decision": "commit", "shards": [0]}, fh)
    assert log.pending() == []
    assert log.quarantined == ["txn-t3.json"]


def test_bitflipped_record_is_quarantined_not_misread(tmp_path):
    """One flipped bit turns ``t12`` into ``t13`` inside the record: the
    CRC catches it, so no commit is invented for a transaction that never
    existed, and the file leaves the log instead of being read again by
    every later recovery."""
    directory = str(tmp_path / "txnlog")
    log = TxnDecisionLog(directory)
    log.decide("t12-ab12cd34", [0, 1])
    path = os.path.join(directory, "txn-t12-ab12cd34.json")
    raw = bytearray(open(path, "rb").read())
    position = raw.index(b"t12") + 2
    raw[position] ^= 0x01  # "2" -> "3"
    with open(path, "wb") as fh:
        fh.write(bytes(raw))
    assert log.pending() == []
    assert log.quarantined == ["txn-t12-ab12cd34.json"]
    assert os.listdir(directory) == ["corrupt"]
    assert TxnDecisionLog(directory).pending() == []


def test_record_under_another_name_is_quarantined(tmp_path):
    """A verified record whose id is not the one its file name carries
    (a copied or renamed file) is not a decision for either id."""
    directory = str(tmp_path / "txnlog")
    log = TxnDecisionLog(directory)
    log.decide("t6", [0])
    os.replace(
        os.path.join(directory, "txn-t6.json"),
        os.path.join(directory, "txn-t7.json"),
    )
    assert log.pending() == []
    assert log.quarantined == ["txn-t7.json"]


def test_missing_directory_reads_as_empty(tmp_path):
    # the owning warehouse's temp lineage can be torn down while a
    # background revive still holds the log: presumed abort, not a crash
    import shutil

    directory = str(tmp_path / "txnlog")
    log = TxnDecisionLog(directory)
    log.decide("t4", [0])
    shutil.rmtree(directory)
    assert log.pending() == []


def test_volatile_log_without_directory():
    log = TxnDecisionLog(None)
    assert log.directory is None
    log.decide("t5", [0, 1])
    assert [r.txn_id for r in log.pending()] == ["t5"]
    log.forget("t5")
    assert log.pending() == []


# ---------------------------------------------------------------------------
# crash-window integration: coordinator dies between prepare and commit
# ---------------------------------------------------------------------------
def _make_durable_sharded(tmp_path):
    wh = Warehouse(
        build_db(),
        shards=2,
        shard_backend="thread",
        wal_path=str(tmp_path / "wal"),
    )
    wh.create_view("order_lines", order_lines_defn())
    return wh


def _crash_txn_at(wh, failpoint):
    """Run one cross-shard transaction with *failpoint* armed; return
    whether the coordinator 'died' mid-protocol."""
    FAILPOINTS.arm(failpoint, action="raise", times=1)
    try:
        with pytest.raises(InjectedFault):
            with wh.transaction() as txn:
                txn.insert("orders", [(200, 1)])
                txn.insert(
                    "lineitem", [(200, 0, 11), (200, 1, 12)]
                )
    finally:
        FAILPOINTS.disarm(failpoint)


@pytest.mark.parametrize(
    "failpoint, committed",
    [
        # before the decision is durable: presumed abort
        ("txn.coordinator.prepared", False),
        # after the decision, before any commit message: must commit
        ("txn.coordinator.decided", True),
        # mid commit fan-out (some shards already committed): must commit
        ("txn.coordinator.commit", True),
    ],
)
def test_coordinator_crash_window_resolves_deterministically(
    tmp_path, failpoint, committed
):
    wh = _make_durable_sharded(tmp_path)
    try:
        _crash_txn_at(wh, failpoint)
        wh.recover()
        resolved = wh.last_recovery["resolved_transactions"]
        if committed:
            assert resolved, "decided transaction was not resolved"
            assert {r["outcome"] for r in resolved} <= {"commit"}
        # in-doubt bookkeeping is drained either way
        assert wh.txnlog.pending() == []
        merged = wh.merged_database()
        keys = {row[0] for row in merged.tables["orders"].rows}
        assert (200 in keys) == committed
        line_keys = {row[:2] for row in merged.tables["lineitem"].rows}
        assert ((200, 0) in line_keys) == committed
        wh.check_consistency()
    finally:
        wh.close()


def test_hard_crash_after_decision_sweeps_record_and_stays_consistent(
    tmp_path,
):
    """recover() drops every worker's memory, as a hard crash would,
    but each shard's prepare is durable: the prepared parts come back
    in doubt from the WAL, the durable decision commits them on every
    shard, and the record is retired — no shard holds half the
    transaction."""
    wh = _make_durable_sharded(tmp_path)
    try:
        _crash_txn_at(wh, "txn.coordinator.decided")
        assert [r.txn_id for r in wh.txnlog.pending()]  # decision durable
        wh.recover()
        assert wh.txnlog.pending() == []
        assert {r["outcome"] for r in wh.last_recovery["resolved_transactions"]} == {"commit"}
        merged = wh.merged_database()
        assert 200 in {row[0] for row in merged.tables["orders"].rows}
        assert {(200, 0), (200, 1)} <= {row[:2] for row in merged.tables["lineitem"].rows}
        wh.check_consistency()
    finally:
        wh.close()


def test_rollback_leaves_no_decision_record(tmp_path):
    wh = _make_durable_sharded(tmp_path)
    try:
        with pytest.raises(ReproError):
            with wh.transaction() as txn:
                txn.insert("orders", [(400, 1)])
                raise ReproError("caller-side abort")
        assert wh.txnlog.pending() == []
        merged = wh.merged_database()
        assert 400 not in {row[0] for row in merged.tables["orders"].rows}
        wh.check_consistency()
    finally:
        wh.close()
