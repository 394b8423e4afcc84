"""Snapshot isolation under concurrent maintenance.

The MVCC contract under test (src/repro/runtime/snapshots.py):

* readers never observe a partially-applied batch — a change's rows
  show up in a served view all at once or not at all;
* the snapshot sequence a reader observes is monotonic;
* a snapshot pinned by a reader survives checkpoint + WAL compaction
  and store pruning unchanged;
* recovery invalidates every previously-issued snapshot (pre-crash
  epochs may include changes whose acks never became durable).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import CatalogError
from repro.runtime.snapshots import RETAIN
from repro.warehouse import Warehouse

from ..runtime.test_scheduler import build_db, order_lines_expr

BATCH = 5  # lineitems per order; the tearing unit readers watch for


def seeded_warehouse(orders=40, **kwargs):
    db = build_db()
    db.insert("orders", [(i, i % 7) for i in range(orders)])
    wh = Warehouse(db, **kwargs)
    wh.create_view("ol", order_lines_expr())
    return wh


def lineitem_batch(orderkey):
    return [(orderkey, line, orderkey * 100 + line) for line in range(BATCH)]


# ---------------------------------------------------------------------------
# torn reads
# ---------------------------------------------------------------------------
def test_reader_storm_never_sees_torn_batches():
    """N reader threads against an apply_async storm: every order's
    lineitems appear in the served view all-or-nothing, and each
    reader's snapshot sequence is monotonic."""
    wh = seeded_warehouse(workers=4)
    errors = []
    stop = threading.Event()

    def reader():
        last_seq = -1
        while not stop.is_set():
            snap = wh.snapshot()
            if snap.seq < last_seq:
                errors.append(
                    f"snapshot seq went backwards: {snap.seq} < {last_seq}"
                )
                return
            last_seq = snap.seq
            for orderkey in range(40):
                rows = snap.query("ol", **{"orders.o_orderkey": orderkey})
                joined = [r for r in rows if r[-1] is not None]
                if joined and len(joined) != BATCH:
                    errors.append(
                        f"torn batch at order {orderkey}: "
                        f"{len(joined)}/{BATCH} rows in seq {snap.seq}"
                    )
                    return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        for orderkey in range(40):
            wh.apply_async("lineitem", "insert", lineitem_batch(orderkey))
        wh.flush()
    finally:
        stop.set()
        for t in threads:
            t.join()
        wh.close()
    assert not errors, errors[0]


def test_settled_snapshot_equals_recompute():
    """After a drain, the served view equals a full recompute over the
    snapshot's own base tables (the fuzz `serving` config asserts this
    continuously; here is the direct unit form)."""
    wh = seeded_warehouse(workers=2)
    try:
        for orderkey in range(10):
            wh.apply_async("lineitem", "insert", lineitem_batch(orderkey))
        wh.flush()
        snap = wh.snapshot()
        recomputed = wh.maintainer("ol").definition.evaluate(
            snap.build_database()
        )
        assert frozenset(snap.view_rows("ol")) == frozenset(recomputed.rows)
    finally:
        wh.close()


def test_query_pins_the_epoch_not_the_live_view():
    wh = seeded_warehouse(workers=2)
    try:
        pinned = wh.snapshot()
        before = sorted(map(repr, pinned.view_rows("ol")))
        wh.insert("lineitem", lineitem_batch(3))
        # the pinned epoch is frozen; the latest epoch moved past it
        assert sorted(map(repr, pinned.view_rows("ol"))) == before
        latest = wh.snapshot()
        assert latest.seq > pinned.seq
        assert wh.query("ol", snapshot=pinned, **{"orders.o_orderkey": 3}) != (
            wh.query("ol", snapshot=latest, **{"orders.o_orderkey": 3})
        )
    finally:
        wh.close()


# ---------------------------------------------------------------------------
# retention: checkpoint + compaction, pruning, bounded store
# ---------------------------------------------------------------------------
def test_pinned_snapshot_survives_checkpoint_and_compaction(tmp_path):
    wh = seeded_warehouse(
        workers=2,
        wal_path=str(tmp_path / "wal"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        segment_bytes=512,
    )
    try:
        wh.insert("lineitem", lineitem_batch(1))
        pinned = wh.snapshot()
        before = sorted(map(repr, pinned.view_rows("ol")))
        for orderkey in range(2, 12):
            wh.insert("lineitem", lineitem_batch(orderkey))
        wh.checkpoint()  # compacts the WAL and prunes the store
        assert wh.snapshots.latest().lsn > pinned.lsn
        assert pinned not in wh.snapshots.retained_snapshots()
        # ... but the reader's pinned object is intact and queryable
        assert pinned.valid
        assert sorted(map(repr, pinned.view_rows("ol"))) == before
        assert len(pinned.query("ol", **{"orders.o_orderkey": 1})) == BATCH
    finally:
        wh.close()


def test_store_retention_is_bounded():
    wh = seeded_warehouse(workers=0)
    try:
        for orderkey in range(2 * RETAIN):
            wh.insert("lineitem", lineitem_batch(orderkey))
            assert wh.snapshots.retained <= RETAIN
        assert wh.snapshots.retained == RETAIN
        retained = wh.snapshots.retained_snapshots()
        assert retained == sorted(retained, key=lambda s: s.seq)
    finally:
        wh.close()


def test_snapshot_at_lsn(tmp_path):
    wh = seeded_warehouse(workers=0, wal_path=str(tmp_path / "wal"))
    try:
        marks = {}
        for orderkey in range(4):
            wh.insert("lineitem", lineitem_batch(orderkey))
            marks[wh.wal.last_lsn] = orderkey
        for lsn, orderkey in marks.items():
            snap = wh.snapshots.at(lsn)
            assert snap is not None and snap.lsn <= lsn
            assert len(snap.query("ol", **{"orders.o_orderkey": orderkey})) == BATCH
    finally:
        wh.close()


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------
def test_recovery_invalidates_previously_issued_snapshots(tmp_path):
    wh = seeded_warehouse(
        workers=2, wal_path=str(tmp_path / "wal"),
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    try:
        wh.checkpoint()  # the restore point a live recover() needs
        wh.insert("lineitem", lineitem_batch(1))
        pre = wh.snapshot()
        assert pre.valid
        wh.recover()
        assert not pre.valid
        assert pre.invalid_reason == "recovery"
        # the pinned object still answers queries (stale data, flagged)
        assert len(pre.query("ol", **{"orders.o_orderkey": 1})) == BATCH
        # a fresh snapshot is published at the end of recovery
        post = wh.snapshot()
        assert post.valid and post.seq > pre.seq
        assert post.lsn == wh.wal.last_lsn
    finally:
        wh.close()


def test_cold_restart_serves_a_valid_snapshot(tmp_path):
    from repro.runtime import FAILPOINTS

    wal_path = str(tmp_path / "wal")
    wh = seeded_warehouse(workers=2, wal_path=wal_path)
    # suppress the durable ack: the change is logged but "in flight"
    # when the process dies, so recovery must replay it
    with FAILPOINTS.armed("wal.ack", action="skip", times=None):
        wh.insert("lineitem", lineitem_batch(2))
    wh.scheduler.shutdown()
    wh.wal.close()

    # restart from genesis (the pre-WAL seed included): recovery
    # replays the WAL, then publishes
    db = build_db()
    db.insert("orders", [(i, i % 7) for i in range(40)])
    wh2 = Warehouse(db, wal_path=wal_path, workers=2)
    wh2.create_view("ol", order_lines_expr())
    try:
        wh2.recover()
        snap = wh2.snapshot()
        assert snap.valid
        assert len(snap.query("ol", **{"orders.o_orderkey": 2})) == BATCH
        recomputed = wh2.maintainer("ol").definition.evaluate(
            snap.build_database()
        )
        assert frozenset(snap.view_rows("ol")) == frozenset(recomputed.rows)
    finally:
        wh2.close()


# ---------------------------------------------------------------------------
# query surface
# ---------------------------------------------------------------------------
def test_query_surface_errors_and_filters():
    wh = seeded_warehouse(workers=0)
    try:
        wh.insert("lineitem", lineitem_batch(5))
        snap = wh.snapshot()
        with pytest.raises(CatalogError):
            snap.query("nope")
        with pytest.raises(CatalogError):
            snap.query("ol", bogus_column=1)
        # bare column names resolve when unambiguous
        assert snap.query("ol", o_orderkey=5, l_linenumber=0) == snap.query(
            "ol",
            **{"orders.o_orderkey": 5, "lineitem.l_linenumber": 0},
        )
        # predicate + limit
        some = snap.query(
            "ol", predicate=lambda r: r["lineitem.l_qty"] is not None, limit=3
        )
        assert len(some) == 3
    finally:
        wh.close()
