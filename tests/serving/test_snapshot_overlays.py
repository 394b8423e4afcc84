"""Undo-logged snapshots: a publish links a log and copies nothing, and a
snapshot reads the live containers, undoing what was logged after its
epoch (src/repro/runtime/snapshots.py, docs/SERVING.md)."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core import MaterializedView, ViewDefinition, ViewMaintainer
from repro.errors import ConstraintError
from repro.obs import Telemetry
from repro.runtime import SnapshotStore
from repro.warehouse import Warehouse

from ..runtime.test_scheduler import build_db, order_lines_expr


def seeded_warehouse(orders=40, **kwargs):
    db = build_db()
    db.insert("orders", [(o, o % 7) for o in range(orders)])
    wh = Warehouse(db, **kwargs)
    wh.create_view("ol", order_lines_expr())
    return wh


def logged_after(slice_):
    """Entries in the undo logs a slice still reads through."""
    _, log = slice_._state
    entries = 0
    while log is not None:
        entries += len(log.old)
        log = log.next
    return entries


# ---------------------------------------------------------------------------
# the structural guard: a publish costs its delta
# ---------------------------------------------------------------------------
def test_steady_state_writes_publish_from_journals(tmp_path, publish_costs_its_delta):
    """insert / delete / delete_by_key, a committed transaction and
    apply_async + flush all publish by sealing undo logs: no publish
    allocates more than its delta allows, over a 2,000-row view whose copy
    alone would exceed it, and every snapshot reads its own epoch."""
    wh = seeded_warehouse(orders=2000, wal_path=str(tmp_path / "wal"), workers=2)
    first = wh.snapshot()
    wh.insert("lineitem", [(1, 0, 5), (1, 1, 6), (2, 0, 7)])
    wh.delete("lineitem", [(1, 0, 5)])
    wh.delete_by_key("lineitem", [(1, 1)])
    with wh.transaction() as txn:
        txn.insert("orders", [(2100, 3)])
        txn.insert("lineitem", [(2100, 0, 1)])
        txn.delete("lineitem", [(2, 0, 7)])
    for order in range(3, 9):
        wh.apply_async("lineitem", "insert", [(order, 0, order)])
    wh.flush()
    snap = wh.snapshot()
    assert sorted(snap.table_rows("lineitem")) == sorted(
        wh.db.table("lineitem").rows
    )
    assert sorted(snap.view_rows("ol"), key=repr) == sorted(wh.view("ol").rows(), key=repr)
    # the first epoch, read through every log since, still has no line
    assert first.table_rows("lineitem") == []
    assert all(row[-1] is None for row in first.view_rows("ol"))
    assert len(first.views["ol"]) == 2000
    wh.check_consistency()
    wh.close()


def test_the_guard_trips_on_a_full_copy(publish_costs_its_delta, monkeypatch):
    wh = seeded_warehouse(orders=2000)
    view_slice = SnapshotStore._view_slice
    # a store that copies the view whole, as publication did before undo logs
    monkeypatch.setattr(
        SnapshotStore,
        "_view_slice",
        lambda store, name, view, rows, log: view_slice(store, name, view, dict(rows), None),
    )
    wh.view("ol").reset_to(wh.view("ol").clone())  # a new container to publish
    with pytest.raises(pytest.fail.Exception, match="publish allocated"):
        wh.snapshots.publish(wh.db.tables, {"ol": wh.view("ol")}, {})
    publish_costs_its_delta.clear()
    wh.close()


# ---------------------------------------------------------------------------
# who keeps a chain, and what starts a new one
# ---------------------------------------------------------------------------
def test_bare_maintainer_journals_nothing():
    db = build_db()
    db.insert("orders", [(1, 1)])
    view = MaterializedView.materialize(
        ViewDefinition("ol", order_lines_expr()), db
    )
    maintainer = ViewMaintainer(db, view)
    maintainer.insert("lineitem", [(1, 0, 5)])
    maintainer.delete("lineitem", [(1, 0, 5)])
    assert view.journal is None
    assert all(table.journal is None for table in db.tables.values())


def test_wholesale_replacement_starts_a_new_chain(publish_costs_its_delta):
    """``reset_to`` rebinds the view's container and drops its chain: the
    snapshots over the old container keep reading it, and the next
    publish hands out the new one — nothing is copied either way."""
    wh = seeded_warehouse()
    wh.insert("lineitem", [(1, 0, 5)])
    pinned = wh.snapshot()
    before = sorted(pinned.view_rows("ol"), key=repr)
    old_rows, old_log = pinned.views["ol"]._state
    wh.repair_view("ol")
    live = wh.view("ol")
    assert live._rows is not old_rows
    assert wh.snapshot().views["ol"]._state[0] is live._rows
    wh.insert("lineitem", [(3, 0, 1)])
    assert old_log.next is None and not old_log.old  # nothing edits the old dict
    assert sorted(pinned.view_rows("ol"), key=repr) == before
    assert sorted(wh.snapshot().view_rows("ol"), key=repr) == sorted(live.rows(), key=repr)
    assert wh.snapshots.freezes == 0
    wh.close()


def test_rollback_copies_nothing_and_the_next_checkpoint_is_a_delta(
    tmp_path, publish_costs_its_delta
):
    """A rolled-back transaction maintains its statements' inverses, so
    every chain just logs them: no publish copies, the epoch before the
    transaction reads as it did, and the checkpoint after it is a delta
    of the (net empty) change."""
    wh = seeded_warehouse(
        orders=2000,
        wal_path=str(tmp_path / "wal"),
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    wh.insert("lineitem", [(1, 0, 5), (2, 0, 6)])
    wh.checkpoint()
    pinned = wh.snapshot()
    before = sorted(pinned.view_rows("ol"), key=repr)
    with pytest.raises(RuntimeError):
        with wh.transaction() as txn:
            txn.insert("orders", [(2100, 3)])
            txn.insert("lineitem", [(2100, 0, 1), (3, 0, 2)])
            txn.delete("lineitem", [(1, 0, 5)])
            raise RuntimeError("abort")
    assert wh.checkpoint().endswith(".delta.json")
    assert sorted(wh.snapshot().view_rows("ol"), key=repr) == before
    assert sorted(pinned.view_rows("ol"), key=repr) == before
    assert logged_after(pinned.views["ol"]) > 0  # read through the logs
    wh.check_consistency()
    wh.close()


def test_failed_publish_leaves_every_chain_whole():
    """A publish that fails half-way has sealed some chains: readers stay
    on the previous snapshot, which reads on through those logs, and the
    next publish picks up where the failed one stopped."""
    wh = seeded_warehouse()
    wh.insert("lineitem", [(1, 0, 5)])
    before = wh.snapshot()
    lines = sorted(before.table_rows("lineitem"))
    wh.db.insert("lineitem", [(3, 0, 7)])  # applied, not yet published

    class Boom:
        journal = None
        version = 0
        _rows: dict = {}

        @property
        def schema(self):
            raise RuntimeError("mid-publish")

    with pytest.raises(RuntimeError):
        wh.snapshots.publish(
            wh.db.tables, {"ol": wh.view("ol"), "boom": Boom()}, {}
        )
    assert wh.snapshots.latest() is before
    assert sorted(before.table_rows("lineitem")) == lines
    wh.insert("lineitem", [(2, 0, 6)])
    snap = wh.snapshot()
    assert sorted(snap.table_rows("lineitem")) == sorted(wh.db.table("lineitem").rows)
    assert sorted(snap.view_rows("ol"), key=repr) == sorted(wh.view("ol").rows(), key=repr)
    assert sorted(before.table_rows("lineitem")) == lines
    wh.close()


def test_unchecked_duplicate_keys_fall_back_to_positional_capture():
    """``check=False`` inserts can no longer break a table's key: the
    duplicate is refused before anything is logged, so the table's chain
    stays exact and the next change publishes from it."""
    wh = seeded_warehouse()
    with pytest.raises(ConstraintError, match=r"duplicate key \(1,\)"):
        wh.db.insert("orders", [(1, 99)], check=False)
    assert not wh.db.table("orders").journal.old
    wh._publish()
    snap = wh.snapshot()
    assert sorted(snap.table_rows("orders")) == sorted(wh.db.table("orders").rows)
    assert len(snap.tables["orders"]) == 40
    wh.insert("orders", [(500, 0)])
    assert len(wh.snapshot().tables["orders"]) == 41
    assert len(snap.tables["orders"]) == len(snap.table_rows("orders")) == 40
    wh.close()


# ---------------------------------------------------------------------------
# what a held snapshot pins
# ---------------------------------------------------------------------------
def test_held_snapshot_pins_at_most_its_container_in_logs():
    """After every publish, the logs a held snapshot reads through hold
    no more entries than the live container has rows: past that bound
    the slice is frozen once, and reads its copy from then on."""
    wh = seeded_warehouse(orders=30)
    wh.insert("lineitem", [(0, 0, 0)])
    pinned = wh.snapshot()
    rows, lines = sorted(pinned.view_rows("ol"), key=repr), pinned.table_rows("lineitem")
    frozen = None
    for step in range(40):  # churn: the containers stay the same size
        line = (step % 30, 1, step)
        wh.insert("lineitem", [line])
        wh.delete("lineitem", [line])
        for name, slice_ in (("ol", pinned.views["ol"]), ("lineitem", pinned.tables["lineitem"])):
            live = wh.view(name) if name == "ol" else wh.db.table(name)
            assert logged_after(slice_) <= len(live), (step, name)
        if frozen is None and pinned.views["ol"]._state[1] is None:
            frozen = pinned.views["ol"]._state[0]
    assert frozen is not None and pinned.views["ol"]._state[0] is frozen  # paid once
    assert pinned.tables["lineitem"]._state[1] is None
    assert sorted(pinned.view_rows("ol"), key=repr) == rows
    assert pinned.table_rows("lineitem") == lines
    assert wh.snapshots.freezes >= 2
    wh.close()


def test_fold_is_invisible_to_a_pinned_reader():
    """Freezing a held slice (the bound above) changes what it reads from,
    never what it reads."""
    wh = seeded_warehouse(orders=10)
    wh.insert("lineitem", [(0, 0, 0)])
    pinned = wh.snapshot()
    before = sorted(pinned.view_rows("ol"), key=repr)
    freezes = wh.snapshots.freezes
    for order in range(1, 10):  # two view entries each: past the 10 rows
        wh.insert("lineitem", [(order, 0, order)])
    assert wh.snapshots.freezes > freezes
    assert pinned.views["ol"]._state[1] is None
    assert wh.snapshot().views["ol"]._state[0] is wh.view("ol")._rows
    assert sorted(pinned.view_rows("ol"), key=repr) == before
    assert pinned.query("ol", **{"orders.o_orderkey": 5})[0][-1] is None
    assert wh.snapshot().query("ol", **{"orders.o_orderkey": 5})[0][-1] == 5
    wh.close()


def test_unchanged_objects_are_shared_between_epochs():
    wh = seeded_warehouse()
    first = wh.snapshot()
    wh.insert("lineitem", [(1, 0, 5)])
    second = wh.snapshot()
    assert second.tables["orders"] is first.tables["orders"]
    assert second.tables["lineitem"] is not first.tables["lineitem"]
    # both read the one live dict, through different logs
    assert second.views["ol"]._state[0] is first.views["ol"]._state[0] is wh.view("ol")._rows
    wh.close()


# ---------------------------------------------------------------------------
# torn reads
# ---------------------------------------------------------------------------
def test_reads_racing_multi_row_batches_see_only_published_epochs():
    """A reader thread probes and scans the latest snapshot while a
    ``workers=1`` warehouse applies multi-row batches to the live
    containers under it: every read equals the epoch its snapshot was
    published at, never a half-applied batch."""
    wh = seeded_warehouse(orders=200, workers=1)
    epochs = {}  # seq -> (ol key -> row, lineitem rows), copied at publish
    inner = wh.snapshots.publish

    def publish(tables, views, aggregates, stale=(), lsn=None):
        snapshot = inner(tables, views, aggregates, stale=stale, lsn=lsn)
        epochs[snapshot.seq] = (dict(views["ol"]._rows), sorted(tables["lineitem"].rows))
        return snapshot

    wh.snapshots.publish = publish
    wh._publish()
    done, torn, reads = threading.Event(), [], [0]

    def reader():
        rng = random.Random(5)
        while not done.is_set():
            snap = wh.snapshot()
            while snap.seq not in epochs:  # the shadow copy lands after publish returns
                pass
            by_key, lines = epochs[snap.seq]
            order = rng.randrange(200)
            for key in ((order, None, None), (order, order, 0), (order, order, 1)):
                if snap.views["ol"].get(key) != by_key.get(key):
                    torn.append((snap.seq, "probe", key))
            if sorted(snap.view_rows("ol"), key=repr) != sorted(by_key.values(), key=repr):
                torn.append((snap.seq, "view scan"))
            if sorted(snap.table_rows("lineitem")) != lines:
                torn.append((snap.seq, "table scan"))
            reads[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=reader)
    thread.start()
    try:
        rng = random.Random(3)
        for step in range(30):
            orders = rng.sample(range(200), 40)
            batch = [(o, o, step % 2) for o in orders]
            wh.insert("lineitem", batch)
            wh.delete("lineitem", batch[: 25])
            wh.delete_by_key("lineitem", [row[:2] for row in batch[25:]])
    finally:
        done.set()
        thread.join()
        sys.setswitchinterval(interval)
    assert reads[0] > 0
    assert torn == []
    wh.check_consistency()
    wh.close()


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
def test_serving_stats_and_metrics_report_no_copies():
    """Publication copies nothing, so nothing reports what it copied:
    ``serving_stats()`` and the exposition count publishes only."""
    telemetry = Telemetry()
    wh = seeded_warehouse(telemetry=telemetry)
    wh.insert("lineitem", [(1, 0, 5), (2, 0, 6)])
    stats = wh.serving_stats()
    assert not {"captured_rows", "full_captures", "overlay_folds"} & set(stats)
    assert stats["snapshots_published"] == wh.snapshots.published_count
    text = wh.metrics_text()
    assert "captured_rows" not in text and "full_captures" not in text
    assert f"repro_snapshots_published_total {wh.snapshots.published_count}" in text
    wh.close()
