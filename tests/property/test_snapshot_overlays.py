"""Undo-logged slices answer exactly as a deep copy would.

A seeded random stream — inserts, deletes, ``delete_by_key``, committed
and rolled-back transactions, quarantine (a pass that failed half-applied
and undid itself) + ``repair_view``, ``create_view`` + ``drop_view`` — runs
through a warehouse whose every publish is shadowed by a deep copy of
the live state.  Afterwards *every* snapshot ever published — read through
many sealed logs, frozen once its logs outgrew the container, or left
on a container a rebuild replaced — must read exactly like its copy.  A
second stream adds checkpoints and live recoveries: pruned and
invalidated snapshots must read like their copies too.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aggregate import count_star
from repro.errors import FanOutError, ReproError
from repro.runtime import FAILPOINTS
from repro.warehouse import Warehouse

from ..runtime.test_scheduler import build_db, order_lines_expr

ORDERS = 120
STEPS = 260


@pytest.fixture(autouse=True)
def clean_failpoints():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


class Shadow:
    """Wraps ``wh.snapshots.publish``: each snapshot is kept together
    with a deep copy of what the warehouse held when it was taken."""

    def __init__(self, wh):
        self.epochs = []  # (snapshot, tables, views, freezes so far)
        inner = wh.snapshots.publish

        def publish(tables, views, aggregates, stale=(), lsn=None):
            snapshot = inner(tables, views, aggregates, stale=stale, lsn=lsn)
            self.epochs.append(
                (
                    snapshot,
                    {name: list(t.rows) for name, t in tables.items()},
                    {
                        **{n: dict(v._rows) for n, v in views.items()},
                        **{
                            n: {row[: len(a.group_by)]: row for row in a.rows()}
                            for n, a in aggregates.items()
                        },
                    },
                    wh.snapshots.freezes,
                )
            )
            return snapshot

        wh.snapshots.publish = publish


def drive(wh, rng, steps, durable=False):
    """One random stream; returns the number of ops that failed typed.
    *durable* (a warehouse with a WAL and checkpoints) adds checkpoints,
    which prune the store, and live recoveries, which invalidate it."""
    lines = {}  # (orderkey, linenumber) -> row, mirror of live lineitem
    next_order = ORDERS
    failed = 0

    def fresh_lines(count):
        rows = []
        for _ in range(count):
            key = (rng.randrange(next_order), rng.randrange(50))
            if key not in lines and key not in {r[:2] for r in rows}:
                rows.append(key + (rng.randrange(100),))
        return rows

    def held_lines(count):
        return rng.sample(sorted(lines.values()), min(count, len(lines)))

    for _ in range(steps):
        kind = rng.choice(
            ["insert"] * 6 + ["delete"] * 3
            + ["by_key", "order", "commit", "rollback", "quarantine", "ddl"]
            + (["checkpoint", "recover"] if durable else [])
        )
        try:
            if kind == "insert":
                rows = fresh_lines(rng.randint(1, 5))
                wh.insert("lineitem", rows)
                lines.update({r[:2]: r for r in rows})
            elif kind == "delete":
                rows = held_lines(rng.randint(1, 4))
                wh.delete("lineitem", rows)
                for r in rows:
                    del lines[r[:2]]
            elif kind == "by_key":
                rows = held_lines(2)
                wh.delete_by_key("lineitem", [r[:2] for r in rows])
                for r in rows:
                    del lines[r[:2]]
            elif kind == "order":
                wh.insert("orders", [(next_order, rng.randrange(7))])
                next_order += 1
            elif kind == "commit":
                rows, doomed = fresh_lines(3), held_lines(2)
                with wh.transaction() as txn:
                    txn.insert("orders", [(next_order, 1)])
                    txn.insert("lineitem", rows)
                    txn.delete("lineitem", doomed)
                next_order += 1
                lines.update({r[:2]: r for r in rows})
                for r in doomed:
                    del lines[r[:2]]
            elif kind == "rollback":
                with pytest.raises(ReproError):
                    with wh.transaction() as txn:
                        txn.insert("lineitem", fresh_lines(2))
                        txn.delete("lineitem", held_lines(1))
                        txn.insert("lineitem", [(10**6, 0, 0)])  # no such order
            elif kind == "quarantine":
                rows = fresh_lines(2)
                # ol_b's pass fails half-applied: undone, then quarantined
                with FAILPOINTS.armed("maintain.pass", view="ol_b"):
                    with pytest.raises(FanOutError):
                        wh.insert("lineitem", rows)
                lines.update({r[:2]: r for r in rows})
                wh.insert("orders", [(next_order, 2)])  # published while stale
                next_order += 1
                wh.repair_view("ol_b")
            elif kind == "ddl":
                if "extra" in wh.view_names:
                    wh.drop_view("extra")
                else:
                    wh.create_view("extra", order_lines_expr())
            elif kind == "checkpoint":
                wh.checkpoint()  # compacts the WAL and prunes the store
            elif kind == "recover":
                wh.checkpoint()  # the restore point a live recover() needs
                wh.recover()  # new tables, rebuilt views, every snapshot flagged
        except ReproError:
            failed += 1
    return failed


def assert_reads_like(snapshot, tables, views, ever):
    """*snapshot* against the deep copy taken when it was published;
    *ever* holds every key any epoch of a view has held."""
    assert sorted(snapshot.tables) == sorted(tables)
    for name, rows in tables.items():
        assert sorted(snapshot.table_rows(name)) == sorted(rows)
        assert len(snapshot.tables[name]) == len(rows)
    rebuilt = snapshot.build_database()
    for name, rows in tables.items():
        assert sorted(rebuilt.table(name).rows) == sorted(rows)
    assert snapshot.view_names == sorted(views)
    for name, by_key in views.items():
        if name in snapshot.stale_views:
            continue  # last good state by contract, not the live one
        slice_ = snapshot.views[name]
        rows = list(by_key.values())
        assert len(slice_) == len(rows)
        assert sorted(snapshot.view_rows(name), key=repr) == sorted(rows, key=repr)
        assert sorted(snapshot.query(name), key=repr) == sorted(rows, key=repr)
        assert len(snapshot.query(name, limit=3)) == min(3, len(rows))
        # full-key probes: every key this view ever held, here or gone
        for key in ever[name]:
            assert slice_.get(key) == by_key.get(key)
        for key in sorted(ever[name], key=repr)[::17]:
            row = by_key.get(key)
            probe = dict(zip(slice_.key_cols, key))
            assert snapshot.query(name, **probe) == ([] if row is None else [row])
        if not name.startswith("ol") and name != "extra":
            continue
        # partial equality, predicate, both with a limit
        position = slice_.columns.index("orders.o_custkey")
        want = [r for r in rows if r[position] == 3]
        assert sorted(snapshot.query(name, o_custkey=3), key=repr) == sorted(
            want, key=repr
        )
        odd = [r for r in rows if r[0] % 2]
        got = snapshot.query(
            name, predicate=lambda r: r["orders.o_orderkey"] % 2 == 1
        )
        assert sorted(got, key=repr) == sorted(odd, key=repr)
        limited = snapshot.query(name, o_custkey=3, limit=2)
        assert len(limited) == min(2, len(want)) and set(limited) <= set(want)


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_every_published_snapshot_reads_like_its_deep_copy(seed):
    rng = random.Random(seed)
    db = build_db()
    db.insert("orders", [(o, o % 7) for o in range(ORDERS)])
    wh = Warehouse(db)
    shadow = Shadow(wh)
    wh.create_view("ol_a", order_lines_expr())
    wh.create_view("ol_b", order_lines_expr())
    wh.create_aggregated_view(
        "per_customer", order_lines_expr(), ["orders.o_custkey"],
        [count_star("lines")],
    )
    failed = drive(wh, rng, STEPS)
    wh.check_consistency()

    store = wh.snapshots
    assert failed < STEPS // 4  # the stream mostly applied
    # held snapshots outgrew their logs, and were frozen, more than once
    assert store.freezes >= 2
    # some snapshot is still being read two or more freezes after it was taken
    assert any(store.freezes - freezes >= 2 for _, _, _, freezes in shadow.epochs)
    # ... some of them still through logs, some from a frozen copy
    states = [s.views["ol_a"]._state for s, _, _, _ in shadow.epochs]
    assert any(log is None for _, log in states)
    assert any(log is not None and log.next is not None for _, log in states)
    retained = store.retained_snapshots()
    assert len(retained) == 8
    assert retained == [epoch[0] for epoch in shadow.epochs[-8:]]
    ever = {}
    for _, _, views, _ in shadow.epochs:
        for name, by_key in views.items():
            ever.setdefault(name, set()).update(by_key)
    lagged = store.lagged_reads
    for snapshot, tables, views, _ in shadow.epochs:
        assert_reads_like(snapshot, tables, views, ever)
    assert store.lagged_reads > lagged  # reads undid sealed logs
    wh.close()


def test_pruned_and_invalidated_snapshots_still_read_their_epoch(tmp_path):
    """The same stream with checkpoints and live recoveries mixed in: a
    snapshot the store pruned, or that recovery flagged invalid and left
    on the tables and views it replaced, still reads exactly its epoch."""
    rng = random.Random(5)
    db = build_db()
    db.insert("orders", [(o, o % 7) for o in range(ORDERS)])
    wh = Warehouse(
        db, wal_path=str(tmp_path / "wal"), checkpoint_dir=str(tmp_path / "ckpt"),
    )
    shadow = Shadow(wh)
    wh.create_view("ol_a", order_lines_expr())
    wh.create_view("ol_b", order_lines_expr())
    wh.create_aggregated_view(
        "per_customer", order_lines_expr(), ["orders.o_custkey"],
        [count_star("lines")],
    )
    steps = STEPS // 2
    failed = drive(wh, rng, steps, durable=True)
    wh.check_consistency()
    assert failed < steps // 4
    epochs = shadow.epochs
    retained = wh.snapshots.retained_snapshots()
    pruned = [s for s, _, _, _ in epochs if s.valid and s not in retained]
    invalid = [s for s, _, _, _ in epochs if not s.valid]
    assert len(pruned) >= 2 and len(invalid) >= 2
    assert {s.invalid_reason for s in invalid} == {"recovery"}
    ever = {}
    for _, _, views, _ in epochs:
        for name, by_key in views.items():
            ever.setdefault(name, set()).update(by_key)
    for snapshot, tables, views, _ in epochs:
        assert_reads_like(snapshot, tables, views, ever)
    wh.close()
