"""Tests for multi-statement transactions (Warehouse.transaction):
deferred DEFERRABLE-FK checking, atomic rollback of database and views
(by inverse changes, never copies), the one-record commit journal, and
the Section 6 caveat-3 interaction with FK optimizations."""

import pytest

from repro.algebra import Q, eq
from repro.core import ViewDefinition, agg_sum, count_star
from repro.engine import Database
from repro.errors import CatalogError, ConstraintError, FanOutError
from repro.runtime import FAILPOINTS, InjectedFault
from repro.warehouse import Warehouse

from ..runtime.test_sharded_warehouse import build_db, order_lines_defn


def build_warehouse(deferrable=True, **runtime):
    db = Database()
    db.create_table("orders", ["ok", "cust"], key=["ok"])
    db.create_table(
        "lineitem", ["lk", "ok", "qty"], key=["lk"], not_null=["ok"]
    )
    db.add_foreign_key(
        "lineitem", ["ok"], "orders", ["ok"], deferrable=deferrable
    )
    db.insert("orders", [(1, "a")])
    db.insert("lineitem", [(10, 1, 5)])
    wh = Warehouse(db, **runtime)
    wh.create_view(
        "ol",
        Q.table("orders")
        .left_outer_join("lineitem", on=eq("lineitem.ok", "orders.ok"))
        .build(),
    )
    wh.create_aggregated_view(
        "per_cust",
        ViewDefinition(
            "per_cust_base",
            Q.table("orders")
            .left_outer_join("lineitem", on=eq("lineitem.ok", "orders.ok"))
            .build(),
        ),
        group_by=["orders.cust"],
        aggregates=[count_star("n"), agg_sum("lineitem.qty", "qty")],
    )
    return db, wh


class TestCommit:
    def test_deferred_fk_allows_child_before_parent(self):
        db, wh = build_warehouse()
        with wh.transaction() as txn:
            txn.insert("lineitem", [(11, 2, 7)])  # order 2 comes later
            txn.insert("orders", [(2, "b")])
        wh.check_consistency()
        assert len(db.table("lineitem")) == 2

    def test_view_sees_joined_row_after_commit(self):
        db, wh = build_warehouse()
        with wh.transaction() as txn:
            txn.insert("lineitem", [(11, 2, 7)])
            txn.insert("orders", [(2, "b")])
        view = wh.view("ol")
        lk = view.schema.index_of("lineitem.lk")
        assert any(r[lk] == 11 for r in view.rows())

    def test_deletes_inside_transaction(self):
        db, wh = build_warehouse()
        with wh.transaction() as txn:
            txn.delete("lineitem", [(10, 1, 5)])
            txn.insert("lineitem", [(12, 1, 9)])
        wh.check_consistency()

    def test_non_deferrable_fk_checked_immediately(self):
        db, wh = build_warehouse(deferrable=False)
        with pytest.raises(ConstraintError):
            with wh.transaction() as txn:
                txn.insert("lineitem", [(11, 2, 7)])  # immediate failure
        wh.check_consistency()
        assert len(db.table("lineitem")) == 1


class TestRollback:
    def test_commit_time_fk_violation_rolls_back_everything(self):
        db, wh = build_warehouse()
        before_view = frozenset(wh.view("ol").rows())
        before_agg = wh.aggregated_view("per_cust").rows()
        with pytest.raises(ConstraintError):
            with wh.transaction() as txn:
                txn.insert("orders", [(3, "c")])
                txn.insert("lineitem", [(13, 99, 1)])  # no order 99
        assert len(db.table("orders")) == 1
        assert frozenset(wh.view("ol").rows()) == before_view
        assert wh.aggregated_view("per_cust").rows() == before_agg
        wh.check_consistency()

    def test_user_exception_rolls_back(self):
        db, wh = build_warehouse()
        with pytest.raises(RuntimeError):
            with wh.transaction() as txn:
                txn.insert("orders", [(4, "d")])
                raise RuntimeError("abort")
        assert len(db.table("orders")) == 1
        wh.check_consistency()

    def test_warehouse_usable_after_rollback(self):
        db, wh = build_warehouse()
        with pytest.raises(RuntimeError):
            with wh.transaction() as txn:
                txn.insert("orders", [(4, "d")])
                raise RuntimeError("abort")
        wh.insert("orders", [(5, "e")])
        wh.check_consistency()
        assert len(db.table("orders")) == 2

    def test_subkey_indexes_restored(self):
        db, wh = build_warehouse()
        maintainer = wh.maintainer("ol")
        # force a subkey index into existence, then roll back past it
        maintainer.view.subkey_index(("lineitem.lk",))
        with pytest.raises(RuntimeError):
            with wh.transaction() as txn:
                txn.insert("lineitem", [(14, 1, 2)])
                raise RuntimeError("abort")
        wh.insert("lineitem", [(15, 1, 3)])
        wh.check_consistency()


class TestLifecycle:
    def test_transaction_not_reusable(self):
        db, wh = build_warehouse()
        with wh.transaction() as txn:
            txn.insert("orders", [(6, "f")])
        with pytest.raises(CatalogError, match="no longer active"):
            txn.insert("orders", [(7, "g")])

    def test_empty_transaction_commits(self):
        db, wh = build_warehouse()
        with wh.transaction():
            pass
        wh.check_consistency()


class TestLifecycleMethods:
    def test_prepare_is_idempotent_and_commit_prepares(self):
        db, wh = build_warehouse()
        txn = wh.transaction()
        txn.insert("lineitem", [(11, 2, 7)])
        with pytest.raises(ConstraintError):
            txn.prepare()  # order 2 has not arrived
        txn.insert("orders", [(2, "b")])
        txn.prepare()
        txn.prepare()
        txn.commit()
        txn.rollback()  # a no-op once committed
        assert len(db.table("lineitem")) == 2
        wh.check_consistency()


# ---------------------------------------------------------------------------
# undo is the inverse change, on both transports
# ---------------------------------------------------------------------------
FLAVOURS = {"local": {}, "2-shards": {"shards": 2, "shard_backend": "thread"}}


def open_flavour(flavour):
    wh = Warehouse(build_db(deferrable=True), **FLAVOURS[flavour])
    wh.create_view("order_lines", order_lines_defn())
    wh.create_view("order_lines_2", order_lines_defn("order_lines_2"))
    return wh


def contents(wh):
    return (
        {t: frozenset(wh.table_rows(t)) for t in sorted(wh.db.tables)},
        {v: frozenset(wh.view_rows(v)) for v in wh.view_names},
    )


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_begin_commit_and_rollback_copy_nothing(flavour, no_undo_copy):
    wh = open_flavour(flavour)
    try:
        before = contents(wh)
        with pytest.raises(RuntimeError):
            with wh.transaction() as txn:
                txn.insert("lineitem", [(300, 0, 1)])
                txn.insert("orders", [(300, 1)])
                txn.delete("lineitem", [(0, 0, 0)])
                raise RuntimeError("abort")
        assert contents(wh) == before
        with pytest.raises(ConstraintError):
            with wh.transaction() as txn:
                txn.insert("lineitem", [(999, 0, 1)])  # its order never comes
        assert contents(wh) == before
        with wh.transaction() as txn:
            txn.insert("lineitem", [(300, 0, 1)])
            txn.insert("orders", [(300, 1)])
        assert (300, 0, 1) in contents(wh)[0]["lineitem"]
        wh.check_consistency()
    finally:
        wh.close()


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_rollback_after_a_maintenance_failure_repairs_the_view(flavour):
    """A statement whose fan-out quarantines one view: the rollback walks
    the inverses past it, then rebuilds it — every view equals its
    recompute and none stays quarantined."""
    wh = open_flavour(flavour)
    try:
        before = contents(wh)
        with pytest.raises(FanOutError):
            with wh.transaction() as txn:
                txn.insert("orders", [(300, 1)])
                with FAILPOINTS.armed("maintain.pass", view="order_lines_2", times=None):
                    txn.insert("lineitem", [(300, 0, 1), (1, 7, 1)])
        assert wh.quarantined_views == []
        assert contents(wh) == before
        wh.check_consistency()
    finally:
        FAILPOINTS.reset()
        wh.close()


# ---------------------------------------------------------------------------
# the commit journal is one WAL record
# ---------------------------------------------------------------------------
def _arm_kth_append(k):
    FAILPOINTS.arm("wal.append", action="skip", times=k - 1)  # the first k-1 pass
    FAILPOINTS.arm("wal.append")  # the k-th raises


def _tear(wal_dir, record):
    """Cut the WAL's final record — or its last change-bearing one, with
    everything after it — in half: a crash mid-write."""
    path = max(wal_dir.glob("seg-*.wal"))
    lines = path.read_bytes().splitlines(keepends=True)
    last = len(lines) - 1
    if record == "journal":
        last = max(i for i, line in enumerate(lines) if b'"kind":"change"' in line)
    with open(path, "ab") as handle:
        handle.truncate(sum(map(len, lines[:last])) + len(lines[last]) // 2)


@pytest.mark.parametrize("fault", ["append-1", "append-2", "torn-ack", "torn-journal"])
def test_commit_journal_is_all_or_nothing(tmp_path, fault):
    """A 2-statement commit over a checkpointed warehouse: a failed
    append at either statement leaves neither in the log, and a torn log
    loses the whole transaction or nothing — a restart over genesis
    recovers exactly the live state (the pre-transaction state when the
    journal itself was torn)."""
    runtime = {"wal_path": str(tmp_path / "wal"), "checkpoint_dir": str(tmp_path / "ckpt")}
    _, wh = build_warehouse(**runtime)
    wh.insert("orders", [(5, "e")])
    wh.checkpoint()
    wh.insert("lineitem", [(12, 5, 1)])  # a suffix the replay must redo
    before = contents(wh)
    try:
        with wh.transaction() as txn:
            txn.insert("lineitem", [(11, 2, 7)])
            txn.insert("orders", [(2, "b")])
            if fault.startswith("append"):
                _arm_kth_append(int(fault[-1]))
    except InjectedFault:
        assert fault.startswith("append")
    finally:
        FAILPOINTS.reset()
    live = contents(wh)
    assert (live == before) == fault.startswith("append")
    wh.close()
    if fault.startswith("torn"):
        _tear(tmp_path / "wal", fault[len("torn-") :])
    _, again = build_warehouse(**runtime)
    again.recover()
    assert contents(again) == (before if fault == "torn-journal" else live)
    again.check_consistency()
    again.close()
