"""The sharded warehouse facade: routing edge cases, transactions,
recovery with damaged shard WALs.  (Shard-vs-unsharded equivalence of
the shared change surface: tests/integration/test_facade_contract.py.)

Thread-backend workers everywhere except the process-backend smoke and
GC tests: they run the identical serve loop over the same pipe, and keep
the suite fast and deterministic.
"""

import gc
import glob
import os

import pytest

from repro import Database, Q, eq
from repro import sharded as sharded_module
from repro.core import ViewDefinition
from repro.errors import (
    CatalogError,
    ConstraintError,
    FanOutError,
    MaintenanceError,
    ShardingError,
)
from repro.obs import Telemetry
from repro.runtime import ShardingSpec
from repro.runtime.failpoints import FAILPOINTS
from repro.runtime.shardproc import WORKER_GC_THRESHOLD, ShardHandle
from repro.sharded import ShardedSnapshot, ShardedWarehouse
from repro.warehouse import Warehouse


def build_db(orders=6, lines_per=2, deferrable=False):
    db = Database()
    db.create_table("orders", ["o_orderkey", "o_custkey"], key=["o_orderkey"])
    db.create_table(
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_qty"],
        key=["l_orderkey", "l_linenumber"],
    )
    db.add_foreign_key(
        "lineitem",
        ["l_orderkey"],
        "orders",
        ["o_orderkey"],
        deferrable=deferrable,
    )
    db.insert("orders", [(o, o % 3) for o in range(orders)])
    db.insert(
        "lineitem",
        [
            (o, ln, 10 * o + ln)
            for o in range(orders)
            for ln in range(lines_per)
        ],
    )
    return db


def order_lines_defn(name="order_lines"):
    expr = (
        Q.table("orders")
        .left_outer_join(
            "lineitem", on=eq("lineitem.l_orderkey", "orders.o_orderkey")
        )
        .build()
    )
    return ViewDefinition(name, expr)


def make_sharded(db=None, shards=2, **kwargs):
    kwargs.setdefault("shard_backend", "thread")
    wh = Warehouse(db if db is not None else build_db(), shards=shards, **kwargs)
    wh.create_view("order_lines", order_lines_defn())
    return wh


def reference_views(db, ops=()):
    """What an unsharded warehouse produces for the same stream."""
    wh = Warehouse(db.copy())
    wh.create_view("order_lines", order_lines_defn())
    for kind, table, rows in ops:
        getattr(wh, kind)(table, rows)
    rows = frozenset(wh.maintainer("order_lines").view.rows())
    wh.close()
    return rows


# ---------------------------------------------------------------------------
# construction and routing
# ---------------------------------------------------------------------------
def test_warehouse_shards_kwarg_dispatches_to_sharded_subclass():
    wh = Warehouse(build_db(), shards=2, shard_backend="thread")
    try:
        assert isinstance(wh, ShardedWarehouse)
        assert wh.shards == 2
    finally:
        wh.close()
    plain = Warehouse(build_db())
    try:
        assert not isinstance(plain, ShardedWarehouse)
    finally:
        plain.close()


def test_empty_shard_participates_in_merge_and_accepts_late_rows():
    # range-partition so every initial row lands on shard 0: shard 1
    # starts empty but must still answer merges (its fragments decide
    # residue-row survival) and accept rows later
    db = build_db(orders=4)
    wh = make_sharded(
        db.copy(),
        shards=2,
        sharding=ShardingSpec(2, {"lineitem": ("l_orderkey",)}, ranges=(1000,)),
    )
    try:
        stats = wh.shard_stats()
        assert stats["shards"][1]["table_rows"]["lineitem"] == 0
        merged = frozenset(map(tuple, wh.view_rows("order_lines")))
        assert merged == reference_views(db)
        # a row beyond the split point lands on the empty shard
        wh.insert("orders", [(2000, 1)])
        wh.insert("lineitem", [(2000, 0, 1)])
        with pytest.raises(ConstraintError):
            wh.insert("lineitem", [(2000, 0, 1)])  # dup key, shard-local
        stats = wh.shard_stats()
        assert stats["shards"][1]["table_rows"]["lineitem"] == 1
    finally:
        wh.close()


def test_merged_view_rows_equal_the_unsharded_views():
    """Each merged view holds exactly the unsharded view's rows, residue
    rows (a replicated customer with no order anywhere) included, for a
    view with one witness column (``o_orderkey``) and for one with three."""
    from collections import Counter

    db = Database()
    db.create_table("customer", ["c_custkey", "c_name"], key=["c_custkey"])
    db.create_table("orders", ["o_orderkey", "o_custkey"], key=["o_orderkey"])
    db.create_table(
        "lineitem", ["l_orderkey", "l_linenumber"], key=["l_orderkey", "l_linenumber"]
    )
    db.insert("customer", [(c, f"c{c}") for c in range(6)])
    db.insert("orders", [(o, o % 4) for o in range(8)])
    db.insert("lineitem", [(o, 0) for o in range(0, 8, 2)])
    customer_orders = Q.table("customer").left_outer_join(
        "orders", on=eq("orders.o_custkey", "customer.c_custkey")
    )
    views = {
        "customer_orders": customer_orders.build(),
        "customer_lines": customer_orders.left_outer_join(
            "lineitem", on=eq("lineitem.l_orderkey", "orders.o_orderkey")
        ).build(),
    }
    ops = [
        ("insert", "customer", [(9, "c9")]),
        ("delete", "lineitem", [(0, 0), (4, 0)]),
        ("delete", "orders", [(0, 0), (4, 0)]),  # customer 0 has none left
    ]
    plain = Warehouse(db.copy())
    wh = Warehouse(
        db.copy(), shards=2, shard_backend="thread",
        sharding=ShardingSpec(2, {"orders": ("o_orderkey",), "lineitem": ("l_orderkey",)}),
    )
    try:
        for target in (plain, wh):
            for name, expr in views.items():
                target.create_view(name, ViewDefinition(name, expr))
        for step in [None, *ops]:
            if step is not None:
                for target in (plain, wh):
                    getattr(target, step[0])(step[1], step[2])
            for name in views:
                expected = Counter(plain.view_rows(name))
                assert Counter(map(tuple, wh.view_rows(name))) == expected
                assert any(row[-1] is None for row in expected)  # residue kept
    finally:
        wh.close()
        plain.close()


def test_max_skew_reports_rebalance_advisory():
    # all rows hash... I mean, range to shard 0 of 4 -> skew 4.0
    db = build_db(orders=8)
    wh = make_sharded(
        db.copy(),
        shards=4,
        sharding=ShardingSpec(
            4, {"lineitem": ("l_orderkey",)}, ranges=(1000, 2000, 3000)
        ),
    )
    try:
        stats = wh.shard_stats()
        assert stats["skew"]["lineitem"] == pytest.approx(4.0)
        (advisory,) = stats["rebalance"]
        assert advisory["table"] == "lineitem"
        assert advisory["hottest_shard"] == 0
        assert "range split points" in advisory["suggestion"]
    finally:
        wh.close()


def test_single_shard_key_probe_avoids_fan_out():
    wh = make_sharded(shards=3, telemetry=Telemetry())
    try:
        queries = wh.telemetry.metrics.get("repro_shard_queries_total")
        # all routing columns pinned -> single-shard fast path
        rows = wh.query(
            "order_lines",
            **{"lineitem.l_orderkey": 2, "lineitem.l_linenumber": 1},
        )
        assert queries.value(outcome="fastpath") == 1
        assert queries.value(outcome="fanout") == 0
        assert rows == [r for r in wh.query("order_lines") if r[2] == 2 and r[3] == 1]
        assert queries.value(outcome="fanout") == 1
    finally:
        wh.close()


def test_snapshot_pins_a_stable_cross_shard_epoch():
    wh = make_sharded(shards=2)
    try:
        wh.flush()
        snap = wh.snapshot()
        before = frozenset(map(tuple, snap.query("order_lines")))
        wh.insert("orders", [(500, 1)])
        wh.insert("lineitem", [(500, 0, 9)])
        wh.flush()
        assert frozenset(map(tuple, snap.query("order_lines"))) == before
        live = frozenset(map(tuple, wh.query("order_lines")))
        assert live != before
        snap.release()
    finally:
        wh.close()


def test_statement_message_shape(monkeypatch):
    """What a statement costs on the wire: one owning shard, exactly one
    ``change``; several, two messages per participant (apply+prepare,
    then commit) and no ``flush`` barrier."""
    sent = []
    submit = ShardHandle.submit

    def counting_submit(handle, cmd, **payload):
        sent.append((handle.shard_id, cmd))
        return submit(handle, cmd, **payload)

    wh = make_sharded(shards=2)
    try:
        monkeypatch.setattr(ShardHandle, "submit", counting_submit)
        (owner,) = wh.router.split_rows("lineitem", [(0, 9, 1)])
        wh.insert("lineitem", [(0, 9, 1)])
        assert sent == [(owner, "change")]
        for table, rows in (
            ("orders", [(100, 1)]),  # replicated: every shard
            ("lineitem", [(o, 20 + o, 1) for o in range(6)]),  # partitioned
        ):
            del sent[:]
            wh.insert(table, rows)
            participants = sorted(wh._route(table, rows))
            assert len(participants) == 2
            assert sorted(sent) == sorted(
                (shard, cmd)
                for shard in participants
                for cmd in ("txn_stmt", "txn_commit")
            )
        wh.check_consistency()
    finally:
        wh.close()


def test_merged_reads_ship_only_what_they_read(monkeypatch):
    """A merged read asks each shard for the tables and views it reads:
    one view, one table (a replicated one from shard 0 only), or the
    tables alone; an unknown name fails before any shard is asked."""
    sent = []
    submit = ShardHandle.submit

    def spying_submit(handle, cmd, **payload):
        sent.append((handle.shard_id, cmd, payload))
        return submit(handle, cmd, **payload)

    def dumps_of(read):
        del sent[:]
        read()
        assert {cmd for _, cmd, _ in sent} <= {"dump"}
        return sorted((shard, p["tables"], p["views"]) for shard, _, p in sent)

    wh = make_sharded(shards=2)
    try:
        monkeypatch.setattr(ShardHandle, "submit", spying_submit)
        assert dumps_of(lambda: wh.view_rows("order_lines")) == [
            (0, [], ["order_lines"]),
            (1, [], ["order_lines"]),
        ]
        assert dumps_of(lambda: wh.table_rows("lineitem")) == [
            (0, ["lineitem"], []),
            (1, ["lineitem"], []),
        ]
        assert dumps_of(lambda: wh.table_rows("orders")) == [(0, ["orders"], [])]
        assert dumps_of(wh.merged_database) == [
            (0, list(wh.db.tables), []),
            (1, ["lineitem"], []),
        ]
        del sent[:]
        with pytest.raises(CatalogError):
            wh.view_rows("nope")
        with pytest.raises(CatalogError):
            wh.table_rows("nope")
        assert sent == []
    finally:
        wh.close()


def test_merged_view_check_names_the_view_whose_merge_diverged(monkeypatch):
    """The third layer of ``check_consistency``: every shard's own check
    passes and the replicated tables agree, but one view's merge loses a
    row.  The merged-view check names that view, and it merged every
    view on the way (the broken one sorts last)."""
    wh = make_sharded(shards=2)
    try:
        wh.create_view("order_lines_b", order_lines_defn("order_lines_b"))
        broken = "order_lines_b"
        merge = sharded_module.merge_view_rows
        merged = []

        def lossy_merge(plan, fragments):
            merged.append(plan.view)
            rows = merge(plan, fragments)
            return rows[1:] if plan.view == broken else rows

        monkeypatch.setattr(sharded_module, "merge_view_rows", lossy_merge)
        with pytest.raises(MaintenanceError, match=f"sharded view {broken!r} diverged"):
            wh.check_consistency()
        assert merged == sorted(wh.view_names) == ["order_lines", broken]
    finally:
        wh.close()


# ---------------------------------------------------------------------------
# cross-shard transactions
# ---------------------------------------------------------------------------
def test_cross_shard_transaction_commits_atomically():
    db = build_db(deferrable=True)
    wh = make_sharded(db.copy(), shards=3)
    try:
        with wh.transaction() as txn:
            # lineitem before its order: FK is deferred to the prepare
            # round, and the rows hash to different shards
            txn.insert("lineitem", [(300, 0, 1), (301, 0, 2)])
            txn.insert("orders", [(300, 1), (301, 1)])
        merged = frozenset(map(tuple, wh.view_rows("order_lines")))
        ops = [
            ("insert", "lineitem", [(300, 0, 1), (301, 0, 2)]),
            ("insert", "orders", [(300, 1), (301, 1)]),
        ]
        assert merged == reference_views(db, [(k, t, r) for k, t, r in [
            ("insert", "orders", [(300, 1), (301, 1)]),
            ("insert", "lineitem", [(300, 0, 1), (301, 0, 2)]),
        ]])
    finally:
        wh.close()


def test_cross_shard_transaction_rolls_back_on_exception():
    db = build_db(deferrable=True)
    wh = make_sharded(db.copy(), shards=3)
    try:
        before_tables = {t: frozenset(wh.table_rows(t)) for t in wh.db.tables}
        with pytest.raises(RuntimeError):
            with wh.transaction() as txn:
                txn.insert("orders", [(400, 1)])
                txn.insert("lineitem", [(400, 0, 1), (401, 0, 1)])
                raise RuntimeError("abort mid-transaction")
        after_tables = {t: frozenset(wh.table_rows(t)) for t in wh.db.tables}
        assert after_tables == before_tables
        merged = frozenset(map(tuple, wh.view_rows("order_lines")))
        assert merged == reference_views(db)
    finally:
        wh.close()


def test_cross_shard_transaction_rolls_back_on_prepare_failure():
    # one shard's deferred FK check fails at prepare: every shard —
    # including those whose local statements were fine — must roll back
    db = build_db(deferrable=True)
    wh = make_sharded(db.copy(), shards=3)
    try:
        with pytest.raises(ConstraintError):
            with wh.transaction() as txn:
                txn.insert("orders", [(600, 1)])
                txn.insert("lineitem", [(600, 0, 1), (999, 0, 1)])
                # order 999 never arrives
        merged = frozenset(map(tuple, wh.view_rows("order_lines")))
        assert merged == reference_views(db)
        wh.check_consistency()
    finally:
        wh.close()


def insert_order(wh):
    wh.insert("orders", [(77, 1)])


def insert_order_in_a_transaction(wh):
    with wh.transaction() as txn:
        txn.insert("orders", [(77, 1)])


@pytest.mark.parametrize(
    "change", [insert_order, insert_order_in_a_transaction], ids=["change", "transaction"]
)
@pytest.mark.parametrize("shards", [None, 2])
def test_a_failed_view_is_reported_quarantined_only_if_it_stays_so(shards, change):
    """A local change stands with the failed view quarantined.  A
    statement reaching both shards (``orders`` is replicated) is rolled
    back on every shard instead, as is an explicit transaction on either
    transport, and the rollback rebuilds the view, so its
    ``FanOutError`` names no quarantined view."""
    if shards:
        wh = make_sharded(shards=shards)
    else:
        wh = Warehouse(build_db())
        wh.create_view("order_lines", order_lines_defn())
    try:
        with FAILPOINTS.armed("maintain.pass", view="order_lines"):
            with pytest.raises(FanOutError) as excinfo:
                change(wh)
        assert list(excinfo.value.failures) == ["order_lines"]
        assert excinfo.value.quarantined == wh.quarantined_views
        stands = (77, 1) in map(tuple, wh.table_rows("orders"))
        rolled_back = shards or change is insert_order_in_a_transaction
        assert (stands, wh.quarantined_views) == (
            (False, []) if rolled_back else (True, ["order_lines"])
        )
    finally:
        wh.close()


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------
def test_recovery_iterates_shard_lineages(tmp_path):
    db = build_db()
    wh = make_sharded(db.copy(), shards=2, wal_path=str(tmp_path / "wal"))
    try:
        wh.insert("orders", [(700, 1)])
        wh.insert("lineitem", [(700, 0, 3), (700, 1, 4)])
        wh.recover()
        summary = wh.last_recovery
        assert set(summary["shards"]) == {0, 1}
        assert not summary["degraded"]
        merged = frozenset(map(tuple, wh.view_rows("order_lines")))
        assert merged == reference_views(db, [
            ("insert", "orders", [(700, 1)]),
            ("insert", "lineitem", [(700, 0, 3), (700, 1, 4)]),
        ])
    finally:
        wh.close()


def test_restart_before_the_first_checkpoint_replays_each_whole_wal(tmp_path):
    """With a checkpoint_dir but no checkpoint written yet, recovery
    replays every entry from LSN 0: the restart must start each shard
    from its initial partition rows, never from the rows it holds."""
    db = build_db()
    wh = make_sharded(
        db.copy(), shards=2, wal_path=str(tmp_path / "wal"),
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    try:
        wh.insert("orders", [(700, 1)])
        wh.insert("lineitem", [(700, 0, 3), (700, 1, 4)])
        wh.recover()
        assert wh.last_recovery["replayed"] > 0
        assert sorted(wh.table_rows("lineitem")) == sorted(
            db.table("lineitem").rows + [(700, 0, 3), (700, 1, 4)]
        )
        merged = frozenset(map(tuple, wh.view_rows("order_lines")))
        assert merged == reference_views(db, [
            ("insert", "orders", [(700, 1)]),
            ("insert", "lineitem", [(700, 0, 3), (700, 1, 4)]),
        ])
        wh.check_consistency()
    finally:
        wh.close()


def test_recovery_with_one_corrupt_shard_wal_degrades_not_dies(tmp_path):
    db = build_db()
    wal_root = tmp_path / "wal"
    wh = make_sharded(db.copy(), shards=2, wal_path=str(wal_root))
    try:
        wh.insert("orders", [(800, 1), (801, 2)])
        wh.insert("lineitem", [(800, 0, 1), (801, 0, 2)])
        wh.flush()
        # bit-flip the middle of shard 0's log; shard 1 stays pristine
        segments = sorted(glob.glob(str(wal_root / "shard-0" / "*")))
        segments = [p for p in segments if os.path.isfile(p)]
        assert segments, "shard 0 wrote no WAL segment"
        with open(segments[0], "r+b") as handle:
            raw = handle.read()
            handle.seek(len(raw) // 2)
            handle.write(b"\xff\xfe\xfd\xfc")
        wh.recover()
        summary = wh.last_recovery
        assert summary["degraded"]
        assert summary["corruption_detected"]
        assert 0 in summary["quarantined_segments"]
        assert 1 not in summary["quarantined_segments"]
        # the warehouse survives and keeps serving: every shard's views
        # equal its own recompute (the first layer check_consistency
        # runs), and the history shard 0 lost is named, not papered
        # over — its copy of the replicated table replays without it
        wh.insert("orders", [(900, 1)])
        assert 900 in {row[0] for row in wh.table_rows("orders")}
        with pytest.raises(MaintenanceError, match="replicated table 'orders' diverged"):
            wh.check_consistency()
    finally:
        wh.close()


# ---------------------------------------------------------------------------
# guardrails and the process backend
# ---------------------------------------------------------------------------
def test_unsupported_surfaces_raise_sharding_error():
    wh = make_sharded(shards=2)
    try:
        with pytest.raises(ShardingError):
            wh.maintainer("order_lines")
        with pytest.raises(ShardingError, match="shard_stats"):
            wh.serving_stats()
        # what the local transport keeps in-process is typed, not an
        # AttributeError, on the coordinator
        for attribute in ("scheduler", "snapshots", "wal", "checkpoints"):
            with pytest.raises(ShardingError):
                getattr(wh, attribute)
        with pytest.raises(CatalogError):
            wh.table_rows("nope")
        with pytest.raises(CatalogError):
            wh.view_rows("nope")
        with pytest.raises(CatalogError):
            wh.definition("nope")
    finally:
        wh.close()


def test_ticket_resolves_once_under_concurrent_waiters_and_callbacks():
    # the coordinator has no dispatcher thread: a ticket is resolved by
    # whoever waits first — flush, an explicit wait(), or the waiter a
    # done-callback starts.  However they race, every ticket resolves
    # once, every callback fires once, and all see the same result.
    import sys
    import threading

    wh = make_sharded(shards=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        seen = []
        lock = threading.Lock()

        def record(result):
            with lock:
                seen.append(result)

        tickets = []
        for okey in range(6):  # orders 0..5 exist; two shards per change
            ticket = wh.apply_async(
                "lineitem",
                "insert",
                [(okey, 50 + okey, 1), ((okey + 1) % 6, 60 + okey, 1)],
            )
            ticket.add_done_callback(record)
            ticket.add_done_callback(record)
            tickets.append(ticket)
        waiters = [
            threading.Thread(target=ticket.wait)
            for ticket in tickets
            for _ in range(3)
        ]
        for thread in waiters:
            thread.start()
        results = wh.flush()
        for thread in waiters:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in waiters)
        assert [r.ok for r in results] == [True] * 6
        assert all(t.wait() is r for t, r in zip(tickets, results))
        # a callback registered after completion runs inline
        tickets[0].add_done_callback(record)
        assert len(seen) == 13
        assert {id(r) for r in seen} == {id(r) for r in results}
        wh.check_consistency()
    finally:
        sys.setswitchinterval(interval)
        wh.close()


def test_shard_count_must_match_spec():
    db = build_db()
    spec = ShardingSpec(2, {"lineitem": ("l_orderkey",)})
    with pytest.raises(ShardingError, match="shard"):
        Warehouse(db, shards=3, sharding=spec, shard_backend="thread")


@pytest.mark.parametrize("shards", [0, -1])
def test_shard_count_below_one_is_a_typed_error(shards):
    with pytest.raises(ShardingError, match="shards must be >= 1"):
        Warehouse(build_db(), shards=shards)


def test_process_backend_smoke():
    # spawned OS processes: the production backend
    db = build_db(orders=4)
    wh = Warehouse(db.copy(), shards=2, shard_backend="process")
    try:
        wh.create_view("order_lines", order_lines_defn())
        wh.apply_async("lineitem", "insert", [(0, 7, 70), (1, 7, 71)])
        wh.flush()
        merged = frozenset(map(tuple, wh.view_rows("order_lines")))
        assert merged == reference_views(db, [
            ("insert", "lineitem", [(0, 7, 70), (1, 7, 71)]),
        ])
        wh.check_consistency()
    finally:
        wh.close()


def test_process_worker_runs_a_change_sized_young_generation():
    wh = Warehouse(build_db(orders=2), shards=1, shard_backend="process")
    try:
        stats = wh.shard_stats()["shards"][0]["gc"]
        assert stats["threshold"][0] == WORKER_GC_THRESHOLD
        assert len(stats["collections"]) == 3  # one count per generation
    finally:
        wh.close()


def test_thread_worker_leaves_the_coordinators_gc_alone():
    before = gc.get_threshold()
    wh = make_sharded()
    assert wh.shard_stats()["shards"][0]["gc"]["threshold"] == before
    wh.close()
    assert gc.get_threshold() == before
