"""Tests for persistent hash indexes (repro.engine.index)."""

import gc
import random
from copy import deepcopy

import pytest

from repro.engine import Database, Schema, Table
from repro.engine import operators as ops
from repro.engine.index import HashIndex, KeyIndex, find_index
from repro.errors import ConstraintError, SchemaError


@pytest.fixture
def db():
    d = Database()
    d.create_table("t", ["k", "a", "b"], key=["k"])
    d.insert("t", [(1, 10, "x"), (2, 10, "y"), (3, None, "z")])
    return d


class TestHashIndex:
    def test_key_index_created_automatically(self, db):
        table = db.table("t")
        assert any(i.columns == ("t.k",) for i in table.indexes)

    def test_key_index_holds_one_position_per_key(self, db):
        (key_index,) = db.table("t").indexes
        assert type(key_index) is KeyIndex
        assert key_index.buckets == {(1,): 0, (2,): 1, (3,): 2}
        assert key_index.lookup(db.table("t").rows, (2,)) == [(2, 10, "y")]
        assert key_index.lookup(db.table("t").rows, (9,)) == []

    def test_lookup(self, db):
        index = db.create_index("t", ["a"])
        rows = index.lookup(db.table("t").rows, (10,))
        assert {r[0] for r in rows} == {1, 2}

    def test_null_keys_not_indexed(self, db):
        index = db.create_index("t", ["a"])
        assert index.lookup(db.table("t").rows, (None,)) == []
        assert len(index) == 2

    def test_insert_updates_index(self, db):
        index = db.create_index("t", ["a"])
        db.insert("t", [(4, 10, "w")])
        assert {r[0] for r in index.lookup(db.table("t").rows, (10,))} == {1, 2, 4}

    def test_delete_updates_index(self, db):
        index = db.create_index("t", ["a"])
        db.delete("t", [(1, 10, "x")])
        assert {r[0] for r in index.lookup(db.table("t").rows, (10,))} == {2}

    def test_delete_last_in_bucket_removes_bucket(self, db):
        index = db.create_index("t", ["b"])
        db.delete("t", [(3, None, "z")])
        assert (("z",) in index.buckets) is False

    def test_create_index_idempotent(self, db):
        a = db.create_index("t", ["a"])
        b = db.create_index("t", ["a"])
        assert a is b

    def test_create_index_in_another_column_order_adds_none(self):
        d = Database()
        d.create_table("t", ["a", "b", "c"], key=["a", "b"])
        d.insert("t", [(1, 2, "x")])
        table = d.table("t")
        (key_index,) = table.indexes
        assert d.create_index("t", ["b", "a"]) is key_index
        assert table.indexes == [key_index]
        index, permutation = find_index(table, ("t.b", "t.a"))
        probe = tuple((2, 1)[i] for i in permutation)
        assert index.lookup(table.rows, probe) == [(1, 2, "x")]

    def test_empty_columns_rejected(self, db):
        with pytest.raises(SchemaError):
            HashIndex(db.table("t"), [])

    def test_copy_carries_independent_indexes(self, db, no_index_rebuild):
        db.create_index("t", ["a"])
        db.create_index("t", ["b"])
        table = db.table("t")
        before = index_state(table)
        clone = db.copy()
        clone.insert("t", [(9, 10, "q"), (8, None, "x")])
        clone.delete("t", [(1, 10, "x"), (3, None, "z")])
        original = find_index(table, ["t.a"])[0]
        cloned = find_index(clone.table("t"), ["t.a"])[0]
        assert len(original.lookup(table.rows, (10,))) == 2
        assert {r[0] for r in cloned.lookup(clone.table("t").rows, (10,))} == {2, 9}
        assert_indexes_exact(clone.table("t"))
        # the original's rows and every index layout are untouched
        assert table.rows == [(1, 10, "x"), (2, 10, "y"), (3, None, "z")]
        assert index_state(table) == before


def index_state(table):
    """A deep copy of every index's buckets and (if it has them) slots."""
    return [(deepcopy(i.buckets), deepcopy(getattr(i, "slots", None))) for i in table.indexes]


def assert_indexes_exact(table):
    """Every index of *table* equals a fresh build of it — the key
    index position for position, any other index bucket for bucket (as
    sets) — and its bookkeeping agrees with its buckets."""
    key_index, *others = table.indexes
    assert type(key_index) is KeyIndex
    assert all(type(i) is HashIndex for i in others)
    # the key index holds every row once: positions stay dense
    assert key_index.buckets == KeyIndex(table, key_index.columns).buckets
    assert sorted(key_index.buckets.values()) == list(range(len(table)))
    assert len(key_index) == len(table)
    for index in others:
        fresh = HashIndex(table, index.columns)
        assert {k: set(b) for k, b in index.buckets.items()} == {
            k: set(b) for k, b in fresh.buckets.items()
        }
        entries = [p for bucket in index.buckets.values() for p in bucket]
        assert len(index) == len(entries) == len(set(entries))
        assert len(index.slots) == len(table)
        for bucket in index.buckets.values():
            assert [index.slots[p] for p in bucket] == list(range(len(bucket)))


class TestIncrementalMaintenance:
    """Writes edit the indexes in place (swap-remove storage): after any
    interleaving they equal a fresh build, and nothing is ever rebuilt."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_interleaving_matches_fresh_build(self, seed, no_index_rebuild):
        rng = random.Random(seed)
        db = Database()
        # composite key, a nullable indexed column, a skewed 3-value one
        db.create_table("t", ["a", "b", "n", "s"], key=["a", "b"])
        db.create_index("t", ["n"])
        db.create_index("t", ["s"])
        table = db.table("t")
        row_list = table.rows
        live = {}
        for _ in range(250):
            op = rng.choice(("insert", "insert", "delete", "delete_by_key"))
            if op == "insert" or not live:
                keys = {(rng.randrange(12), rng.randrange(12)) for _ in range(12)}
                batch = {
                    k: k + (rng.choice((None, 0, 1, 2)), rng.choice("xxxxxxyyz"))
                    for k in keys - live.keys()
                }
                delta = db.insert("t", batch.values())
                live.update(batch)
                assert delta.rows == list(batch.values())
            else:
                keys = rng.sample(sorted(live), rng.randint(1, min(12, len(live))))
                doomed = [live.pop(k) for k in keys]
                if op == "delete":
                    delta = db.delete("t", doomed)
                else:
                    delta = db.delete_by_key("t", keys + [(99, 99), keys[0]])
                assert delta.rows == doomed
            assert table.rows is row_list
            assert len(table) == len(live)
            assert set(table.rows) == set(live.values())
            assert_indexes_exact(table)

    def test_large_batch_against_low_cardinality_index(self, no_index_rebuild):
        db = Database()
        db.create_table("t", ["k", "s"], key=["k"])
        index = db.create_index("t", ["s"])
        rows = [(i, i % 3) for i in range(3000)]
        db.insert("t", rows)
        db.delete("t", rows[::2])
        assert len(index) == 1500
        assert {r[0] for r in index.lookup(db.table("t").rows, (1,))} == {
            i for i in range(1, 3000, 2) if i % 3 == 1
        }

    def test_delete_repeated_row_rejected_before_any_change(self, db):
        table = db.table("t")
        before, version = list(table.rows), table.version
        with pytest.raises(ConstraintError, match=r"repeated row \(1, 10, 'x'\)"):
            db.delete("t", [(2, 10, "y"), (1, 10, "x"), (1, 10, "x")])
        assert table.rows == before and table.version == version

    @pytest.mark.parametrize(
        "batch",
        [[(1, 11, "dup")], [(5, 0, "a"), (6, 0, "b"), (5, 1, "c")]],
        ids=["held", "within-batch"],
    )
    def test_unchecked_insert_of_a_held_key_raises(self, db, batch):
        """Keys are exact: ``check=False`` skips the NOT NULL and FK
        checks, never the key."""
        table = db.table("t")
        before, version = list(table.rows), table.version
        with pytest.raises(ConstraintError, match=r"duplicate key \((1|5),\)"):
            db.insert("t", batch, check=False)
        assert table.rows == before and table.version == version
        assert_indexes_exact(table)

    def test_delete_finds_a_row_behind_a_duplicated_key(self, db):
        """An unchecked insert of a held key is refused, so the key's one
        position still leads a delete to the row that holds it."""
        with pytest.raises(ConstraintError, match=r"duplicate key \(1,\)"):
            db.insert("t", [(1, 11, "dup")], check=False)
        assert db.delete("t", [(1, 11, "dup")], check=False).rows == []
        assert db.delete("t", [(1, 10, "x")]).rows == [(1, 10, "x")]
        assert (1, 10, "x") not in db.table("t").rows
        assert_indexes_exact(db.table("t"))

    def test_unchecked_delete_returns_only_removed_rows(self, db):
        delta = db.delete(
            "t", [(1, 10, "x"), (7, 7, "absent"), (1, 10, "x"), (2, 99, "y")],
            check=False,
        )
        assert delta.rows == [(1, 10, "x")]
        assert set(db.table("t").rows) == {(2, 10, "y"), (3, None, "z")}


class TestFindIndex:
    def test_exact_match(self, db):
        found = find_index(db.table("t"), ["t.k"])
        assert found is not None
        index, permutation = found
        assert permutation == (0,)

    def test_permuted_match(self):
        d = Database()
        d.create_table("p", ["a", "b"], key=["a", "b"])
        d.insert("p", [(1, 2)])
        found = find_index(d.table("p"), ["p.b", "p.a"])
        assert found is not None
        index, permutation = found
        # probe (b, a) reordered to the index's (a, b)
        probe = tuple((2, 1)[p] for p in permutation)
        assert index.lookup(d.table("p").rows, probe) == [(1, 2)]

    def test_no_match(self, db):
        assert find_index(db.table("t"), ["t.b"]) is None


class TestJoinUsesIndex:
    def test_results_identical_with_and_without_index(self, db):
        other = Table(
            "u", Schema(["u.k", "u.a"]), [(7, 10), (8, 99)], key=["u.k"]
        )
        before = ops.join(other, db.table("t"), "inner", equi=[("u.a", "t.a")])
        db.create_index("t", ["a"])
        after = ops.join(other, db.table("t"), "inner", equi=[("u.a", "t.a")])
        assert set(before.rows) == set(after.rows)

    def test_outer_join_matched_tracking_with_index(self, db):
        db.create_index("t", ["a"])
        other = Table("u", Schema(["u.k", "u.a"]), [(7, 10)], key=["u.k"])
        out = ops.join(other, db.table("t"), "full", equi=[("u.a", "t.a")])
        rows = set(out.rows)
        # rows 1,2 matched; row 3 preserved null-extended on u
        assert (None, None, 3, None, "z") in rows
        assert len(rows) == 3

    def test_residual_applied_on_index_path(self, db):
        db.create_index("t", ["a"])
        other = Table("u", Schema(["u.k", "u.a"]), [(7, 10)], key=["u.k"])
        out = ops.join(
            other,
            db.table("t"),
            "inner",
            equi=[("u.a", "t.a")],
            residual=lambda row: row[4] == "y",
        )
        assert [r[2] for r in out.rows] == [2]

    def test_maintenance_consistent_with_indexes(self):
        """End-to-end: indexed TPC-H maintenance equals recompute."""
        from repro.core import MaterializedView, ViewMaintainer
        from repro.tpch import TPCHGenerator, v3

        gen = TPCHGenerator(scale_factor=0.0005)
        db = gen.build()
        assert db.table("lineitem").indexes  # schema created them
        m = ViewMaintainer(db, MaterializedView.materialize(v3(), db))
        m.insert("lineitem", gen.lineitem_insert_batch(25, seed=1))
        m.check_consistency()
        m.delete("lineitem", gen.lineitem_delete_batch(db, 25, seed=2))
        m.check_consistency()


def test_dropped_storage_is_freed_by_reference_counting(tmp_path):
    """No index points back at its table and nothing else closes a cycle
    through a database: with the collector off, a keyed database, its
    copy and a checkpoint-restored warehouse leave it nothing to find
    once they are dropped."""
    from repro.warehouse import Warehouse

    from ..runtime.test_scheduler import build_db, order_lines_expr

    def warehouse():
        wh = Warehouse(
            build_db(),
            wal_path=str(tmp_path / "wal"),
            checkpoint_dir=str(tmp_path / "checkpoints"),
        )
        wh.create_view("ol", order_lines_expr())
        return wh

    gc.collect()
    gc.disable()
    try:
        db = build_db()
        db.create_index("lineitem", ["l_qty"])
        db.insert("orders", [(1, 10), (2, 20)])
        db.insert("lineitem", [(1, 1, 5), (1, 2, 6), (2, 1, 5)])
        clone = db.copy()
        clone.delete("orders", [(2, 20)], check=False)
        wh = warehouse()
        wh.insert("orders", [(1, 100), (2, 200)])
        wh.insert("lineitem", [(1, 1, 5)])
        wh.checkpoint()
        wh.insert("lineitem", [(2, 1, 7)])
        wh.close()
        restored = warehouse()
        restored.recover()
        assert restored.last_recovery["checkpoint_lsn"] is not None
        restored.check_consistency()
        restored.close()
        del db, clone, wh, restored
        assert gc.collect() == 0
    finally:
        gc.enable()
