"""Pure sharding logic: specs, routing, view plans, the merge barrier."""

import pytest

from repro import Database, Q, eq
from repro.core import ViewDefinition
from repro.errors import ShardingError
from repro.runtime import (
    ShardingSpec,
    ShardRouter,
    ViewShardPlan,
    merge_view_rows,
    plan_view,
    shard_hash,
)


def build_db():
    db = Database()
    db.create_table("orders", ["o_orderkey", "o_custkey"], key=["o_orderkey"])
    db.create_table(
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_qty"],
        key=["l_orderkey", "l_linenumber"],
    )
    db.add_foreign_key("lineitem", ["l_orderkey"], "orders", ["o_orderkey"])
    db.insert("orders", [(o, o % 3) for o in range(6)])
    db.insert(
        "lineitem",
        [(o, ln, 10 * o + ln) for o in range(6) for ln in range(2)],
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


# ---------------------------------------------------------------------------
# hashing and specs
# ---------------------------------------------------------------------------
def test_shard_hash_is_deterministic_and_seed_free():
    # must NOT be built on hash(): PYTHONHASHSEED would scatter the same
    # row to different shards in parent and spawned worker
    assert shard_hash((1, "a")) == shard_hash((1, "a"))
    assert shard_hash((1,)) != shard_hash((2,))
    assert isinstance(shard_hash(("x", 3.5)), int)


def test_spec_requires_routing_within_key():
    db = build_db()
    with pytest.raises(ShardingError, match="unique key"):
        ShardingSpec(2, {"lineitem": ("l_qty",)}).validate(db)
    # any subset of the key is fine, not just a prefix
    ShardingSpec(2, {"lineitem": ("l_orderkey",)}).validate(db)


def test_spec_rejects_replicated_to_partitioned_fk():
    db = build_db()
    with pytest.raises(ShardingError, match="replicated table"):
        ShardingSpec(2, {"orders": ("o_orderkey",)}).validate(db)


def test_spec_accepts_co_partitioned_fk_pair():
    db = build_db()
    spec = ShardingSpec(
        2, {"orders": ("o_orderkey",), "lineitem": ("l_orderkey",)}
    )
    spec.validate(db)  # FK equates the routing columns


def test_spec_rejects_fk_that_skips_routing_columns():
    db = build_db()
    db2 = Database()
    db2.create_table("a", ["k", "v"], key=["k"])
    db2.create_table("b", ["k", "a_v"], key=["k"])
    db2.add_foreign_key("b", ["a_v"], "a", ["k"])
    spec = ShardingSpec(2, {"a": ("k",), "b": ("k",)})
    with pytest.raises(ShardingError, match="routing columns"):
        spec.validate(db2)


def test_for_database_partitions_the_fk_free_giant():
    db = build_db()
    spec = ShardingSpec.for_database(db, 4)
    # lineitem references orders, nothing references lineitem
    assert spec.partitioned == frozenset({"lineitem"})
    assert spec.routing["lineitem"] == ("l_orderkey", "l_linenumber")
    assert spec.shards == 4


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------
def test_router_splits_every_row_exactly_once():
    db = build_db()
    spec = ShardingSpec.for_database(db, 3)
    router = ShardRouter(spec, db)
    rows = list(db.tables["lineitem"].rows)
    split = router.split_rows("lineitem", rows)
    assert sum(len(part) for part in split.values()) == len(rows)
    assert set(split) <= {0, 1, 2}
    # assignment is stable
    for shard, part in split.items():
        for row in part:
            assert router.shard_of_row("lineitem", row) == shard


def test_range_partitioning_routes_by_split_points():
    db = build_db()
    spec = ShardingSpec(
        3, {"lineitem": ("l_orderkey",)}, ranges=(2, 4)
    )
    spec.validate(db)
    router = ShardRouter(spec, db)
    assert router.shard_of_row("lineitem", (0, 0, 0)) == 0
    assert router.shard_of_row("lineitem", (2, 0, 0)) == 1
    assert router.shard_of_row("lineitem", (3, 0, 0)) == 1
    assert router.shard_of_row("lineitem", (4, 0, 0)) == 2
    assert router.shard_of_row("lineitem", (99, 0, 0)) == 2


def test_range_partitioning_needs_matching_split_count():
    with pytest.raises(ShardingError, match="split"):
        ShardingSpec(3, {"lineitem": ("l_orderkey",)}, ranges=(2,))


# ---------------------------------------------------------------------------
# view plans and the merge barrier
# ---------------------------------------------------------------------------
def test_plan_view_collects_partitioned_key_witnesses():
    db = build_db()
    spec = ShardingSpec.for_database(db, 2)
    plan = plan_view(order_lines_defn(), db, spec)
    assert plan.partitioned_tables == ("lineitem",)
    output = order_lines_defn().output_columns(db)
    expected = {
        output.index("lineitem.l_orderkey"),
        output.index("lineitem.l_linenumber"),
    }
    assert set(plan.witness_positions) == expected
    assert not plan.replicated_only


def test_plan_view_replicated_only_when_nothing_partitioned():
    db = build_db()
    spec = ShardingSpec(2, {})
    plan = plan_view(order_lines_defn(), db, spec)
    assert plan.replicated_only


def test_plan_view_rejects_non_co_partitioned_join():
    db = Database()
    db.create_table("a", ["k", "v"], key=["k"])
    db.create_table("b", ["k", "v"], key=["k"])
    db.insert("a", [(1, 1)])
    db.insert("b", [(1, 1)])
    spec = ShardingSpec(2, {"a": ("k",), "b": ("k",)})
    expr = (
        Q.table("a")
        .full_outer_join("b", on=eq("a.v", "b.v"))  # equates v, not k
        .build()
    )
    with pytest.raises(ShardingError, match="routing columns"):
        plan_view(ViewDefinition("bad", expr), db, spec)


def test_merge_unions_witnessed_rows_and_intersects_residue():
    plan = ViewShardPlan("v", ("t",), (0,))
    fragments = [
        [(1, "a"), (None, "r")],  # shard 0 owns witness 1, sees residue
        [(2, "b"), (None, "r")],  # shard 1 owns witness 2, sees residue
        [(3, "c")],  # shard 2 matched the residue row locally
    ]
    merged = set(merge_view_rows(plan, fragments))
    # residue (None, "r") appears in 2 of 3 fragments -> killed globally
    assert merged == {(1, "a"), (2, "b"), (3, "c")}
    # present in all fragments -> survives
    fragments[2].append((None, "r"))
    merged = set(merge_view_rows(plan, fragments))
    assert (None, "r") in merged


@pytest.mark.parametrize("positions", [(0,), (0, 2)])
def test_merge_calls_a_row_residue_only_when_every_witness_is_null(positions):
    # one witness column or several: (None, "x", 2) is witnessed by
    # position 2 only when that position is a witness
    plan = ViewShardPlan("v", ("t",), positions)
    rows = [(a, "x", b) for a in (1, None) for b in (2, None)]
    witnessed = [r for r in rows if any(r[p] is not None for p in positions)]
    residue = [r for r in rows if all(r[p] is None for p in positions)]
    assert merge_view_rows(plan, [rows, rows]) == witnessed * 2 + residue
    assert merge_view_rows(plan, [rows, witnessed]) == witnessed * 2


def test_merge_replicated_only_takes_one_copy():
    plan = ViewShardPlan("v", (), ())
    fragments = [[(1, "a")], [(1, "a")], [(1, "a")]]
    assert merge_view_rows(plan, fragments) == [(1, "a")]
