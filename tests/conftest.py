"""Shared fixtures: the paper's running examples as ready-made databases.

* ``v1_db`` / ``v1_view`` — Example 2's four-table view
  ``(R ⟗ S) ⟕ (T ⟗ U)`` with generic tables r, s, t, u.
* ``example1_db`` / ``oj_view_defn`` — Example 1's
  ``part ⟗ (orders ⟕ lineitem)`` with both foreign keys declared.
* ``tiny_tpch`` — a small deterministic TPC-H instance.
* ``no_index_rebuild`` — fails the test if a live index is rebuilt.
* ``no_full_capture`` — fails the test if a snapshot publish copies a
  table or view whole that the store had captured before.
* ``no_undo_copy`` — fails the test if a transaction's begin, commit or
  rollback, or a scheduler's maintenance pass, copies
  the database or a view, resets a view wholesale, or replaces
  ``db.tables``.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import Q, eq
from repro.core import MaterializedView, ViewDefinition
from repro.engine import Database, HashIndex
from repro.engine.index import KeyIndex
from repro.runtime import MaintenanceScheduler, SnapshotStore
from repro.tpch import TPCHGenerator
from repro.warehouse import Transaction


# ---------------------------------------------------------------------------
# V1 — the running example
# ---------------------------------------------------------------------------
def make_v1_db(seed: int = 1, rows: int = 12, values: int = 5) -> Database:
    rng = random.Random(seed)
    db = Database()
    for name in "rstu":
        db.create_table(name, ["k", "v"], key=["k"])
        db.insert(name, [(i, rng.randint(0, values)) for i in range(rows)])
    return db


def make_v1_defn() -> ViewDefinition:
    expr = (
        Q.table("r")
        .full_outer_join("s", on=eq("r.v", "s.v"))
        .left_outer_join(
            Q.table("t").full_outer_join("u", on=eq("t.v", "u.v")),
            on=eq("r.v", "t.v"),
        )
        .build()
    )
    return ViewDefinition("v1", expr)


@pytest.fixture
def v1_db() -> Database:
    return make_v1_db()


@pytest.fixture
def v1_defn() -> ViewDefinition:
    return make_v1_defn()


# ---------------------------------------------------------------------------
# Example 1 — part ⟗ (orders ⟕ lineitem)
# ---------------------------------------------------------------------------
def make_example1_db(seed: int = 7) -> Database:
    rng = random.Random(seed)
    db = Database()
    db.create_table(
        "part", ["p_partkey", "p_name", "p_retailprice"], key=["p_partkey"]
    )
    db.create_table("orders", ["o_orderkey", "o_custkey"], key=["o_orderkey"])
    db.create_table(
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_partkey", "l_quantity"],
        key=["l_orderkey", "l_linenumber"],
        not_null=["l_partkey"],
    )
    db.add_foreign_key("lineitem", ["l_orderkey"], "orders", ["o_orderkey"])
    db.add_foreign_key("lineitem", ["l_partkey"], "part", ["p_partkey"])

    db.insert("part", [(p, f"part{p}", 100.0 + p) for p in range(20)])
    db.insert("orders", [(o, rng.randint(0, 5)) for o in range(30)])
    rows = []
    for o in range(20):  # orders 20..29 stay childless
        for ln in range(rng.randint(1, 3)):
            rows.append((o, ln, rng.randint(0, 9), rng.randint(1, 50)))
    db.insert("lineitem", rows)  # parts 10..19 never ordered
    return db


def make_oj_view_defn() -> ViewDefinition:
    expr = (
        Q.table("part")
        .full_outer_join(
            Q.table("orders").left_outer_join(
                "lineitem", on=eq("lineitem.l_orderkey", "orders.o_orderkey")
            ),
            on=eq("part.p_partkey", "lineitem.l_partkey"),
        )
        .build()
    )
    return ViewDefinition("oj_view", expr)


@pytest.fixture
def example1_db() -> Database:
    return make_example1_db()


@pytest.fixture
def oj_view_defn() -> ViewDefinition:
    return make_oj_view_defn()


# ---------------------------------------------------------------------------
# TPC-H
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def tiny_tpch_gen() -> TPCHGenerator:
    return TPCHGenerator(scale_factor=0.001, seed=42)


@pytest.fixture
def tiny_tpch(tiny_tpch_gen) -> Database:
    # A fresh copy per test: the generator's database is mutated by DML.
    return TPCHGenerator(scale_factor=0.001, seed=42).build()


# ---------------------------------------------------------------------------
# storage contract
# ---------------------------------------------------------------------------
@pytest.fixture
def no_index_rebuild(monkeypatch):
    """Base-table writes edit indexes in place: with this fixture, any
    index ``rebuild`` other than the constructor's fails the test."""
    for cls in (HashIndex, KeyIndex):

        def rebuild(index, rows, build=cls.rebuild):
            if hasattr(index, "buckets"):  # unset only inside __init__
                pytest.fail(f"{index!r} was rebuilt on a write path")
            build(index, rows)

        monkeypatch.setattr(cls, "rebuild", rebuild)


@pytest.fixture
def no_full_capture(monkeypatch):
    """Steady-state publishes are journal-driven: with this fixture, a
    full copy of any table or view the store already holds a slice of
    (anything but a first capture) fails the test."""
    capture = SnapshotStore._capture_full

    def capture_full(store, tracked, name, live):
        if tracked.slice is not None:
            pytest.fail(f"publish copied {name!r} in full on a steady-state path")
        return capture(store, tracked, name, live)

    monkeypatch.setattr(SnapshotStore, "_capture_full", capture_full)


@pytest.fixture
def no_undo_copy(monkeypatch):
    """Transactions undo by maintaining inverse changes, and a failed
    maintenance pass by its own inverse applies: with this fixture,
    ``Database.copy``, ``MaterializedView.clone`` / ``reset_to`` or a
    reassignment of ``db.tables`` inside a transaction's begin, commit or
    rollback, or inside a scheduler task's attempt — in any thread, so
    pool workers and shard workers count — fails the test (checked at
    teardown: a failure inside a worker thread would only surface as a
    dead shard)."""
    inside, violations = [], []

    def bracket(phase, method):
        def wrapped(*args, **kwargs):
            inside.append(phase)
            try:
                return method(*args, **kwargs)
            finally:
                inside.pop()

        return wrapped

    def guard(what, method):
        def guarded(*args, **kwargs):
            if inside:
                violations.append(f"{what} inside a {inside[-1]}")
            return method(*args, **kwargs)

        return guarded

    for phase, name in (("begin", "__init__"), ("commit", "commit"), ("rollback", "rollback")):
        method = getattr(Transaction, name)
        monkeypatch.setattr(Transaction, name, bracket(f"transaction {phase}", method))
    monkeypatch.setattr(
        MaintenanceScheduler, "_run_task",
        bracket("maintenance pass", MaintenanceScheduler._run_task),
    )
    for name in ("clone", "reset_to"):
        method = getattr(MaterializedView, name)
        monkeypatch.setattr(MaterializedView, name, guard(f"MaterializedView.{name}", method))
    monkeypatch.setattr(Database, "copy", guard("Database.copy", Database.copy))

    def set_attribute(db, name, value):
        if name == "tables" and inside:
            violations.append(f"db.tables replaced inside a {inside[-1]}")
        object.__setattr__(db, name, value)

    monkeypatch.setattr(Database, "__setattr__", set_attribute)
    yield
    assert not violations
