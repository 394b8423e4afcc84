"""Journal-driven capture: what a publish copies, and when it must not
copy everything (src/repro/runtime/snapshots.py, docs/SERVING.md)."""

from __future__ import annotations

import pytest

from repro.core import MaterializedView, ViewDefinition, ViewMaintainer
from repro.errors import ConstraintError
from repro.obs import Telemetry
from repro.runtime.snapshots import _FOLD_DIVISOR, _push
from repro.warehouse import Warehouse

from ..runtime.test_scheduler import build_db, order_lines_expr


def seeded_warehouse(orders=40, **kwargs):
    db = build_db()
    db.insert("orders", [(o, o % 7) for o in range(orders)])
    wh = Warehouse(db, **kwargs)
    wh.create_view("ol", order_lines_expr())
    return wh


# ---------------------------------------------------------------------------
# the structural guard: steady-state paths never copy in full
# ---------------------------------------------------------------------------
def test_steady_state_writes_publish_from_journals(tmp_path, no_full_capture):
    """insert / delete / delete_by_key, a committed transaction and
    apply_async + flush all publish by overlay: after the views' first
    capture nothing is copied whole, and each publish copies O(|delta|)."""
    wh = seeded_warehouse(wal_path=str(tmp_path / "wal"), workers=2)
    before = wh.snapshots.full_captures
    wh.insert("lineitem", [(1, 0, 5), (1, 1, 6), (2, 0, 7)])
    wh.delete("lineitem", [(1, 0, 5)])
    wh.delete_by_key("lineitem", [(1, 1)])
    with wh.transaction() as txn:
        txn.insert("orders", [(100, 3)])
        txn.insert("lineitem", [(100, 0, 1)])
        txn.delete("lineitem", [(2, 0, 7)])
    for order in range(3, 9):
        wh.apply_async("lineitem", "insert", [(order, 0, order)])
    wh.flush()
    assert wh.snapshots.full_captures == before
    snap = wh.snapshot()
    assert snap.full_captures == 0 and 0 < snap.captured_rows <= 3
    assert sorted(snap.table_rows("lineitem")) == sorted(
        wh.db.table("lineitem").rows
    )
    assert sorted(snap.view_rows("ol")) == sorted(wh.view("ol").rows())
    wh.check_consistency()
    wh.close()


def test_the_guard_trips_on_a_full_copy(no_full_capture):
    wh = seeded_warehouse()
    wh.view("ol").reset_to(wh.view("ol").clone())  # breaks the journal
    with pytest.raises(pytest.fail.Exception, match="copied 'ol' in full"):
        wh.snapshots.publish(wh.db.tables, {"ol": wh.view("ol")}, {})
    wh.close()


# ---------------------------------------------------------------------------
# what breaks a journal, and only that
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


def test_wholesale_replacement_costs_one_full_copy():
    wh = seeded_warehouse()
    wh.insert("lineitem", [(1, 0, 5)])
    before = wh.snapshots.full_captures
    wh.repair_view("ol")
    assert wh.snapshots.full_captures == before + 1  # the view
    # ... and the journal is whole again afterwards
    wh.insert("lineitem", [(3, 0, 1)])
    assert wh.snapshots.full_captures == before + 1
    assert wh.snapshot().full_captures == 0
    assert sorted(wh.snapshot().view_rows("ol")) == sorted(wh.view("ol").rows())
    wh.close()


def test_rollback_copies_nothing_and_the_next_checkpoint_is_a_delta(
    tmp_path, no_full_capture
):
    """A rolled-back transaction maintains its statements' inverses, so
    every journal stays whole: no full capture, and the checkpoint after
    it is a delta of the (net empty) change."""
    wh = seeded_warehouse(
        wal_path=str(tmp_path / "wal"), checkpoint_dir=str(tmp_path / "ckpt")
    )
    wh.insert("lineitem", [(1, 0, 5), (2, 0, 6)])
    wh.checkpoint()
    before = wh.snapshots.full_captures
    with pytest.raises(RuntimeError):
        with wh.transaction() as txn:
            txn.insert("orders", [(100, 3)])
            txn.insert("lineitem", [(100, 0, 1), (3, 0, 2)])
            txn.delete("lineitem", [(1, 0, 5)])
            raise RuntimeError("abort")
    assert wh.snapshots.full_captures == before
    assert wh.checkpoint().endswith(".delta.json")
    assert sorted(wh.snapshot().view_rows("ol")) == sorted(wh.view("ol").rows())
    wh.check_consistency()
    wh.close()


def test_failed_publish_breaks_every_journal():
    wh = seeded_warehouse()
    wh.insert("lineitem", [(1, 0, 5)])
    wh.db.insert("lineitem", [(3, 0, 7)])  # applied, not yet published

    class Boom:
        journal = None
        version = 0

        @property
        def schema(self):
            raise RuntimeError("mid-capture")

    with pytest.raises(RuntimeError):
        wh.snapshots.publish(
            wh.db.tables, {"ol": wh.view("ol"), "boom": Boom()}, {}
        )
    assert wh.view("ol").journal.broken
    assert all(t.journal.broken for t in wh.db.tables.values())
    wh.insert("lineitem", [(2, 0, 6)])  # next publish copies what moved
    assert sorted(wh.snapshot().view_rows("ol")) == sorted(wh.view("ol").rows())
    wh.close()


def test_unchecked_duplicate_keys_fall_back_to_positional_capture():
    """``check=False`` inserts can no longer break a table's key: the
    duplicate is refused, so there is nothing to fall back for — the
    slice stays keyed and the next change publishes from the journal."""
    wh = seeded_warehouse()
    with pytest.raises(ConstraintError, match=r"duplicate key \(1,\)"):
        wh.db.insert("orders", [(1, 99)], check=False)
    wh._publish()
    snap = wh.snapshot()
    assert sorted(snap.table_rows("orders")) == sorted(wh.db.table("orders").rows)
    assert len(snap.tables["orders"]) == 40
    wh.insert("orders", [(500, 0)])
    assert wh.snapshot().full_captures == 0  # keyed throughout, journal whole
    assert len(wh.snapshot().tables["orders"]) == 41
    wh.close()


# ---------------------------------------------------------------------------
# overlay chains and folds
# ---------------------------------------------------------------------------
def test_overlay_chain_stays_logarithmic():
    chain = ()
    for i in range(1000):
        chain = _push(chain, {i: (i,)})
        assert all(
            len(lower) >= 2 * len(upper)
            for lower, upper in zip(chain, chain[1:])
        )
    assert sum(map(len, chain)) == 1000
    assert len(chain) <= 10
    # newer entries win a merge
    assert _push(({1: ("old",)},), {1: ("new",)}) == ({1: ("new",)},)


def test_fold_is_invisible_to_a_pinned_reader():
    wh = seeded_warehouse(orders=_FOLD_DIVISOR * 10)
    wh.insert("lineitem", [(0, 0, 0)])
    pinned = wh.snapshot()
    before = sorted(pinned.view_rows("ol"))
    base = pinned.views["ol"]._base
    folds = wh.snapshots.overlay_folds
    for order in range(1, 30):  # well past a quarter of the 40-row view
        wh.insert("lineitem", [(order, 0, order)])
    assert wh.snapshots.overlay_folds >= folds + 2
    assert wh.snapshot().views["ol"]._base is not base
    assert pinned.views["ol"]._base is base  # shares nothing that changed
    assert sorted(pinned.view_rows("ol")) == before
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
    assert second.views["ol"]._base is first.views["ol"]._base
    wh.close()


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
def test_serving_stats_and_metrics_say_what_was_captured():
    telemetry = Telemetry()
    wh = seeded_warehouse(telemetry=telemetry)
    wh.insert("lineitem", [(1, 0, 5), (2, 0, 6)])
    stats = wh.serving_stats()
    assert stats["full_captures"] == 3  # two tables and the view, once each
    assert stats["captured_rows"] >= 40 + 40 + 2
    assert stats["overlay_folds"] == wh.snapshots.overlay_folds
    text = wh.metrics_text()
    assert "repro_snapshot_full_captures_total 3" in text
    assert f"repro_snapshot_captured_rows_total {stats['captured_rows']}" in text
    wh.close()
