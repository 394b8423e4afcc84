"""Tests for UpdateBatch: netting semantics and one-pass maintenance,
driven through :meth:`Warehouse.batch` (the one route a batch flushes by)."""

import pytest

from repro.algebra import Q, eq
from repro.core.batch import NetDelta
from repro.engine import Database
from repro.errors import MaintenanceError
from repro.warehouse import Warehouse

from ..conftest import make_v1_db, make_v1_defn


@pytest.fixture
def setup():
    wh = Warehouse(make_v1_db())
    wh.create_view("v1", make_v1_defn())
    yield wh.db, wh
    wh.close()


class TestNetting:
    def test_insert_then_delete_cancels(self, setup):
        db, wh = setup
        before = len(db.table("t"))
        batch = wh.batch()
        batch.insert("t", [(900, 1)])
        batch.delete("t", [(900, 1)])
        assert batch.net_counts == {"t": (0, 0)}
        batch.flush()
        wh.check_consistency()
        assert len(db.table("t")) == before

    def test_delete_then_identical_reinsert_cancels(self, setup):
        db, wh = setup
        row = db.table("t").rows[0]
        batch = wh.batch()
        batch.delete("t", [row])
        batch.insert("t", [row])
        assert batch.net_counts == {"t": (0, 0)}
        reports = batch.flush()
        wh.check_consistency()
        assert reports["t"] == []

    def test_delete_then_changed_reinsert_is_update(self, setup):
        db, wh = setup
        row = db.table("t").rows[0]
        changed = (row[0], (row[1] or 0) + 1)
        batch = wh.batch()
        batch.delete("t", [row])
        batch.insert("t", [changed])
        assert batch.net_counts == {"t": (1, 1)}
        batch.flush()
        wh.check_consistency()
        assert changed in db.table("t").rows

    def test_plain_operations_pass_through(self, setup):
        db, wh = setup
        doomed = db.table("t").rows[0]
        batch = wh.batch()
        batch.insert("t", [(901, 2), (902, 3)])
        batch.delete("t", [doomed])
        assert batch.net_counts == {"t": (1, 2)}
        batch.flush()
        wh.check_consistency()

    def test_multi_table_batch(self, setup):
        db, wh = setup
        batch = wh.batch()
        batch.insert("t", [(903, 1)])
        batch.insert("r", [(903, 2)])
        batch.delete("s", [db.table("s").rows[0]])
        reports = batch.flush()
        wh.check_consistency()
        assert set(reports) == {"t", "r", "s"}


class TestNetDeltaIterator:
    """The public netted-delta API the write-ahead log records."""

    def test_delete_then_identical_reinsert_is_dropped(self, setup):
        db, wh = setup
        row = db.table("t").rows[0]
        batch = wh.batch()
        batch.delete("t", [row])
        batch.insert("t", [row])
        batch.insert("t", [(950, 4)])
        deltas = batch.net_deltas()
        # the delete + identical re-insert vanished entirely; only the
        # genuinely new row survives netting
        assert len(deltas) == 1
        net = deltas[0]
        assert isinstance(net, NetDelta)
        assert net.table == "t"
        assert net.operation == "insert"
        assert net.rows == ((950, 4),)
        assert net.fk_allowed is True
        assert len(net) == 1

    def test_iterating_the_batch_yields_net_deltas(self, setup):
        db, wh = setup
        doomed = db.table("t").rows[0]
        batch = wh.batch()
        batch.insert("t", [(951, 1)])
        batch.delete("t", [doomed])
        ops = [(n.table, n.operation, len(n)) for n in batch]
        # flush order per table: delete pass before insert pass
        assert ops == [("t", "delete", 1), ("t", "insert", 1)]

    def test_update_pair_disables_fk_shortcuts(self, setup):
        db, wh = setup
        row = db.table("t").rows[0]
        changed = (row[0], (row[1] or 0) + 1)
        batch = wh.batch()
        batch.delete("t", [row])
        batch.insert("t", [changed])
        deltas = batch.net_deltas()
        assert [n.operation for n in deltas] == ["delete", "insert"]
        assert all(n.fk_allowed is False for n in deltas)

    def test_net_deltas_is_non_destructive(self, setup):
        db, wh = setup
        batch = wh.batch()
        batch.insert("t", [(952, 2)])
        assert batch.net_deltas() == batch.net_deltas()
        batch.flush()  # still flushable afterwards
        wh.check_consistency()


class TestChurnCompression:
    def test_heavy_churn_one_view_touch(self, setup):
        """100 insert/delete pairs net to nothing: the view never moves."""
        db, wh = setup
        before = frozenset(wh.view("v1").rows())
        batch = wh.batch()
        for i in range(100):
            batch.insert("t", [(2000 + i, i % 5)])
        for i in range(100):
            batch.delete("t", [(2000 + i, i % 5)])
        reports = batch.flush()
        assert reports["t"] == []
        assert frozenset(wh.view("v1").rows()) == before


class TestErrors:
    def test_duplicate_insert_rejected(self, setup):
        db, wh = setup
        batch = wh.batch()
        batch.insert("t", [(910, 1)])
        with pytest.raises(MaintenanceError, match="duplicate insert"):
            batch.insert("t", [(910, 2)])

    def test_duplicate_delete_rejected(self, setup):
        db, wh = setup
        row = db.table("t").rows[0]
        batch = wh.batch()
        batch.delete("t", [row])
        with pytest.raises(MaintenanceError, match="duplicate delete"):
            batch.delete("t", [row])

    def test_mismatched_cancel_rejected(self, setup):
        db, wh = setup
        batch = wh.batch()
        batch.insert("t", [(911, 1)])
        with pytest.raises(MaintenanceError, match="does not match"):
            batch.delete("t", [(911, 2)])

    def test_flush_only_once(self, setup):
        db, wh = setup
        batch = wh.batch()
        batch.insert("t", [(912, 1)])
        batch.flush()
        with pytest.raises(MaintenanceError, match="already flushed"):
            batch.insert("t", [(913, 1)])


class TestAggregatedTarget:
    def test_batch_drives_aggregated_view_too(self):
        from repro.core import agg_sum, count_star

        db = Database()
        db.create_table("o", ["ok"], key=["ok"])
        db.create_table("l", ["lk", "ok", "q"], key=["lk"], not_null=["ok"])
        db.add_foreign_key("l", ["ok"], "o", ["ok"])
        db.insert("o", [(1,), (2,)])
        db.insert("l", [(10, 1, 5)])
        expr = Q.table("o").left_outer_join("l", on=eq("l.ok", "o.ok")).build()
        with Warehouse(db) as wh:
            wh.create_view("ol", expr)
            agg = wh.create_aggregated_view(
                "ol_agg",
                expr,
                group_by=["o.ok"],
                aggregates=[count_star("n"), agg_sum("l.q", "total")],
            )
            batch = wh.batch()
            batch.insert("l", [(11, 2, 7)])
            batch.delete("l", [(10, 1, 5)])
            reports = batch.flush()
            assert [r.view for r in reports["l"]] == ["ol", "ol_agg", "ol", "ol_agg"]
            wh.maintainer("ol").check_consistency()
            agg.check_consistency()
