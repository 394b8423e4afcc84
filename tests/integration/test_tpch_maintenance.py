"""Integration tests: full maintenance pipelines over TPC-H refresh
streams, checked against the recompute oracle at every step."""

import pytest

from repro.baselines import (
    GriffinKumarMaintainer,
    core_view_maintainer,
)
from repro.core import (
    MaintenanceOptions,
    MaterializedView,
    SECONDARY_FROM_BASE,
    ViewMaintainer,
)
from repro.errors import ConstraintError
from repro.tpch import TPCHGenerator, oj_view, v2, v3


@pytest.fixture(scope="module")
def gen():
    return TPCHGenerator(scale_factor=0.001, seed=7)


def make(gen, defn, options=None):
    db = TPCHGenerator(scale_factor=0.001, seed=7).build()
    view = MaterializedView.materialize(defn, db)
    return db, ViewMaintainer(db, view, options)


class TestV3RefreshStream:
    def test_interleaved_inserts_and_deletes(self, gen):
        db, m = make(gen, v3())
        stream = TPCHGenerator(scale_factor=0.001, seed=7)
        stream.build()
        for round_no in range(3):
            m.insert(
                "lineitem",
                stream.lineitem_insert_batch(40, seed=round_no),
            )
            m.check_consistency()
            m.delete(
                "lineitem",
                stream.lineitem_delete_batch(db, 40, seed=round_no),
            )
            m.check_consistency()

    def test_dimension_churn(self, gen):
        db, m = make(gen, v3())
        stream = TPCHGenerator(scale_factor=0.001, seed=7)
        stream.build()
        m.insert("customer", stream.customer_insert_batch(10, seed=1))
        m.check_consistency()
        m.insert("part", stream.part_insert_batch(10, seed=1))
        m.check_consistency()
        # delete a part nobody references (fresh one just added)
        new_part = [
            r
            for r in db.table("part").rows
            if r[0] > stream.counts["part"]
        ][:3]
        m.delete("part", new_part)
        m.check_consistency()

    def test_from_base_strategy_stream(self, gen):
        db, m = make(
            gen,
            v3(),
            MaintenanceOptions(secondary_strategy=SECONDARY_FROM_BASE),
        )
        stream = TPCHGenerator(scale_factor=0.001, seed=7)
        stream.build()
        m.insert("lineitem", stream.lineitem_insert_batch(50, seed=10))
        m.check_consistency()
        m.delete("lineitem", stream.lineitem_delete_batch(db, 50, seed=11))
        m.check_consistency()


    def test_repeated_row_in_one_delete_is_rejected_up_front(self, gen):
        """It used to pass the check, leave the base table changed and
        then fail inside the view with an inconsistent delta."""
        db, m = make(gen, v3())
        row = db.table("lineitem").rows[0]
        before = len(db.table("lineitem"))
        with pytest.raises(ConstraintError, match="repeated"):
            m.delete("lineitem", [row, row])
        assert len(db.table("lineitem")) == before
        m.check_consistency()
        m.update("lineitem", [row, row], [])  # unchecked: netted to one
        assert len(db.table("lineitem")) == before - 1
        m.check_consistency()


class TestOJViewStream:
    def test_example1_full_stream(self, gen):
        db, m = make(gen, oj_view())
        stream = TPCHGenerator(scale_factor=0.001, seed=7)
        stream.build()
        m.insert("lineitem", stream.lineitem_insert_batch(40, seed=3))
        m.check_consistency()
        m.insert("part", stream.part_insert_batch(5, seed=3))
        m.check_consistency()
        m.delete("lineitem", stream.lineitem_delete_batch(db, 40, seed=4))
        m.check_consistency()


class TestV2Stream:
    def test_v2_orders_updates_use_reduced_graph(self, gen):
        db, m = make(gen, v2())
        # fresh orders with no lineitems: only the CO/O terms react
        base = 10_000_000
        report = m.insert(
            "orders",
            [
                (base + i, 1 + i % 10, "O", 5000.0, "1995-01-01", "Clerk#1")
                for i in range(10)
            ],
        )
        m.check_consistency()
        assert "{lineitem,orders}" not in report.direct_terms
        m.delete_by_key("orders", [(base + i,) for i in range(10)])
        m.check_consistency()

    def test_v2_lineitem_updates(self, gen):
        db, m = make(gen, v2())
        stream = TPCHGenerator(scale_factor=0.001, seed=7)
        stream.build()
        m.insert("lineitem", stream.lineitem_insert_batch(30, seed=9))
        m.check_consistency()


class TestCrossAlgorithmAgreement:
    def test_all_maintainers_converge_to_same_view(self, gen):
        defn = v3()
        stream_seed = 7

        def play(maintainer, db):
            stream = TPCHGenerator(scale_factor=0.001, seed=stream_seed)
            stream.build()
            maintainer.insert(
                "lineitem", stream.lineitem_insert_batch(30, seed=21)
            )
            maintainer.delete(
                "lineitem", stream.lineitem_delete_batch(db, 30, seed=22)
            )
            return frozenset(maintainer.view.rows())

        db_a = TPCHGenerator(scale_factor=0.001, seed=stream_seed).build()
        ours = ViewMaintainer(db_a, MaterializedView.materialize(defn, db_a))
        db_b = TPCHGenerator(scale_factor=0.001, seed=stream_seed).build()
        gk = GriffinKumarMaintainer(
            db_b, MaterializedView.materialize(defn, db_b)
        )
        assert play(ours, db_a) == play(gk, db_b)

    def test_core_view_stream(self, gen):
        db = TPCHGenerator(scale_factor=0.001, seed=7).build()
        m = core_view_maintainer(v3(), db)
        stream = TPCHGenerator(scale_factor=0.001, seed=7)
        stream.build()
        m.insert("lineitem", stream.lineitem_insert_batch(30, seed=31))
        m.check_consistency()
        m.delete("lineitem", stream.lineitem_delete_batch(db, 30, seed=32))
        m.check_consistency()
