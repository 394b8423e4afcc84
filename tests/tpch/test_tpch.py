"""Tests for the TPC-H substrate: schema, generator, refresh batches and
the paper's view definitions."""

import os
import pickle

from repro.algebra import normal_form
from repro.core import MaterializedView, ViewMaintainer
from repro.engine import Database
from repro.tpch import (
    TPCHGenerator,
    cached_instance,
    cardinalities,
    create_schema,
    oj_view,
    retail_price,
    v2,
    v3,
    v3_core,
)
from repro.tpch import generator


class TestSchema:
    def test_all_tables_created(self):
        db = create_schema(Database())
        assert set(db.tables) == {
            "region",
            "nation",
            "supplier",
            "customer",
            "part",
            "partsupp",
            "orders",
            "lineitem",
        }

    def test_lineitem_composite_key(self):
        db = create_schema(Database())
        assert db.table("lineitem").key == (
            "lineitem.l_orderkey",
            "lineitem.l_linenumber",
        )

    def test_nine_foreign_keys(self):
        db = create_schema(Database())
        assert len(db.foreign_keys) == 9

    def test_lineitem_fks_not_null(self):
        db = create_schema(Database())
        for fk in db.foreign_keys_from("lineitem"):
            assert fk.source_not_null

    def test_cardinalities_scale(self):
        c = cardinalities(0.01)
        assert c["customer"] == 1500
        assert c["orders"] == 15000
        assert c["region"] == 5  # fixed-size tables don't scale


class TestGenerator:
    def test_deterministic(self):
        a = TPCHGenerator(scale_factor=0.0005, seed=9).build()
        b = TPCHGenerator(scale_factor=0.0005, seed=9).build()
        for name in a.tables:
            assert a.table(name).rows == b.table(name).rows

    def test_different_seeds_differ(self):
        a = TPCHGenerator(scale_factor=0.0005, seed=9).build()
        b = TPCHGenerator(scale_factor=0.0005, seed=10).build()
        assert a.table("lineitem").rows != b.table("lineitem").rows

    def test_integrity(self):
        db = TPCHGenerator(scale_factor=0.0005, seed=9).build()
        db.validate()

    def test_retail_price_range(self):
        values = [retail_price(k) for k in range(1, 5000)]
        assert min(values) >= 900
        assert max(values) <= 2098.99

    def test_retail_price_selectivity(self):
        """p_retailprice < 2000 must keep ≈ 97.5 % of parts at *any*
        scale — the full-scale TPC-H fraction, which populates the COL
        term of Table 1 without draining COLP."""
        values = [retail_price(k) for k in range(1, 20000)]
        frac = sum(1 for v in values if v < 2000) / len(values)
        assert 0.95 < frac < 0.995

    def test_lineitems_per_order(self, tiny_tpch):
        from collections import Counter

        counts = Counter(r[0] for r in tiny_tpch.table("lineitem").rows)
        assert 1 <= min(counts.values())
        assert max(counts.values()) <= 7

    def test_orphan_parts_exist(self, tiny_tpch):
        used = {r[2] for r in tiny_tpch.table("lineitem").rows}
        all_parts = {r[0] for r in tiny_tpch.table("part").rows}
        assert all_parts - used  # some parts never ordered


class TestRefreshBatches:
    def test_insert_batch_respects_fks(self):
        gen = TPCHGenerator(scale_factor=0.0005, seed=3)
        db = gen.build()
        batch = gen.lineitem_insert_batch(50, seed=1)
        db.insert("lineitem", batch)  # constraint checks run here

    def test_insert_batches_have_fresh_keys(self):
        gen = TPCHGenerator(scale_factor=0.0005, seed=3)
        db = gen.build()
        existing = {(r[0], r[1]) for r in db.table("lineitem").rows}
        batch = gen.lineitem_insert_batch(100, seed=2)
        assert not ({(r[0], r[1]) for r in batch} & existing)
        assert len({(r[0], r[1]) for r in batch}) == len(batch)

    def test_delete_batch_samples_existing_rows(self):
        gen = TPCHGenerator(scale_factor=0.0005, seed=3)
        db = gen.build()
        batch = gen.lineitem_delete_batch(db, 30, seed=1)
        existing = set(db.table("lineitem").rows)
        assert all(row in existing for row in batch)

    def test_customer_and_part_batches(self):
        gen = TPCHGenerator(scale_factor=0.0005, seed=3)
        db = gen.build()
        db.insert("customer", gen.customer_insert_batch(5))
        db.insert("part", gen.part_insert_batch(5))


class TestViews:
    def test_v3_terms_match_table1(self, tiny_tpch):
        terms = normal_form(v3().join_expr, tiny_tpch)
        assert [t.label() for t in terms] == [
            "{customer,lineitem,orders,part}",
            "{customer,lineitem,orders}",
            "{customer}",
            "{part}",
        ]

    def test_v3_core_single_term(self, tiny_tpch):
        terms = normal_form(v3_core().join_expr, tiny_tpch)
        assert len(terms) == 1

    def test_oj_view_terms_match_example1(self, tiny_tpch):
        terms = normal_form(oj_view().join_expr, tiny_tpch)
        assert [t.label() for t in terms] == [
            "{lineitem,orders,part}",
            "{orders}",
            "{part}",
        ]

    def test_v2_six_terms_without_fks(self, tiny_tpch):
        terms = normal_form(
            v2().join_expr, tiny_tpch, use_foreign_keys=False
        )
        assert len(terms) == 6  # Figure 4(a): COL, CO, OL, C, O, L

    def test_v3_materializes(self, tiny_tpch):
        view = MaterializedView.materialize(v3(), tiny_tpch)
        assert len(view) > 0
        # every customer appears (right outer + full outer preserve them)
        ck = view.schema.index_of("customer.c_custkey")
        custs = {r[ck] for r in view.rows()} - {None}
        assert len(custs) == len(tiny_tpch.table("customer"))

    def test_v3_maintenance_all_tables(self, tiny_tpch):
        gen = TPCHGenerator(scale_factor=0.001, seed=42)
        gen.build()  # advance generator state to match tiny_tpch's layout
        view = MaterializedView.materialize(v3(), tiny_tpch)
        m = ViewMaintainer(tiny_tpch, view)
        m.insert("lineitem", gen.lineitem_insert_batch(20, seed=5))
        m.check_consistency()
        m.delete(
            "lineitem", gen.lineitem_delete_batch(tiny_tpch, 20, seed=6)
        )
        m.check_consistency()
        m.insert("customer", gen.customer_insert_batch(5, seed=7))
        m.check_consistency()
        m.insert("part", gen.part_insert_batch(5, seed=8))
        m.check_consistency()


class TestFixtureCache:
    def test_digest_covers_the_pickled_engine_classes(self):
        covered = {os.path.basename(p) for p in generator._FIXTURE_SOURCES}
        assert {"table.py", "index.py", "catalog.py"} <= covered

    def test_changed_digest_misses_an_existing_entry(self, tmp_path, monkeypatch):
        directory = str(tmp_path)
        _, built = cached_instance(0.0005, seed=5, directory=directory)
        (entry,) = os.listdir(directory)
        assert generator._source_digest() in entry
        # an entry written under another source digest (say, the parent
        # commit's index layout) must be ignored, never loaded
        with open(os.path.join(directory, entry), "wb") as handle:
            pickle.dump(("stale generator", "stale database"), handle)
        monkeypatch.setattr(generator, "_source_digest", lambda: "0" * 12)
        _, rebuilt = cached_instance(0.0005, seed=5, directory=directory)
        assert isinstance(rebuilt, Database)
        assert rebuilt.table("lineitem").rows == built.table("lineitem").rows
        assert len(os.listdir(directory)) == 2
