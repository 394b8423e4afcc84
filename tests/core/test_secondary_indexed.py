"""Tests for the index-seek secondary-delta plan
(CompiledViewSecondary): row-for-row equivalence with the scan formulas
of Section 5.2, plus the view sub-key index mechanics."""

import random
from collections import Counter

import pytest

from repro.core import MaterializedView, ViewMaintainer
from repro.core.secondary import (
    DELETE,
    INSERT,
    CompiledViewSecondary,
    secondary_from_view,
)
from repro.errors import MaintenanceError
from repro.tpch import TPCHGenerator, v3

from ..conftest import make_v1_db, make_v1_defn
from .test_secondary import setup_delete, setup_insert


def run_indexed(term, mgraph, view, primary, db, operation):
    plan = CompiledViewSecondary(term, mgraph, view, primary.schema, db, operation)
    return plan.execute(view, primary)


class TestEquivalenceWithScan:
    def test_insert_matches_scan_formula(self):
        for seed in range(6):
            db, defn, view, mgraph, primary, delta_t = setup_insert(seed)
            for term in mgraph.indirectly_affected:
                scan = secondary_from_view(
                    term, mgraph, view.as_table(), primary, db, INSERT
                )
                seek = run_indexed(term, mgraph, view, primary, db, INSERT)
                assert set(seek.rows) == set(scan.rows), (seed, term.label())

    def test_delete_matches_scan_formula(self):
        for seed in range(6):
            db, defn, view, mgraph, primary, delta_t = setup_delete(seed)
            maintainer = ViewMaintainer(db, view)
            terms = sorted(
                mgraph.indirectly_affected, key=lambda t: -len(t.source)
            )
            for term in terms:
                scan = secondary_from_view(
                    term, mgraph, view.as_table(), primary, db, DELETE
                )
                seek = run_indexed(term, mgraph, view, primary, db, DELETE)
                cols = scan.schema.columns
                realigned = {
                    tuple(row[seek.schema.index_of(c)] for c in cols)
                    for row in seek.rows
                }
                assert realigned == set(scan.rows), (seed, term.label())
                view.insert_rows(maintainer._align_rows(scan))


class TestSubkeyIndex:
    def test_counts_non_null_combinations(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        index = view.subkey_index(("r.k",))
        rk = view.schema.index_of("r.k")
        expected = {}
        for row in view.rows():
            if row[rk] is not None:
                expected[(row[rk],)] = expected.get((row[rk],), 0) + 1
        non_null = {sub: n for sub, n in index.groups.items() if None not in sub}
        assert non_null == expected
        # rows with a NULL sub-key are counted too (the orphan probe never
        # asks for them), so the counts add up to the view
        assert sum(index.groups.values()) == len(view)

    def test_maintained_on_insert_and_delete(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        index = view.subkey_index(("s.k",))
        m = ViewMaintainer(v1_db, view)
        m.insert("s", [(700, 99)])  # orphan s-row (v=99 matches nothing)
        assert index.groups[(700,)] == 1
        m.delete("s", [(700, 99)])
        assert (700,) not in index.groups

    def test_clone_deep_copies_indexes(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        index = view.subkey_index(("r.k",))
        twin = view.clone()
        twin_index = twin.subkey_index(("r.k",))
        assert twin_index.columns == index.columns
        assert twin_index.groups == index.groups
        assert twin_index is not index

    def test_lazy_build_reflects_prior_changes(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        m = ViewMaintainer(v1_db, view)
        m.insert("s", [(701, 98)])
        index = view.subkey_index(("s.k",))  # built after the change
        assert index.groups[(701,)] == 1


def recounted(view, index):
    """The index recomputed from the view's rows: every projection, NULL
    sub-keys included (the index counts them; the probe skips them)."""
    positions = view.schema.positions(index.columns)
    return Counter(tuple(row[p] for p in positions) for row in view.rows())


def v1_stream(seed):
    db = make_v1_db(seed=seed)
    m = ViewMaintainer(db, MaterializedView.materialize(make_v1_defn(), db))
    rng = random.Random(seed)
    for step in range(24):
        table = rng.choice("rstu")
        if rng.random() < 0.5:
            rows = [(3000 + step * 10 + j, rng.randint(0, 5)) for j in range(2)]
            m.insert(table, rows)
        else:
            rows = db.table(table).rows
            m.delete(table, rng.sample(rows, min(2, len(rows))))
    return m


def v3_stream(seed):
    db = TPCHGenerator(scale_factor=0.0005, seed=seed).build()
    stream = TPCHGenerator(scale_factor=0.0005, seed=seed)
    stream.build()
    m = ViewMaintainer(db, MaterializedView.materialize(v3(), db))
    for step in range(4):
        m.insert("lineitem", stream.lineitem_insert_batch(15, seed=step))
        m.delete("lineitem", stream.lineitem_delete_batch(db, 15, seed=step))
    m.insert("part", stream.part_insert_batch(3, seed=1))
    m.insert("customer", stream.customer_insert_batch(3, seed=1))
    return m


class TestIndexMatchesRecompute:
    """After a seeded insert/delete stream, every built sub-key index
    holds exactly the counts a recompute from the view's rows gives."""

    @pytest.fixture(params=[(v1_stream, 3), (v3_stream, 5)], ids=["v1", "v3"])
    def view(self, request):
        stream, seed = request.param
        maintainer = stream(seed)
        maintainer.check_consistency()
        view = maintainer.view
        assert view._subkey_indexes, "the deletes built no index"
        return view

    def test_counts_equal_recompute(self, view):
        for index in view._subkey_indexes.values():
            assert index.groups == recounted(view, index), index.columns
            assert type(index.groups) is dict

    def test_rejected_delta_leaves_counts(self, view):
        before = {c: dict(i.groups) for c, i in view._subkey_indexes.items()}
        held = view.rows()[0]
        with pytest.raises(MaintenanceError):
            view.insert_rows([held])
        with pytest.raises(MaintenanceError):
            view.delete_rows([held, held])
        after = {c: dict(i.groups) for c, i in view._subkey_indexes.items()}
        assert after == before

    def test_clone_is_independent(self, view):
        twin = view.clone()
        doomed = view.rows()[:3]
        twin.delete_rows(doomed)
        for columns, index in view._subkey_indexes.items():
            assert index.groups == recounted(view, index)
            assert twin._subkey_indexes[columns].groups == recounted(
                twin, twin._subkey_indexes[columns]
            )
        twin.insert_rows(doomed)
        view.delete_rows(doomed)
        for columns, index in twin._subkey_indexes.items():
            assert index.groups == recounted(twin, index)
            assert view._subkey_indexes[columns].groups == recounted(
                view, view._subkey_indexes[columns]
            )


class TestEndToEnd:
    def test_long_mixed_stream(self):
        db = make_v1_db(seed=3)
        defn = make_v1_defn()
        view = MaterializedView.materialize(defn, db)
        m = ViewMaintainer(db, view)
        rng = random.Random(3)
        for step in range(16):
            table = rng.choice("rstu")
            if rng.random() < 0.5:
                m.insert(
                    table,
                    [(2000 + step * 10 + j, rng.randint(0, 5)) for j in range(2)],
                )
            else:
                rows = rng.sample(
                    db.table(table).rows, min(2, len(db.table(table).rows))
                )
                m.delete(table, rows)
            m.check_consistency()
