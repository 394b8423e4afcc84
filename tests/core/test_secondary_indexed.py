"""Tests for the index-seek secondary-delta plan
(CompiledViewSecondary): row-for-row equivalence with the scan formulas
of Section 5.2, plus the view sub-key index mechanics."""

import random


from repro.core import MaterializedView, ViewMaintainer
from repro.core.secondary import (
    DELETE,
    INSERT,
    CompiledViewSecondary,
    secondary_from_view,
)

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
        assert {sub: len(keys) for sub, keys in index.groups.items()} == expected

    def test_maintained_on_insert_and_delete(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        index = view.subkey_index(("s.k",))
        m = ViewMaintainer(v1_db, view)
        m.insert("s", [(700, 99)])  # orphan s-row (v=99 matches nothing)
        assert len(index.keys_for((700,))) == 1
        m.delete("s", [(700, 99)])
        assert index.keys_for((700,)) == []

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
        assert len(index.keys_for((701,))) == 1


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
