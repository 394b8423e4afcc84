"""Unit tests for secondary-delta computation (Section 5.2 / 5.3,
Examples 6–9), including from-view ≡ from-base cross-checks."""

import random

import pytest

from repro.algebra import evaluate, normal_form
from repro.algebra.expr import delta_label
from repro.algebra.subsumption import SubsumptionGraph
from repro.core.maintgraph import MaintenanceGraph
from repro.core.primary import primary_delta_expression
from repro.core.secondary import (
    DELETE,
    INSERT,
    CompiledBaseSecondary,
    old_state,
    secondary_from_view,
)
from repro.core.view import MaterializedView
from repro.core.maintain import ViewMaintainer

from ..conftest import make_v1_db, make_v1_defn


def term_named(graph, *names):
    return graph.term_for(frozenset(names))


def from_base(term, mgraph, primary, db, operation, delta_t):
    """Section 5.3's ΔDᵢ for an update of ``t``, by its compiled plan."""
    plan = CompiledBaseSecondary(term, mgraph, primary.schema, db, operation, "t")
    return plan.execute(db, primary, delta_t)


def setup_insert(seed=1):
    """Insert rows into T of V1; return everything Section 5 needs,
    with base tables updated and the primary delta applied to the view."""
    db = make_v1_db(seed=seed)
    defn = make_v1_defn()
    view = MaterializedView.materialize(defn, db)
    graph = SubsumptionGraph(normal_form(defn.join_expr, db))
    mgraph = MaintenanceGraph(graph, "t", db)
    dexpr = primary_delta_expression(defn.join_expr, "t")
    rng = random.Random(seed)
    delta_t = db.insert("t", [(700 + i, rng.randint(0, 5)) for i in range(4)])
    primary = evaluate(dexpr, db, {delta_label("t"): delta_t})
    maintainer = ViewMaintainer(db, view)
    view.insert_rows(maintainer._align_rows(primary))
    return db, defn, view, mgraph, primary, delta_t


def setup_delete(seed=1):
    db = make_v1_db(seed=seed)
    defn = make_v1_defn()
    view = MaterializedView.materialize(defn, db)
    graph = SubsumptionGraph(normal_form(defn.join_expr, db))
    mgraph = MaintenanceGraph(graph, "t", db)
    dexpr = primary_delta_expression(defn.join_expr, "t")
    rng = random.Random(seed)
    doomed = rng.sample(db.table("t").rows, 4)
    delta_t = db.delete("t", doomed)
    primary = evaluate(dexpr, db, {delta_label("t"): delta_t})
    maintainer = ViewMaintainer(db, view)
    view.delete_rows(maintainer._align_rows(primary))
    return db, defn, view, mgraph, primary, delta_t


class TestOldState:
    def test_old_state_reverses_insert(self, v1_db):
        before = set(v1_db.table("t").rows)
        delta = v1_db.insert("t", [(800, 1)])
        old = old_state("t", v1_db, delta)
        assert set(old.rows) == before


class TestInsertions:
    def test_example6_rs_orphans_identified(self):
        """ΔD_RS after inserting into T: orphaned RS view rows whose key
        matches a new TRS-parent row in ΔV^D."""
        db, defn, view, mgraph, primary, delta_t = setup_insert()
        rs = term_named(mgraph.graph, "r", "s")
        result = secondary_from_view(
            rs, mgraph, view.as_table(), primary, db, INSERT
        )
        # every returned row is an RS orphan: r,s real; t,u null
        schema = result.schema
        for row in result.rows:
            assert row[schema.index_of("r.k")] is not None
            assert row[schema.index_of("s.k")] is not None
            assert row[schema.index_of("t.k")] is None
            assert row[schema.index_of("u.k")] is None

    def test_from_view_equals_from_base_insert(self):
        for seed in range(6):
            db, defn, view, mgraph, primary, delta_t = setup_insert(seed)
            for term in mgraph.indirectly_affected:
                via_view = secondary_from_view(
                    term, mgraph, view.as_table(), primary, db, INSERT
                )
                via_base = from_base(term, mgraph, primary, db, INSERT, delta_t)
                cols = sorted(
                    set(via_base.schema.columns) & set(via_view.schema.columns)
                )
                vv = {
                    tuple(row[via_view.schema.index_of(c)] for c in cols)
                    for row in via_view.rows
                }
                vb = {
                    tuple(row[via_base.schema.index_of(c)] for c in cols)
                    for row in via_base.rows
                }
                assert vv == vb, (seed, term.label())

    def test_orphans_to_delete_exist_in_view(self):
        db, defn, view, mgraph, primary, delta_t = setup_insert(3)
        for term in mgraph.indirectly_affected:
            result = secondary_from_view(
                term, mgraph, view.as_table(), primary, db, INSERT
            )
            for row in result.rows:
                assert view.key_of(row) in view._rows


class TestDeletions:
    def test_example7_candidates_restricted_to_parents(self):
        db, defn, view, mgraph, primary, delta_t = setup_delete()
        rs = term_named(mgraph.graph, "r", "s")
        result = secondary_from_view(
            rs, mgraph, view.as_table(), primary, db, DELETE
        )
        # new orphans are defined on RS columns only
        assert set(result.schema.columns) == {"r.k", "r.v", "s.k", "s.v"}

    def test_from_view_equals_from_base_delete(self):
        for seed in range(6):
            db, defn, view, mgraph, primary, delta_t = setup_delete(seed)
            # process parents-first for the view strategy, mirroring the
            # maintainer; from-base needs no ordering
            terms = sorted(
                mgraph.indirectly_affected, key=lambda t: -len(t.source)
            )
            snapshot = view.as_table()
            for term in terms:
                via_view = secondary_from_view(
                    term, mgraph, snapshot, primary, db, DELETE
                )
                via_base = from_base(term, mgraph, primary, db, DELETE, delta_t)
                cols = sorted(via_view.schema.columns)
                vv = {
                    tuple(row[via_view.schema.index_of(c)] for c in cols)
                    for row in via_view.rows
                }
                vb = {
                    tuple(row[via_base.schema.index_of(c)] for c in cols)
                    for row in via_base.rows
                }
                assert vv == vb, (seed, term.label())
                # apply to the view so the next (child) term sees fresh rows
                m = ViewMaintainer(db, view)
                m.view.insert_rows(m._align_rows(via_view))
                snapshot = view.as_table()

    def test_new_orphans_not_already_in_view(self):
        db, defn, view, mgraph, primary, delta_t = setup_delete(4)
        terms = sorted(
            mgraph.indirectly_affected, key=lambda t: -len(t.source)
        )
        maintainer = ViewMaintainer(db, view)
        for term in terms:
            result = secondary_from_view(
                term, mgraph, view.as_table(), primary, db, DELETE
            )
            for row in maintainer._align_rows(result):
                assert view.key_of(row) not in view._rows
            view.insert_rows(maintainer._align_rows(result))


class TestErrors:
    def test_indirect_term_without_direct_parent_rejected(self, v1_db, v1_defn):
        from repro.errors import MaintenanceError

        graph = SubsumptionGraph(normal_form(v1_defn.join_expr, v1_db))
        mgraph = MaintenanceGraph(graph, "t", v1_db)
        s_term = graph.term_for(frozenset("s"))  # unaffected
        with pytest.raises(MaintenanceError):
            secondary_from_view(
                s_term,
                mgraph,
                MaterializedView.materialize(v1_defn, v1_db).as_table(),
                evaluate(
                    primary_delta_expression(v1_defn.join_expr, "t"),
                    v1_db,
                    {delta_label("t"): v1_db.table("t")},
                ),
                v1_db,
                INSERT,
            )
