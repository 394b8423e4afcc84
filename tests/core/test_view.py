"""Unit tests for ViewDefinition and MaterializedView."""

import pytest

from repro.algebra.expr import Project
from repro.core.maintain import ViewMaintainer
from repro.core.view import MaterializedView, ViewDefinition
from repro.engine.table import ChangeJournal
from repro.errors import MaintenanceError, SchemaError, UnsupportedViewError
from repro.tpch import TPCHGenerator, v3


class TestViewDefinition:
    def test_tables(self, v1_defn):
        assert v1_defn.tables == {"r", "s", "t", "u"}

    def test_output_defaults_to_full_schema(self, v1_db, v1_defn):
        assert set(v1_defn.output_columns(v1_db)) == {
            f"{t}.{c}" for t in "rstu" for c in ("k", "v")
        }

    def test_top_projection_becomes_output(self, v1_db, v1_defn):
        cols = ["r.k", "s.k", "t.k", "u.k", "r.v"]
        defn = ViewDefinition("p", Project(v1_defn.join_expr, cols))
        assert defn.output_columns(v1_db) == tuple(cols)

    def test_key_columns_sorted_by_table(self, v1_db, v1_defn):
        assert v1_defn.key_columns(v1_db) == ("r.k", "s.k", "t.k", "u.k")

    def test_validate_requires_key_output(self, v1_db, v1_defn):
        defn = ViewDefinition(
            "bad", Project(v1_defn.join_expr, ["r.k", "r.v"])
        )
        with pytest.raises(UnsupportedViewError, match="key column"):
            defn.validate(v1_db)

    def test_validate_rejects_unknown_output(self, v1_db, v1_defn):
        defn = ViewDefinition(
            "bad",
            Project(
                v1_defn.join_expr, ["r.k", "s.k", "t.k", "u.k", "zz.q"]
            ),
        )
        with pytest.raises(UnsupportedViewError):
            defn.validate(v1_db)

    def test_evaluate_projects_and_keys(self, v1_db, v1_defn):
        table = v1_defn.evaluate(v1_db)
        assert table.key == v1_defn.key_columns(v1_db)
        assert set(table.schema.columns) == set(v1_defn.output_columns(v1_db))

    def test_key_column_of(self, v1_db, v1_defn):
        assert v1_defn.key_column_of("r", v1_db) == "r.k"


class TestMaterializedView:
    def test_materialize_matches_evaluate(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        direct = v1_defn.evaluate(v1_db)
        assert frozenset(view.rows()) == frozenset(direct.rows)

    def test_key_lookup(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        row = view.rows()[0]
        assert view.key_of(row) in view

    def test_insert_rows(self, v1_db, v1_defn):
        view = MaterializedView(v1_defn, v1_db)
        sample = v1_defn.evaluate(v1_db).rows[:3]
        assert view.insert_rows(sample) == 3
        assert len(view) == 3

    def test_insert_duplicate_key_raises(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        with pytest.raises(MaintenanceError, match="duplicate key"):
            view.insert_rows([view.rows()[0]])

    def test_delete_rows(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        n = len(view)
        view.delete_rows(view.rows()[:2])
        assert len(view) == n - 2

    def test_delete_absent_raises(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        ghost = tuple(None for __ in view.schema.columns)
        with pytest.raises(MaintenanceError, match="absent"):
            view.delete_rows([ghost])

    def test_as_table_snapshot_is_detached(self, v1_db, v1_defn):
        view = MaterializedView.materialize(v1_defn, v1_db)
        snap = view.as_table()
        view.delete_rows(view.rows()[:1])
        assert len(snap.rows) == len(view) + 1


class TestDeltaAppliesWholeOrNotAtAll:
    """A failing delta must leave rows, sub-key indexes, journal and
    version exactly as they were (``engine/table.py``: a slice carrying
    its source's version is current exactly while the two agree)."""

    @pytest.fixture
    def watched(self, v1_db, v1_defn):
        """A view holding all rows but two, with a journal attached and a
        sub-key index built; the two held-back rows are fresh inserts."""
        rows = v1_defn.evaluate(v1_db).rows
        view = MaterializedView(v1_defn, v1_db)
        view.insert_rows(rows[2:])
        view.journal = ChangeJournal()
        index = view.subkey_index(("r.k",))
        return view, rows[0], rows[1], index

    @staticmethod
    def state(view, index):
        return dict(view._rows), dict(index.groups), view.version

    def test_failing_insert_touches_nothing(self, watched):
        view, new1, new2, index = watched
        held = view.rows()[0]
        before = self.state(view, index)
        with pytest.raises(MaintenanceError, match="duplicate key") as caught:
            view.insert_rows([new1, new2, held])
        assert repr(view.key_of(held)) in str(caught.value)
        assert self.state(view, index) == before
        assert view.journal.changes == {}

    def test_insert_repeating_a_key_inside_the_batch(self, watched):
        view, new1, new2, index = watched
        before = self.state(view, index)
        with pytest.raises(MaintenanceError, match="duplicate key") as caught:
            view.insert_rows([new1, new2, new1])
        assert repr(view.key_of(new1)) in str(caught.value)
        assert self.state(view, index) == before
        assert view.journal.changes == {}

    def test_failing_delete_touches_nothing(self, watched):
        view, new1, __, index = watched
        held = view.rows()[0]
        before = self.state(view, index)
        with pytest.raises(MaintenanceError, match="absent on delete") as caught:
            view.delete_rows([held, new1, new1])
        assert repr(view.key_of(new1)) in str(caught.value)
        assert self.state(view, index) == before
        assert view.journal.changes == {}

    def test_delete_repeating_a_key_inside_the_batch(self, watched):
        view, __, __, index = watched
        first, second = view.rows()[:2]
        before = self.state(view, index)
        with pytest.raises(MaintenanceError, match="absent on delete") as caught:
            view.delete_rows([first, second, first])
        assert repr(view.key_of(first)) in str(caught.value)
        assert self.state(view, index) == before
        assert view.journal.changes == {}

    def test_whole_delta_is_journalled_indexed_and_versioned(self, watched):
        view, new1, new2, index = watched
        version = view.version
        assert view.insert_rows([new1, new2]) == 2
        key1, key2 = view.key_of(new1), view.key_of(new2)
        assert view.journal.take() == {key1: new1, key2: new2}
        assert view.version > version
        rk = view.schema.index_of("r.k")
        carried = sum(row[rk] == new1[rk] for row in view.rows())
        assert index.groups[(new1[rk],)] == carried
        version = view.version
        assert view.delete_rows([new2, new1]) == 2
        assert view.journal.take() == {key2: None, key1: None}
        assert view.version > version
        assert index.groups == view.clone().subkey_index(("r.k",)).groups


class TestViewLookup:
    @pytest.fixture(scope="class")
    def view(self):
        db = TPCHGenerator(scale_factor=0.0005).build()
        return MaterializedView.materialize(v3(), db), db

    def test_full_key_lookup(self, view):
        mv, db = view
        row = mv.rows()[0]
        key = dict(zip(mv.key_cols, mv.key_of(row)))
        assert mv.lookup(**key) == [row]

    def test_subkey_lookup(self, view):
        mv, db = view
        pk = mv.schema.index_of("part.p_partkey")
        target = next(r[pk] for r in mv.rows() if r[pk] is not None)
        rows = mv.lookup(**{"part.p_partkey": target})
        assert rows
        assert all(r[pk] == target for r in rows)

    def test_miss_returns_empty(self, view):
        mv, db = view
        assert mv.lookup(**{"part.p_partkey": -1}) == []

    def test_lookup_stays_fresh_under_maintenance(self):
        gen = TPCHGenerator(scale_factor=0.0005)
        db = gen.build()
        mv = MaterializedView.materialize(v3(), db)
        maintainer = ViewMaintainer(db, mv)
        mv.lookup(**{"customer.c_custkey": 1})
        batch = gen.lineitem_insert_batch(20, seed=9)
        maintainer.insert("lineitem", batch)
        ck = mv.schema.index_of("customer.c_custkey")
        expected = [r for r in mv.rows() if r[ck] == 1]
        assert sorted(map(repr, mv.lookup(**{"customer.c_custkey": 1}))) == sorted(
            map(repr, expected)
        )

    def test_no_equalities_returns_every_row(self, view):
        mv, db = view
        assert mv.lookup() == mv.rows()

    def test_subkey_lookup_builds_no_index(self, view):
        mv, db = view
        mv.lookup(**{"customer.c_custkey": 1})
        assert mv._subkey_indexes == {}

    def test_unknown_column_rejected(self, view):
        mv, db = view
        with pytest.raises(SchemaError):
            mv.lookup(**{"ghost.col": 1})

    def test_null_probe_falls_back_to_scan(self, view):
        mv, db = view
        lk = mv.schema.index_of("lineitem.l_linenumber")
        orphans = mv.lookup(**{"lineitem.l_linenumber": None})
        assert all(r[lk] is None for r in orphans)
        assert orphans  # V3 always has C/P orphan rows


def test_equal_views_share_rows():
    """Views built before a warehouse's first change share equal rows:
    two identical views hold the same row and key objects.  A maintained
    delete on one leaves the other's rows as they were, and a view
    created after the first change shares nothing."""
    from repro.core.secondary import DELETE
    from repro.warehouse import Warehouse

    wh = Warehouse(TPCHGenerator(scale_factor=0.001, seed=5).build())
    wh.create_view("a", v3())
    wh.create_view("b", v3())
    a, b = wh.view("a"), wh.view("b")
    assert len(a) and a._rows == b._rows
    assert all(b._rows[key] is row for key, row in a._rows.items())
    assert {id(key) for key in a._rows} == {id(key) for key in b._rows}

    held = dict(b._rows)
    lines = a.schema.positions(("lineitem.l_orderkey", "lineitem.l_linenumber"))
    shown = {tuple(row[p] for p in lines) for row in a.rows()}
    doomed = [r for r in wh.db.table("lineitem").rows if r[:2] in shown][:5]
    delta = wh.db.delete("lineitem", doomed)
    wh.maintainer("a").maintain("lineitem", delta, DELETE)
    assert a._rows != held
    assert b._rows == held
    assert all(b._rows[key] is row for key, row in held.items())
    wh.maintainer("a").check_consistency()
    wh.maintainer("b").maintain("lineitem", delta, DELETE)
    wh.check_consistency()

    wh.insert("lineitem", doomed)  # the first change drops the pool
    wh.create_view("c", v3())
    c = wh.view("c")
    assert c._rows == a._rows
    assert not any(a._rows[key] is row for key, row in c._rows.items())
    wh.check_consistency()
    wh.close()
