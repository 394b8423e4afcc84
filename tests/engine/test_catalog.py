"""Unit tests for the catalog: DDL, DML and constraint enforcement."""

import pytest

from repro.engine import Database, HashIndex, find_index
from repro.errors import CatalogError, ConstraintError, SchemaError


@pytest.fixture
def db():
    d = Database()
    d.create_table("parent", ["k", "v"], key=["k"])
    d.create_table("child", ["k", "pk", "v"], key=["k"], not_null=["pk"])
    d.add_foreign_key("child", ["pk"], "parent", ["k"])
    d.insert("parent", [(1, "a"), (2, "b")])
    d.insert("child", [(10, 1, "x")])
    return d


class TestDDL:
    def test_columns_are_qualified(self, db):
        assert db.table("parent").schema.columns == ("parent.k", "parent.v")

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table("parent", ["k"], key=["k"])

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.table("ghost")

    def test_keyless_table_rejected_before_registration(self, db):
        with pytest.raises(SchemaError, match="at least one column"):
            db.create_table("bare", ["a"], key=[])
        assert "bare" not in db.tables

    def test_fk_source_not_null_detected(self, db):
        fk = db.foreign_keys_from("child")[0]
        assert fk.source_not_null

    def test_fk_nullable_source_detected(self):
        d = Database()
        d.create_table("p", ["k"], key=["k"])
        d.create_table("c", ["k", "pk"], key=["k"])  # pk nullable
        fk = d.add_foreign_key("c", ["pk"], "p", ["k"])
        assert not fk.source_not_null

    def test_fk_target_must_be_unique_key(self, db):
        with pytest.raises(ConstraintError):
            db.add_foreign_key("child", ["v"], "parent", ["v"])

    def test_fk_lookup_helpers(self, db):
        assert db.foreign_keys_to("parent")[0].source == "child"
        assert db.foreign_key_between("child", "parent") is not None
        assert db.foreign_key_between("parent", "child") is None


class TestInsert:
    def test_returns_delta(self, db):
        delta = db.insert("parent", [(3, "c")])
        assert delta.rows == [(3, "c")]
        assert len(db.table("parent")) == 3

    def test_duplicate_key_rejected(self, db):
        with pytest.raises(ConstraintError):
            db.insert("parent", [(1, "dup")])

    def test_duplicate_within_batch_rejected(self, db):
        with pytest.raises(ConstraintError):
            db.insert("parent", [(5, "x"), (5, "y")])

    def test_fk_violation_rejected(self, db):
        with pytest.raises(ConstraintError):
            db.insert("child", [(11, 99, "bad")])

    def test_null_fk_rejected_when_not_null(self, db):
        with pytest.raises(ConstraintError):
            db.insert("child", [(11, None, "bad")])

    def test_null_fk_allowed_when_nullable(self):
        d = Database()
        d.create_table("p", ["k"], key=["k"])
        d.create_table("c", ["k", "pk"], key=["k"])
        d.add_foreign_key("c", ["pk"], "p", ["k"])
        d.insert("c", [(1, None)])  # orphan allowed for nullable FK
        assert len(d.table("c")) == 1

    def test_unchecked_insert_skips_validation(self, db):
        db.insert("child", [(11, 99, "bad")], check=False)
        assert len(db.table("child")) == 2


class TestDelete:
    def test_delete_rows(self, db):
        delta = db.delete("parent", [(2, "b")])
        assert delta.rows == [(2, "b")]
        assert len(db.table("parent")) == 1

    def test_delete_absent_row_rejected(self, db):
        with pytest.raises(ConstraintError):
            db.delete("parent", [(9, "zz")])

    def test_delete_referenced_row_rejected(self, db):
        with pytest.raises(ConstraintError):
            db.delete("parent", [(1, "a")])

    def test_delete_by_key(self, db):
        delta = db.delete_by_key("child", [(10,)])
        assert delta.rows == [(10, 1, "x")]
        assert len(db.table("child")) == 0

    def test_delete_then_parent_deletable(self, db):
        db.delete_by_key("child", [(10,)])
        db.delete("parent", [(1, "a")])
        assert len(db.table("parent")) == 1


class TestIncomingFkOnUnindexedColumn:
    """A delete from a referenced table probes an index on the
    referencing columns, built by the first delete that needs one."""

    @pytest.fixture
    def db(self):
        d = Database()
        d.create_table("parent", ["k", "v"], key=["k"])
        d.create_table("child", ["k", "pk"], key=["k"])  # pk is nullable
        fk = d.add_foreign_key("child", ["pk"], "parent", ["k"])
        d.insert("parent", [(1, "a"), (2, "b"), (3, "c")])
        d.insert("child", [(10, 1), (11, None)])
        assert find_index(d.table("child"), fk.source_columns) is None
        return d

    @staticmethod
    def fk_index(db):
        (fk,) = db.foreign_keys_to("parent")
        return find_index(db.table("child"), fk.source_columns)

    def test_referenced_parent_cannot_be_deleted(self, db):
        with pytest.raises(ConstraintError, match="still referenced"):
            db.delete("parent", [(1, "a")])
        assert len(db.table("parent")) == 3

    def test_null_reference_does_not_block_the_delete(self, db):
        db.delete("parent", [(2, "b")])
        assert sorted(db.table("parent").rows) == [(1, "a"), (3, "c")]

    def test_first_check_builds_the_index(self, db):
        db.delete("parent", [(2, "b")])
        assert self.fk_index(db) is not None

    def test_index_stays_exact_under_child_dml(self, db):
        db.delete("parent", [(2, "b")])
        index, _ = self.fk_index(db)
        db.insert("child", [(12, 3), (13, None)])
        db.delete("child", [(10, 1)])
        db.validate()
        fresh = HashIndex(db.table("child"), index.columns)
        exact = lambda i: {k: sorted(b) for k, b in i.buckets.items() if b}  # noqa: E731
        assert exact(index) == exact(fresh)
        assert index.lookup(db.table("child").rows, (3,)) == [(12, 3)]
        db.delete("parent", [(1, "a")])  # no longer referenced
        with pytest.raises(ConstraintError, match="still referenced"):
            db.delete("parent", [(3, "c")])

    def test_copy_carries_the_index(self, db):
        db.delete("parent", [(2, "b")])
        clone = db.copy()
        index, _ = self.fk_index(clone)
        assert index.lookup(clone.table("child").rows, (1,)) == [(10, 1)]
        with pytest.raises(ConstraintError, match="still referenced"):
            clone.delete("parent", [(1, "a")])


class TestCopyValidate:
    def test_copy_is_independent(self, db):
        clone = db.copy()
        clone.insert("parent", [(3, "c")])
        assert len(db.table("parent")) == 2
        assert len(clone.table("parent")) == 3

    def test_copy_shares_constraints(self, db):
        clone = db.copy()
        with pytest.raises(ConstraintError):
            clone.insert("child", [(12, 99, "bad")])

    def test_validate_full(self, db):
        db.validate()

    def test_validate_detects_corruption(self, db):
        db.table("child").rows.append((13, 999, "bad"))
        with pytest.raises(ConstraintError):
            db.validate()
