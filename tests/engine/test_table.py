"""Unit tests for repro.engine.table."""

import pytest

from repro.engine.schema import Schema
from repro.engine.table import Table, rows_to_set, same_rows
from repro.errors import ConstraintError, SchemaError


def make(rows=(), key=("t.k",), not_null=()):
    return Table(
        "t", Schema(["t.k", "t.v"]), list(rows), key=key, not_null=not_null
    )


class TestConstruction:
    def test_basic(self):
        t = make([(1, "a")])
        assert len(t) == 1
        assert list(t) == [(1, "a")]

    def test_key_columns_validated(self):
        with pytest.raises(SchemaError):
            Table("t", Schema(["t.k"]), key=["t.zz"])

    def test_key_does_not_imply_not_null_on_bare_tables(self):
        # Join results have keys with NULLs on the null-extended side, so
        # NOT NULL must be declared explicitly (the catalog does it for
        # base tables).
        t = make()
        assert "t.k" not in t.not_null

    def test_not_null_columns_validated(self):
        with pytest.raises(SchemaError):
            Table("t", Schema(["t.k"]), not_null=["t.zz"])


class TestAccessors:
    def test_key_of(self):
        t = make([(5, "x")])
        assert t.key_of((5, "x")) == (5,)

    def test_key_positions_without_key_raises(self):
        t = make(key=None)
        with pytest.raises(SchemaError):
            t.key_positions()

    def test_row_dicts(self):
        t = make([(1, "a")])
        assert t.row_dicts() == [{"t.k": 1, "t.v": "a"}]


class TestValidate:
    def test_ok(self):
        make([(1, "a"), (2, None)]).validate()

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            make([(1,)]).validate()

    def test_null_in_key_with_not_null_declared(self):
        with pytest.raises(ConstraintError):
            make([(None, "a")], not_null=["t.k"]).validate()

    def test_null_in_not_null_column(self):
        with pytest.raises(ConstraintError):
            make([(1, None)], not_null=["t.v"]).validate()

    def test_duplicate_key(self):
        with pytest.raises(ConstraintError):
            make([(1, "a"), (1, "b")]).validate()


class TestCopyAndCompare:
    def test_copy_is_independent(self):
        t = make([(1, "a")])
        clone = t.copy()
        clone.rows.append((2, "b"))
        assert len(t) == 1

    def test_rows_to_set(self):
        assert rows_to_set(make([(1, "a"), (1, "a")])) == {(1, "a")}

    def test_same_rows_identical(self):
        assert same_rows(make([(1, "a")]), make([(1, "a")]))

    def test_same_rows_order_insensitive(self):
        a = make([(1, "a"), (2, "b")])
        b = make([(2, "b"), (1, "a")])
        assert same_rows(a, b)

    def test_same_rows_realigns_columns(self):
        a = Table("t", Schema(["t.k", "t.v"]), [(1, "a")])
        b = Table("t", Schema(["t.v", "t.k"]), [("a", 1)])
        assert same_rows(a, b)

    def test_same_rows_detects_difference(self):
        assert not same_rows(make([(1, "a")]), make([(1, "b")]))

    def test_same_rows_different_columns(self):
        a = Table("t", Schema(["t.k"]), [(1,)])
        b = Table("t", Schema(["t.x"]), [(1,)])
        assert not same_rows(a, b)
