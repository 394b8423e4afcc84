"""Unit tests for the physical operators, including the paper-specific
ones (outer union ⊎, removal of subsumed tuples ↓, minimum union ⊕,
null-if λ) and SQL NULL semantics in joins."""

from collections import Counter

import pytest

from repro.engine import operators as ops
from repro.engine.index import HashIndex, KeyIndex
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.errors import SchemaError


def T(name, cols, rows, key=None):
    return Table(name, Schema(cols), rows, key=key)


@pytest.fixture
def left():
    return Table(
        "l",
        Schema(["l.k", "l.j"]),
        [(1, 10), (2, 20), (3, None)],
        key=["l.k"],
        not_null=["l.k"],
    )


@pytest.fixture
def right():
    return T("r", ["r.k", "r.j"], [(7, 10), (8, 10), (9, 30)], key=["r.k"])


class TestSelectProjectDistinct:
    def test_select(self, left):
        out = ops.select(left, lambda row: row[0] >= 2)
        assert out.rows == [(2, 20), (3, None)]

    def test_select_keeps_key(self, left):
        assert ops.select(left, lambda r: True).key == ("l.k",)

    def test_project(self, left):
        out = ops.project(left, ["l.j"])
        assert out.rows == [(10,), (20,), (None,)]

    def test_project_drops_key_when_key_column_lost(self, left):
        assert ops.project(left, ["l.j"]).key is None

    def test_project_keeps_key_when_retained(self, left):
        assert ops.project(left, ["l.k"]).key == ("l.k",)

    def test_project_no_duplicate_elimination(self):
        t = T("t", ["t.a", "t.b"], [(1, 2), (1, 3)])
        assert ops.project(t, ["t.a"]).rows == [(1,), (1,)]

    def test_distinct(self):
        t = T("t", ["t.a"], [(1,), (2,), (1,)])
        assert ops.distinct(t).rows == [(1,), (2,)]


class TestInnerJoin:
    def test_hash_equi_join(self, left, right):
        out = ops.join(left, right, "inner", equi=[("l.j", "r.j")])
        assert sorted(out.rows) == [(1, 10, 7, 10), (1, 10, 8, 10)]

    def test_null_key_never_matches(self, left):
        other = T("r", ["r.j"], [(None,), (10,)])
        out = ops.join(left, other, "inner", equi=[("l.j", "r.j")])
        # (3, None) matches nothing; (None,) matches nothing.
        assert sorted(out.rows) == [(1, 10, 10)]

    def test_residual_predicate(self, left, right):
        out = ops.join(
            left,
            right,
            "inner",
            equi=[("l.j", "r.j")],
            residual=lambda row: row[2] > 7,
        )
        assert out.rows == [(1, 10, 8, 10)]

    def test_nested_loop_without_equi(self, left, right):
        out = ops.join(
            left, right, "inner", residual=lambda row: row[0] == row[2] - 6
        )
        assert out.rows == [(1, 10, 7, 10), (2, 20, 8, 10), (3, None, 9, 30)]

    def test_cross_product(self):
        a = T("a", ["a.x"], [(1,), (2,)])
        b = T("b", ["b.y"], [(3,)])
        out = ops.join(a, b, "inner")
        assert sorted(out.rows) == [(1, 3), (2, 3)]

    def test_key_concatenation(self, left, right):
        out = ops.join(left, right, "inner", equi=[("l.j", "r.j")])
        assert out.key == ("l.k", "r.k")

    def test_unknown_kind_raises(self, left, right):
        with pytest.raises(SchemaError):
            ops.join(left, right, "sideways")


class TestOuterJoins:
    def test_left_outer_preserves_unmatched(self, left, right):
        out = ops.join(left, right, "left", equi=[("l.j", "r.j")])
        rows = set(out.rows)
        assert (2, 20, None, None) in rows
        assert (3, None, None, None) in rows
        assert (1, 10, 7, 10) in rows and (1, 10, 8, 10) in rows
        assert len(rows) == 4

    def test_right_outer_preserves_right(self, left, right):
        out = ops.join(left, right, "right", equi=[("l.j", "r.j")])
        rows = set(out.rows)
        assert (None, None, 9, 30) in rows
        assert (2, 20, None, None) not in rows

    def test_full_outer(self, left, right):
        out = ops.join(left, right, "full", equi=[("l.j", "r.j")])
        rows = set(out.rows)
        assert (2, 20, None, None) in rows
        assert (None, None, 9, 30) in rows
        assert len(rows) == 5

    def test_left_outer_not_null_propagation(self, left, right):
        out = ops.join(left, right, "left", equi=[("l.j", "r.j")])
        assert "l.k" in out.not_null
        assert "r.k" not in out.not_null

    def test_outer_join_equals_minimum_union_definition(self, left, right):
        """T1 ⟕ T2 = (T1 ⋈ T2) ⊕ T1 — the paper's Section 2.1 definition."""
        direct = ops.join(left, right, "left", equi=[("l.j", "r.j")])
        inner = ops.join(left, right, "inner", equi=[("l.j", "r.j")])
        via_def = ops.minimum_union(inner, left)
        assert set(ops.align_to_schema(direct, via_def.schema)) == set(
            via_def.rows
        )

    def test_full_outer_equals_minimum_union_definition(self, left, right):
        direct = ops.join(left, right, "full", equi=[("l.j", "r.j")])
        inner = ops.join(left, right, "inner", equi=[("l.j", "r.j")])
        via_def = ops.minimum_union(ops.minimum_union(inner, left), right)
        assert set(ops.align_to_schema(direct, via_def.schema)) == set(
            via_def.rows
        )


class TestSemiAntiJoins:
    def test_semijoin(self, left, right):
        out = ops.join(left, right, "semi", equi=[("l.j", "r.j")])
        assert out.rows == [(1, 10)]

    def test_antijoin(self, left, right):
        out = ops.join(left, right, "anti", equi=[("l.j", "r.j")])
        assert out.rows == [(2, 20), (3, None)]

    def test_semijoin_no_duplication(self, left, right):
        # l.j=10 matches two right rows but l appears once.
        out = ops.join(left, right, "semi", equi=[("l.j", "r.j")])
        assert len(out.rows) == 1

    def test_semi_keeps_left_schema_and_key(self, left, right):
        out = ops.join(left, right, "semi", equi=[("l.j", "r.j")])
        assert out.schema == left.schema
        assert out.key == ("l.k",)

    def test_anti_with_null_key_kept(self, left):
        # A NULL join key matches nothing, so the row survives an antijoin.
        other = T("r", ["r.j"], [(None,)])
        out = ops.join(left, other, "anti", equi=[("l.j", "r.j")])
        assert (3, None) in out.rows


class TestOuterUnion:
    def test_pads_with_nulls(self):
        a = T("a", ["x.k", "x.a"], [(1, "a")])
        b = T("b", ["x.k", "x.b"], [(2, "b")])
        out = ops.outer_union(a, b)
        assert out.schema.columns == ("x.k", "x.a", "x.b")
        assert set(out.rows) == {(1, "a", None), (2, None, "b")}

    def test_no_duplicate_elimination(self):
        a = T("a", ["x.k"], [(1,)])
        out = ops.outer_union(a, a)
        assert out.rows == [(1,), (1,)]


class TestSubsumption:
    def test_removes_subsumed(self):
        t = T("t", ["a.x", "b.y"], [(1, 2), (1, None)])
        assert ops.remove_subsumed(t).rows == [(1, 2)]

    def test_keeps_non_subsumed(self):
        t = T("t", ["a.x", "b.y"], [(1, 2), (2, None)])
        assert set(ops.remove_subsumed(t).rows) == {(1, 2), (2, None)}

    def test_value_must_agree(self):
        t = T("t", ["a.x", "b.y"], [(1, 2), (3, None)])
        assert len(ops.remove_subsumed(t).rows) == 2

    def test_transitive_chain(self):
        t = T(
            "t",
            ["a.x", "b.y", "c.z"],
            [(1, 2, 3), (1, 2, None), (1, None, None)],
        )
        assert ops.remove_subsumed(t).rows == [(1, 2, 3)]

    def test_equal_null_count_never_subsumes(self):
        t = T("t", ["a.x", "b.y"], [(1, None), (None, 1)])
        assert len(ops.remove_subsumed(t).rows) == 2

    def test_duplicates_not_removed(self):
        # ↓ removes subsumed tuples, not duplicates (δ does that).
        t = T("t", ["a.x"], [(1,), (1,)])
        assert len(ops.remove_subsumed(t).rows) == 2


class TestMinimumUnion:
    def test_commutative(self):
        a = T("a", ["x.k", "x.a"], [(1, "a"), (2, "b")])
        b = T("b", ["x.k", "x.b"], [(1, "c")])
        ab = ops.minimum_union(a, b)
        ba = ops.minimum_union(b, a)
        assert set(ops.align_to_schema(ab, ba.schema)) == set(ba.rows)

    def test_subsumed_operand_rows_removed(self):
        a = T("a", ["x.k", "x.a", "x.b"], [(1, "a", "b")])
        b = T("b", ["x.k", "x.a"], [(1, "a")])
        out = ops.minimum_union(a, b)
        assert out.rows == [(1, "a", "b")]


class TestNullIf:
    def test_nulls_matching_rows(self):
        t = T("t", ["a.x", "b.y"], [(1, 2), (3, 4)])
        out = ops.null_if(t, lambda row: row[0] == 1, ["b.y"])
        assert set(out.rows) == {(1, None), (3, 4)}

    def test_passes_non_matching(self):
        t = T("t", ["a.x"], [(1,)])
        out = ops.null_if(t, lambda row: False, ["a.x"])
        assert out.rows == [(1,)]

    def test_clears_not_null_marker(self):
        t = Table("t", Schema(["a.x"]), [(1,)], not_null=["a.x"])
        out = ops.null_if(t, lambda row: True, ["a.x"])
        assert "a.x" not in out.not_null

    def test_nulling_a_key_column_drops_the_key(self):
        t = T("t", ["a.k", "b.k", "b.y"], [(1, 2, 3), (4, 5, 6)], key=["a.k", "b.k"])
        kept = ops.null_if(t, lambda row: row[0] == 1, ["b.y"])
        assert kept.key == ("a.k", "b.k") and kept.rows == [(1, 2, None), (4, 5, 6)]
        dropped = ops.null_if(t, lambda row: row[0] == 1, ["b.k", "b.y"])
        assert dropped.key is None and dropped.rows == [(1, None, None), (4, 5, 6)]


class TestFixUp:
    def test_removes_duplicates(self):
        t = T("t", ["a.k", "b.y"], [(1, None), (1, None)])
        assert ops.fixup(t, ["a.k"]).rows == [(1, None)]

    def test_removes_keyed_subsumed(self):
        t = T("t", ["a.k", "b.y"], [(1, 2), (1, None)])
        assert ops.fixup(t, ["a.k"]).rows == [(1, 2)]

    def test_does_not_cross_groups(self):
        t = T("t", ["a.k", "b.y"], [(1, 2), (2, None)])
        assert set(ops.fixup(t, ["a.k"]).rows) == {(1, 2), (2, None)}


    def test_all_singleton_groups_pass_through_in_order(self):
        rows = [(3, None), (1, 2), (2, None)]
        t = T("t", ["a.k", "b.y"], rows, key=["a.k"])
        out = ops.fixup(t, ["a.k"])
        assert out.rows == rows and out.key == ("a.k",)

    def test_exact_duplicates_and_a_subsumed_row_together(self):
        t = T("t", ["a.k", "b.y"], [(1, 2), (2, None), (1, 2), (1, None), (2, None)])
        assert ops.fixup(t, ["a.k"]).rows == [(1, 2), (2, None)]

    def test_empty_group_key_is_one_group(self):
        t = T("t", ["a.k", "b.y"], [(1, 2), (1, None), (3, 4)])
        assert ops.fixup(t, []).rows == [(1, 2), (3, 4)]


# ---------------------------------------------------------------------------
# the join kernel against a nested-loop reference
# ---------------------------------------------------------------------------
KERNEL_LEFT = [
    (1, 1, 5), (1, 1, 9), (1, 2, 5), (None, 1, 5), (2, None, 5), (3, 3, 5), (1, 1, 5), (4, 4, None),
]  # fmt: skip
KERNEL_RIGHT = [
    (1, 1, 7), (1, 1, 3), (1, 2, 6), (None, 1, 7), (1, None, 7), (5, 5, 7), (4, 4, 7), (None, None, 1),
]  # fmt: skip
KERNEL_EQUI = [("l.a", "r.a"), ("l.b", "r.b")]


def kernel_residual(row):
    return row[2] is not None and row[2] <= row[5]


def nested_loop(lrows, rrows, kind, match):
    """What a *kind* join of three-column inputs must produce, testing
    ``match(lrow, rrow)`` one pair at a time."""
    out, pad, matched_right = [], (None,) * 3, set()
    for lrow in lrows:
        hits = [j for j, rrow in enumerate(rrows) if match(lrow, rrow)]
        matched_right.update(hits)
        if kind in ("semi", "anti"):
            out += [lrow] if bool(hits) == (kind == "semi") else []
        else:
            out += [lrow + rrows[j] for j in hits]
            if not hits and kind in ("left", "full"):
                out.append(lrow + pad)
    if kind in ("right", "full"):
        out += [pad + rrow for j, rrow in enumerate(rrows) if j not in matched_right]
    return out


@pytest.mark.parametrize("residual", [None, kernel_residual], ids=["equi", "residual"])
@pytest.mark.parametrize("lookup", ["index", "key", "right", "left"])
@pytest.mark.parametrize("kind", ops.JOIN_KINDS)
@pytest.mark.parametrize(
    "lrows, rrows",
    [(KERNEL_LEFT, KERNEL_RIGHT), ([], KERNEL_RIGHT), (KERNEL_LEFT, [])],
    ids=["both", "empty-left", "empty-right"],
)
def test_join_kernel_equals_nested_loop(lrows, rrows, kind, lookup, residual):
    # without an index the kernel hashes the smaller input, the right one on a tie
    if lookup == "left" and lrows and rrows:
        rrows = rrows + [(90, 90, 0)]  # matches nothing; makes the left input the smaller
    if lookup in ("right", "left") and (lookup == "left") != (len(lrows) < len(rrows)):
        pytest.skip("an empty input is never the larger one")
    if lookup == "key":  # a key is held once and never NULL: one row per (a, b)
        rrows = list({row[:2]: row for row in rrows if None not in row[:2]}.values())
    left = T("l", ["l.a", "l.b", "l.x"], lrows)
    right = T("r", ["r.a", "r.b", "r.y"], rrows)
    # column order is a permutation of the equi pairs
    if lookup == "index":
        right.indexes.append(HashIndex(right, ["r.b", "r.a"]))
    elif lookup == "key":
        right.indexes.append(KeyIndex(right, ["r.b", "r.a"]))
    buckets, __, swap, single = ops._lookup(left, right, KERNEL_EQUI)
    assert swap == (lookup == "left") and single == (lookup == "key")
    if lookup in ("index", "key"):
        assert buckets is right.indexes[0].buckets  # probed, not built
    else:
        assert not right.indexes
    out = ops.join(left, right, kind, equi=KERNEL_EQUI, residual=residual)

    def match(lrow, rrow):  # first two columns equal, NULL matching nothing
        keys_equal = all(lrow[p] is not None and lrow[p] == rrow[p] for p in (0, 1))
        return keys_equal and (residual is None or residual(lrow + rrow))

    assert Counter(out.rows) == Counter(nested_loop(lrows, rrows, kind, match))
    width = 3 if kind in ("semi", "anti") else 6
    assert len(out.schema) == width and all(len(row) == width for row in out.rows)


@pytest.mark.parametrize("kind", ops.JOIN_KINDS)
def test_join_without_equi_pairs_tests_every_pair(kind):
    left = T("l", ["l.a", "l.b", "l.x"], KERNEL_LEFT)
    right = T("r", ["r.a", "r.b", "r.y"], KERNEL_RIGHT)

    def theta(row):
        return row[0] is not None and row[3] is not None and row[0] < row[3]

    out = ops.join(left, right, kind, residual=theta)
    expected = nested_loop(KERNEL_LEFT, KERNEL_RIGHT, kind, lambda lrow, rrow: theta(lrow + rrow))
    assert Counter(out.rows) == Counter(expected)


def test_operator_outputs_never_alias_the_input_rows():
    left = T("l", ["l.a", "l.b", "l.x"], KERNEL_LEFT)
    # outputs adopt the list the operator built, which is never the input's
    for out in (ops.select(left, bool), ops.distinct(left), ops.project(left, ["l.a"])):
        assert out.rows is not left.rows


class TestUnionAll:
    def test_concatenates(self):
        a = T("a", ["x.k"], [(1,)])
        b = T("b", ["x.k"], [(2,)])
        assert ops.union_all(a, b).rows == [(1,), (2,)]

    def test_realigns_columns(self):
        a = T("a", ["x.k", "x.v"], [(1, "a")])
        b = T("b", ["x.v", "x.k"], [("b", 2)])
        assert ops.union_all(a, b).rows == [(1, "a"), (2, "b")]

    def test_mismatched_columns_raise(self):
        a = T("a", ["x.k"], [])
        b = T("b", ["x.other"], [])
        with pytest.raises(SchemaError):
            ops.union_all(a, b)
