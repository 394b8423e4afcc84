"""Property-based tests (hypothesis) for the engine's algebraic laws:
the Section 2.1 identities the whole maintenance derivation rests on —
and for the storage contract the catalog's DML keeps underneath them."""

from hypothesis import given, settings, strategies as st

from repro.engine import Database
from repro.engine import operators as ops
from repro.engine.schema import Schema
from repro.engine.table import Table

from ..engine.test_index import assert_indexes_exact


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
def value():
    return st.one_of(st.none(), st.integers(min_value=0, max_value=3))


def keyed_rows(width: int, max_rows: int = 8):
    """Rows (k, v1..v_{width-1}) with unique non-null keys."""
    return st.lists(
        st.tuples(*([value()] * (width - 1))),
        max_size=max_rows,
    ).map(lambda vs: [(i,) + v for i, v in enumerate(vs)])


def padded_rows(columns, max_rows: int = 8):
    """Rows over *columns* with arbitrary NULLs (for ⊎/↓/⊕ laws)."""
    return st.lists(
        st.tuples(*([value()] * len(columns))), max_size=max_rows
    )


AB = ("x.a", "x.b")
ABC = ("x.a", "x.b", "x.c")


def table(name, columns, rows):
    return Table(name, Schema(columns), rows)


# ---------------------------------------------------------------------------
# minimum union laws
# ---------------------------------------------------------------------------
@given(padded_rows(ABC), padded_rows(ABC))
@settings(max_examples=120, deadline=None)
def test_minimum_union_commutative(rows_a, rows_b):
    a = table("a", ABC, rows_a)
    b = table("b", ABC, rows_b)
    ab = ops.minimum_union(a, b)
    ba = ops.minimum_union(b, a)
    assert set(ab.rows) == set(
        ops.align_to_schema(ba, ab.schema)
    )


@given(padded_rows(ABC, 5), padded_rows(ABC, 5), padded_rows(ABC, 5))
@settings(max_examples=80, deadline=None)
def test_minimum_union_associative(rows_a, rows_b, rows_c):
    a = table("a", ABC, rows_a)
    b = table("b", ABC, rows_b)
    c = table("c", ABC, rows_c)
    left = ops.minimum_union(ops.minimum_union(a, b), c)
    right = ops.minimum_union(a, ops.minimum_union(b, c))
    assert set(left.rows) == set(ops.align_to_schema(right, left.schema))


@given(padded_rows(ABC))
@settings(max_examples=80, deadline=None)
def test_minimum_union_idempotent(rows):
    a = table("a", ABC, rows)
    out = ops.minimum_union(a, a)
    # a ⊕ a = a↓ without duplicates
    expected = ops.distinct(ops.remove_subsumed(a))
    assert set(out.rows) == set(expected.rows)


@given(padded_rows(ABC))
@settings(max_examples=80, deadline=None)
def test_remove_subsumed_idempotent(rows):
    a = table("a", ABC, rows)
    once = ops.remove_subsumed(a)
    twice = ops.remove_subsumed(once)
    assert sorted(once.rows, key=repr) == sorted(twice.rows, key=repr)


@given(padded_rows(ABC))
@settings(max_examples=80, deadline=None)
def test_remove_subsumed_result_has_no_subsumption(rows):
    a = table("a", ABC, rows)
    out = ops.remove_subsumed(a)

    def subsumes(t1, t2):
        fewer = sum(v is None for v in t1) < sum(v is None for v in t2)
        agrees = all(
            b is None or a == b for a, b in zip(t1, t2)
        )
        return fewer and agrees

    for r1 in out.rows:
        for r2 in out.rows:
            assert not subsumes(r1, r2)


# ---------------------------------------------------------------------------
# outer joins ≡ their ⊕-definitions
# ---------------------------------------------------------------------------
def _join_fixture(rows_l, rows_r):
    left = Table("l", Schema(["l.k", "l.v"]), rows_l, key=["l.k"])
    right = Table("r", Schema(["r.k", "r.v"]), rows_r, key=["r.k"])
    equi = [("l.v", "r.v")]
    inner = ops.join(left, right, "inner", equi=equi)
    return left, right, equi, inner


@given(keyed_rows(2), keyed_rows(2))
@settings(max_examples=120, deadline=None)
def test_left_outer_join_definition(rows_l, rows_r):
    """T1 ⟕ T2 = (T1 ⋈ T2) ⊕ T1."""
    left, right, equi, inner = _join_fixture(rows_l, rows_r)
    direct = ops.join(left, right, "left", equi=equi)
    via = ops.minimum_union(inner, left)
    assert set(ops.align_to_schema(direct, via.schema)) == set(via.rows)


@given(keyed_rows(2), keyed_rows(2))
@settings(max_examples=120, deadline=None)
def test_right_outer_join_definition(rows_l, rows_r):
    """T1 ⟖ T2 = (T1 ⋈ T2) ⊕ T2."""
    left, right, equi, inner = _join_fixture(rows_l, rows_r)
    direct = ops.join(left, right, "right", equi=equi)
    via = ops.minimum_union(inner, right)
    assert set(ops.align_to_schema(direct, via.schema)) == set(
        ops.align_to_schema(via, via.schema)
    )


@given(keyed_rows(2), keyed_rows(2))
@settings(max_examples=120, deadline=None)
def test_full_outer_join_definition(rows_l, rows_r):
    """T1 ⟗ T2 = (T1 ⋈ T2) ⊕ T1 ⊕ T2."""
    left, right, equi, inner = _join_fixture(rows_l, rows_r)
    direct = ops.join(left, right, "full", equi=equi)
    via = ops.minimum_union(ops.minimum_union(inner, left), right)
    assert set(ops.align_to_schema(direct, via.schema)) == set(via.rows)


@given(keyed_rows(2), keyed_rows(2))
@settings(max_examples=120, deadline=None)
def test_semijoin_antijoin_partition(rows_l, rows_r):
    """⋉ˡˢ and ⋉ˡᵃ partition the left input (Section 2.1)."""
    left = Table("l", Schema(["l.k", "l.v"]), rows_l, key=["l.k"])
    right = Table("r", Schema(["r.k", "r.v"]), rows_r, key=["r.k"])
    equi = [("l.v", "r.v")]
    semi = ops.join(left, right, "semi", equi=equi)
    anti = ops.join(left, right, "anti", equi=equi)
    assert set(semi.rows) | set(anti.rows) == set(left.rows)
    assert not set(semi.rows) & set(anti.rows)


@given(keyed_rows(3), keyed_rows(3))
@settings(max_examples=80, deadline=None)
def test_outer_union_counts(rows_l, rows_r):
    left = Table("l", Schema(["l.k", "l.a", "l.b"]), rows_l)
    right = Table("r", Schema(["r.k", "r.a", "r.b"]), rows_r)
    out = ops.outer_union(left, right)
    assert len(out.rows) == len(left.rows) + len(right.rows)
    assert len(out.schema) == 6


# ---------------------------------------------------------------------------
# base-table DML: swap-remove storage, incrementally maintained indexes
# ---------------------------------------------------------------------------
def dml_steps():
    small = st.integers(min_value=0, max_value=3)
    row = st.tuples(small, small, value(), st.sampled_from("xxxy"))
    op = st.sampled_from(("insert", "delete", "delete_by_key"))
    return st.lists(st.tuples(op, st.lists(row, max_size=6)), max_size=12)


@given(dml_steps())
@settings(max_examples=150, deadline=None)
def test_dml_interleavings_keep_indexes_exact(steps):
    db = Database()
    db.create_table("t", ["a", "b", "n", "s"], key=["a", "b"])
    db.create_index("t", ["n"])
    db.create_index("t", ["s"])
    table = db.table("t")
    row_list = table.rows
    live = {}
    for op, rows in steps:
        rows = {row[:2]: row for row in rows}  # one candidate per key
        if op == "insert":
            fresh = {k: row for k, row in rows.items() if k not in live}
            assert db.insert("t", fresh.values()).rows == list(fresh.values())
            live.update(fresh)
        elif op == "delete":  # unchecked: absent rows are skipped
            hit = [row for k, row in rows.items() if live.get(k) == row]
            assert db.delete("t", rows.values(), check=False).rows == hit
            for row in hit:
                del live[row[:2]]
        else:
            hit = [live.pop(k) for k in rows if k in live]
            assert db.delete_by_key("t", rows).rows == hit
        assert table.rows is row_list
        assert sorted(table.rows, key=repr) == sorted(live.values(), key=repr)
        assert_indexes_exact(table)
