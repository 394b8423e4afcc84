"""Unit tests for the predicate AST: three-valued evaluation,
null-rejection analysis, conjunct handling, compilation."""

import random
import re
from datetime import date

import pytest

from repro.algebra.predicates import (
    _OPS,
    And,
    Arith,
    Col,
    Comparison,
    IsNull,
    Lit,
    Not,
    NotNull,
    NotTrue,
    Or,
    TruePred,
    as_operand,
    compile_predicate,
    conjoin,
    conjuncts,
    eq,
    equijoin_pairs,
    predicate_source,
)
from repro.engine.schema import Schema
from repro.errors import ExpressionError


def ev(pred, **values):
    """Evaluate with a dict environment; missing columns are NULL."""
    return pred.eval3(lambda name: values.get(name))


class TestOperands:
    def test_col_parsing(self):
        c = Col("orders.o_orderkey")
        assert c.table == "orders"
        assert c.column == "o_orderkey"
        assert c.qualified == "orders.o_orderkey"

    def test_as_operand_dotted_string_is_column(self):
        assert isinstance(as_operand("t.a"), Col)

    def test_as_operand_plain_value_is_literal(self):
        assert isinstance(as_operand(42), Lit)
        assert isinstance(as_operand("nodot"), Lit)

    def test_lit_equality(self):
        assert Lit(1) == Lit(1)
        assert Lit(1) != Lit(2)


class TestComparison:
    def test_true_false(self):
        p = Comparison("t.a", "<", "u.b")
        assert ev(p, **{"t.a": 1, "u.b": 2}) is True
        assert ev(p, **{"t.a": 3, "u.b": 2}) is False

    def test_null_gives_unknown(self):
        p = eq("t.a", "u.b")
        assert ev(p, **{"t.a": None, "u.b": 2}) is None
        assert ev(p, **{"t.a": 2}) is None

    def test_null_equals_null_is_unknown(self):
        assert ev(eq("t.a", "u.b")) is None

    def test_literal_comparison(self):
        p = Comparison("t.a", ">=", 10)
        assert ev(p, **{"t.a": 10}) is True

    def test_tables_and_columns(self):
        p = eq("t.a", "u.b")
        assert p.tables() == {"t", "u"}
        assert p.columns() == {"t.a", "u.b"}

    def test_null_rejecting_on_referenced_tables(self):
        p = eq("t.a", "u.b")
        assert p.null_rejecting_tables() == {"t", "u"}
        assert p.is_null_rejecting()

    def test_is_equijoin(self):
        assert eq("t.a", "u.b").is_equijoin()
        assert not eq("t.a", "t.b").is_equijoin()  # same table
        assert not Comparison("t.a", "<", "u.b").is_equijoin()
        assert not eq("t.a", 5).is_equijoin()

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison("t.a", "~", "u.b")

    def test_structural_equality(self):
        assert eq("t.a", "u.b") == eq("t.a", "u.b")
        assert eq("t.a", "u.b") != eq("u.b", "t.a")
        assert hash(eq("t.a", 1)) == hash(eq("t.a", 1))


class TestNullProbes:
    def test_is_null(self):
        p = IsNull("t.a")
        assert ev(p) is True
        assert ev(p, **{"t.a": 0}) is False

    def test_not_null(self):
        p = NotNull("t.a")
        assert ev(p) is False
        assert ev(p, **{"t.a": 0}) is True

    def test_is_null_not_null_rejecting(self):
        assert IsNull("t.a").null_rejecting_tables() == frozenset()

    def test_not_null_is_null_rejecting(self):
        assert NotNull("t.a").null_rejecting_tables() == {"t"}


class TestBooleanConnectives:
    def test_and_kleene(self):
        p = And([eq("t.a", 1), eq("u.b", 2)])
        assert ev(p, **{"t.a": 1, "u.b": 2}) is True
        assert ev(p, **{"t.a": 0, "u.b": 2}) is False
        assert ev(p, **{"u.b": 2}) is None  # UNKNOWN ∧ TRUE
        assert ev(p, **{"u.b": 3}) is False  # UNKNOWN ∧ FALSE = FALSE

    def test_or_kleene(self):
        p = Or([eq("t.a", 1), eq("u.b", 2)])
        assert ev(p, **{"t.a": 1}) is True  # TRUE ∨ UNKNOWN
        assert ev(p, **{"t.a": 0, "u.b": 3}) is False
        assert ev(p, **{"t.a": 0}) is None

    def test_not_kleene(self):
        p = Not(eq("t.a", 1))
        assert ev(p, **{"t.a": 2}) is True
        assert ev(p, **{"t.a": 1}) is False
        assert ev(p) is None

    def test_not_true_is_definite(self):
        p = NotTrue(eq("t.a", 1))
        assert ev(p, **{"t.a": 2}) is True
        assert ev(p) is True  # UNKNOWN counts as "not true"
        assert ev(p, **{"t.a": 1}) is False

    def test_and_flattens(self):
        p = And([And([eq("t.a", 1), eq("t.b", 2)]), eq("u.c", 3)])
        assert len(p.parts) == 3

    def test_and_null_rejection_is_union(self):
        p = And([eq("t.a", 1), eq("u.b", 2)])
        assert p.null_rejecting_tables() == {"t", "u"}

    def test_or_null_rejection_is_intersection(self):
        p = Or([eq("t.a", "u.b"), eq("t.a", 1)])
        assert p.null_rejecting_tables() == {"t"}

    def test_or_with_isnull_branch_rejects_nothing(self):
        p = Or([eq("t.a", 1), IsNull("t.a")])
        assert p.null_rejecting_tables() == frozenset()

    def test_not_conservatively_rejects_nothing(self):
        assert Not(eq("t.a", 1)).null_rejecting_tables() == frozenset()

    def test_empty_or_rejected(self):
        with pytest.raises(ExpressionError):
            Or([])


class TestConjunction:
    def test_conjoin_empty_is_true(self):
        assert isinstance(conjoin([]), TruePred)

    def test_conjoin_single_passthrough(self):
        p = eq("t.a", 1)
        assert conjoin([p]) is p

    def test_conjoin_many(self):
        p = conjoin([eq("t.a", 1), eq("t.b", 2)])
        assert isinstance(p, And)

    def test_conjuncts_flatten(self):
        p = conjoin([eq("t.a", 1), eq("t.b", 2)])
        assert len(conjuncts(p)) == 2

    def test_conjuncts_of_simple(self):
        p = eq("t.a", 1)
        assert conjuncts(p) == (p,)

    def test_conjuncts_of_true_empty(self):
        assert conjuncts(TruePred()) == ()

    def test_and_operator(self):
        p = eq("t.a", 1) & eq("t.b", 2)
        assert isinstance(p, And)


class TestEquijoinPairs:
    def test_simple_split(self):
        pred = conjoin([eq("t.a", "u.b"), Comparison("t.a", "<", 5)])
        pairs, residual = equijoin_pairs(pred, frozenset("t"), frozenset("u"))
        assert pairs == [("t.a", "u.b")]
        assert len(residual) == 1

    def test_reversed_columns_normalized(self):
        pairs, __ = equijoin_pairs(
            eq("u.b", "t.a"), frozenset("t"), frozenset("u")
        )
        assert pairs == [("t.a", "u.b")]

    def test_cross_side_mismatch_goes_residual(self):
        pairs, residual = equijoin_pairs(
            eq("x.a", "y.b"), frozenset("t"), frozenset("u")
        )
        assert pairs == []
        assert len(residual) == 1


class TestCompile:
    def test_compile_basic(self):
        schema = Schema(["t.a", "u.b"])
        run = compile_predicate(eq("t.a", "u.b"), schema)
        assert run((1, 1)) is True
        assert run((1, 2)) is False

    def test_unknown_collapses_to_false(self):
        schema = Schema(["t.a", "u.b"])
        run = compile_predicate(eq("t.a", "u.b"), schema)
        assert run((None, 1)) is False

    def test_missing_columns_read_as_null(self):
        # Term-extraction predicates mention every view table; a delta may
        # not carry all of them.
        schema = Schema(["t.a"])
        assert compile_predicate(IsNull("zz.c"), schema)((1,)) is True
        assert compile_predicate(NotNull("zz.c"), schema)((1,)) is False

    def test_compiled_not_true(self):
        schema = Schema(["t.a"])
        run = compile_predicate(NotTrue(eq("t.a", 1)), schema)
        assert run((None,)) is True
        assert run((1,)) is False


# ---------------------------------------------------------------------------
# compiled ≡ three-valued evaluator, and literals never become source
# ---------------------------------------------------------------------------
HOSTILE = ["'); import os; ('", "line\nbreak", float("nan"), None, date(1994, 6, 1)]
# column -> the literals it can be *ordered* against (same type family);
# ``=`` / ``<>`` take any literal.  ``z.*`` are absent from the schema.
ORDERABLE = {
    "a.n": [0, 2.5, float("nan"), None],
    "b.m": [1, -1.0, float("nan"), None],
    "z.n": [3, None],
    "a.s": ["m", "'); import os; ('", "line\nbreak", None],
    "z.s": ["m", None],
    "b.d": [date(1994, 6, 1), date(1995, 1, 1), None],
}
NUMERIC = ["a.n", "b.m", "z.n"]
FAMILIES = [NUMERIC, ["a.s", "z.s"], ["b.d"]]
PRESENT = Schema(["a.n", "a.s", "b.d", "b.m"])
TOKEN = re.compile(
    r"(row\[\d+\]|_v\d+|\(row\)|and|or|not|is|None|True|False|==|!=|<=|>=|<|>|\(|\)|\s)*"
)


def random_leaf(rng):
    shape = rng.randrange(7)
    column = rng.choice(sorted(ORDERABLE))
    if shape == 0:
        return rng.choice([IsNull, NotNull])(column)
    if shape == 1:
        return TruePred()
    if shape == 2:  # col/col, same family so every operator is defined
        (family,) = [f for f in FAMILIES if column in f]
        return Comparison(Col(column), rng.choice(sorted(_OPS)), Col(rng.choice(family)))
    if shape == 3:  # (in)equality against any literal, hostile ones included
        sides = [Col(column), Lit(rng.choice(HOSTILE + [7, "m"]))]
        rng.shuffle(sides)
        return Comparison(sides[0], rng.choice(["=", "<>"]), sides[1])
    if shape == 4:  # arithmetic operand: the generic evaluator's business
        left = Arith(Col(rng.choice(NUMERIC)), rng.choice("+-*/"), Col(rng.choice(NUMERIC)))
        return Comparison(left, rng.choice(sorted(_OPS)), Lit(rng.choice([0, 4, None])))
    sides = [Col(column), Lit(rng.choice(ORDERABLE[column]))]
    rng.shuffle(sides)
    return Comparison(sides[0], rng.choice(sorted(_OPS)), sides[1])


def random_predicate(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return random_leaf(rng)
    shape = rng.randrange(4)
    if shape == 0:
        return NotTrue(random_predicate(rng, depth - 1))
    if shape == 1:
        return Not(random_predicate(rng, depth - 1))
    parts = [random_predicate(rng, depth - 1) for __ in range(rng.randint(1, 3))]
    return And(parts) if shape == 2 else Or(parts)


def random_rows(rng, count):
    numbers = [None, 0, 1, 2.5, -1.0, 3, float("nan")]
    strings = [None, "m", "a", "'); import os; ('", "line\nbreak"]
    dates = [None, date(1994, 6, 1), date(1994, 12, 31), date(1996, 2, 29)]
    return [
        (rng.choice(numbers), rng.choice(strings), rng.choice(dates), rng.choice(numbers))
        for __ in range(count)
    ]


class TestCompiledEqualsEval3:
    def test_random_predicates_three_deep(self):
        rng = random.Random(20070415)
        rows = random_rows(rng, 40)
        for __ in range(400):
            pred = random_predicate(rng, 3)
            run = compile_predicate(pred, PRESENT)
            for row in rows:
                values = dict(zip(PRESENT.columns, row))
                assert run(row) == (pred.eval3(values.get) is True), (pred, row)

    def test_source_holds_no_literal(self):
        rng = random.Random(7)
        for __ in range(400):
            pred = random_predicate(rng, 3)
            source, names = predicate_source(pred, PRESENT)
            assert TOKEN.fullmatch(source), source
            for value in names.values():  # what is bound is data, or a callable
                assert callable(value) or value is not None

    def test_hostile_literal_is_bound_by_name(self):
        pred = And([eq("a.s", Lit(HOSTILE[0])), Comparison("a.n", "<", Lit(float("nan")))])
        source, names = predicate_source(pred, PRESENT)
        assert source == "((row[1] is not None and row[1] == _v0) and (row[0] is not None and row[0] < _v1))"
        assert names["_v0"] is HOSTILE[0]
        assert "import" not in source and "nan" not in source
        run = compile_predicate(pred, PRESENT)
        assert run((1, HOSTILE[0], None, None)) is False  # 1 < nan
        assert compile_predicate(eq("a.s", Lit(HOSTILE[0])), PRESENT)((1, HOSTILE[0], None, None))

    def test_kleene_not_and_arithmetic_keep_the_generic_evaluator(self):
        pred = And([Not(eq("a.n", 1)), Comparison(Arith("a.n", "+", "b.m"), ">", 2)])
        source, names = predicate_source(pred, PRESENT)
        assert source == "(_v0(row) and _v1(row))"
        run = compile_predicate(pred, PRESENT)
        assert run((2, None, None, 1)) is True
        assert run((None, None, None, 1)) is False  # NOT UNKNOWN is UNKNOWN
        assert run((1, None, None, 5)) is False
