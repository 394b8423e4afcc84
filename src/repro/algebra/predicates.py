"""Symbolic predicates over qualified columns.

The maintenance algorithm reasons *about* predicates — which tables they
reference, whether they are null-rejecting, how a term predicate splits
into the pieces ``q(R)``, ``q(T)``, ``q(S,R,T)`` of Section 5.3 — so
predicates are represented as a small immutable AST rather than as opaque
callables.  :func:`compile_predicate` turns an AST into a fast row-level
closure for the engine (three-valued logic collapses UNKNOWN to False at
that boundary, as SQL's WHERE/ON clauses do).

Paper restriction: all selection and join predicates of a view must be
**null-rejecting** (strong) — false as soon as any referenced column is
NULL.  :meth:`Predicate.null_rejecting_tables` computes the set of tables
for which this is guaranteed.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import ExpressionError
from ..engine.schema import Schema, split_qualified

# ---------------------------------------------------------------------------
# operands
# ---------------------------------------------------------------------------


class Operand:
    """A scalar operand: a column reference or a literal."""

    __slots__ = ()

    def tables(self) -> FrozenSet[str]:
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        raise NotImplementedError


class Col(Operand):
    """A reference to qualified column ``table.column``."""

    __slots__ = ("table", "column")

    def __init__(self, qualified: str):
        table, column = split_qualified(qualified)
        self.table = table
        self.column = column

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}"

    def tables(self) -> FrozenSet[str]:
        return frozenset((self.table,))

    def columns(self) -> FrozenSet[str]:
        return frozenset((self.qualified,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Col) and self.qualified == other.qualified

    def __hash__(self) -> int:
        return hash(("Col", self.qualified))

    def __repr__(self) -> str:
        return self.qualified


class Lit(Operand):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def tables(self) -> FrozenSet[str]:
        return frozenset()

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lit) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Lit", self.value))

    def __repr__(self) -> str:
        return repr(self.value)


class Arith(Operand):
    """An arithmetic operand: ``left op right`` with NULL propagation
    (any NULL input makes the whole expression NULL, as in SQL)."""

    __slots__ = ("left", "op", "right")

    _FUNCS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b if b != 0 else None,
    }

    def __init__(self, left, op: str, right):
        if op not in self._FUNCS:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.left = as_operand(left)
        self.op = op
        self.right = as_operand(right)

    def tables(self) -> FrozenSet[str]:
        return self.left.tables() | self.right.tables()

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Arith)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("Arith", self.left, self.op, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def operand_value(operand: Operand, get):
    """Evaluate an operand against a row accessor; NULL-propagating."""
    if isinstance(operand, Col):
        return get(operand.qualified)
    if isinstance(operand, Lit):
        return operand.value
    if isinstance(operand, Arith):
        left = operand_value(operand.left, get)
        right = operand_value(operand.right, get)
        if left is None or right is None:
            return None
        return Arith._FUNCS[operand.op](left, right)
    raise ExpressionError(f"cannot evaluate operand {operand!r}")


def as_operand(value) -> Operand:
    """Coerce a raw value into an operand: strings containing a dot become
    column references, everything else a literal.  Use :class:`Lit`
    explicitly for string literals that contain dots."""
    if isinstance(value, Operand):
        return value
    if isinstance(value, str) and "." in value:
        return Col(value)
    return Lit(value)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

_UNKNOWN = None  # three-valued logic: True / False / None


class Predicate:
    """Base class of the predicate AST (immutable, structural equality)."""

    __slots__ = ()

    def tables(self) -> FrozenSet[str]:
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        raise NotImplementedError

    def eval3(self, get: Callable[[str], object]):
        """Three-valued evaluation; *get* maps a qualified column name to
        its value in the current row."""
        raise NotImplementedError

    def null_rejecting_tables(self) -> FrozenSet[str]:
        """Tables T such that the predicate is guaranteed False whenever
        any referenced column of T is NULL."""
        raise NotImplementedError

    def is_null_rejecting(self) -> bool:
        """Null-rejecting on *every* table it references (the paper's
        standing restriction on view predicates)."""
        return self.tables() <= self.null_rejecting_tables()

    # conjunction composition -------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return conjoin([self, other])


class TruePred(Predicate):
    """The always-true predicate (empty conjunction)."""

    __slots__ = ()

    def tables(self) -> FrozenSet[str]:
        return frozenset()

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def eval3(self, get):
        return True

    def null_rejecting_tables(self) -> FrozenSet[str]:
        return frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePred)

    def __hash__(self) -> int:
        return hash("TruePred")

    def __repr__(self) -> str:
        return "TRUE"


_OPS: dict = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Comparison(Predicate):
    """``left op right`` with SQL semantics (UNKNOWN on NULL operands)."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left, op: str, right):
        if op not in _OPS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.left = as_operand(left)
        self.op = op
        self.right = as_operand(right)

    def tables(self) -> FrozenSet[str]:
        return self.left.tables() | self.right.tables()

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def eval3(self, get):
        lval = operand_value(self.left, get)
        rval = operand_value(self.right, get)
        if lval is None or rval is None:
            return _UNKNOWN
        return _OPS[self.op](lval, rval)

    def null_rejecting_tables(self) -> FrozenSet[str]:
        return self.tables()

    def is_equijoin(self) -> bool:
        return (
            self.op == "="
            and isinstance(self.left, Col)
            and isinstance(self.right, Col)
            and self.left.table != self.right.table
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("Comparison", self.left, self.op, self.right))

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


class IsNull(Predicate):
    """``col IS NULL`` — definite (never UNKNOWN), not null-rejecting."""

    __slots__ = ("col",)

    def __init__(self, col):
        self.col = col if isinstance(col, Col) else Col(col)

    def tables(self) -> FrozenSet[str]:
        return self.col.tables()

    def columns(self) -> FrozenSet[str]:
        return self.col.columns()

    def eval3(self, get):
        return get(self.col.qualified) is None

    def null_rejecting_tables(self) -> FrozenSet[str]:
        return frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IsNull) and self.col == other.col

    def __hash__(self) -> int:
        return hash(("IsNull", self.col))

    def __repr__(self) -> str:
        return f"{self.col!r} IS NULL"


class NotNull(Predicate):
    """``col IS NOT NULL`` — definite, null-rejecting on its table."""

    __slots__ = ("col",)

    def __init__(self, col):
        self.col = col if isinstance(col, Col) else Col(col)

    def tables(self) -> FrozenSet[str]:
        return self.col.tables()

    def columns(self) -> FrozenSet[str]:
        return self.col.columns()

    def eval3(self, get):
        return get(self.col.qualified) is not None

    def null_rejecting_tables(self) -> FrozenSet[str]:
        return self.col.tables()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NotNull) and self.col == other.col

    def __hash__(self) -> int:
        return hash(("NotNull", self.col))

    def __repr__(self) -> str:
        return f"{self.col!r} IS NOT NULL"


class And(Predicate):
    """Conjunction; UNKNOWN ∧ False = False (Kleene logic)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Predicate]):
        flat: List[Predicate] = []
        for part in parts:
            if isinstance(part, And):
                flat.extend(part.parts)
            elif isinstance(part, TruePred):
                continue
            else:
                flat.append(part)
        self.parts: Tuple[Predicate, ...] = tuple(flat)

    def tables(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for part in self.parts:
            out |= part.tables()
        return out

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for part in self.parts:
            out |= part.columns()
        return out

    def eval3(self, get):
        saw_unknown = False
        for part in self.parts:
            value = part.eval3(get)
            if value is False:
                return False
            if value is _UNKNOWN:
                saw_unknown = True
        return _UNKNOWN if saw_unknown else True

    def null_rejecting_tables(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for part in self.parts:
            out |= part.null_rejecting_tables()
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and set(self.parts) == set(other.parts)

    def __hash__(self) -> int:
        return hash(("And", frozenset(self.parts)))

    def __repr__(self) -> str:
        return " AND ".join(f"({p!r})" for p in self.parts) or "TRUE"


class Or(Predicate):
    """Disjunction; null-rejecting on T only if every disjunct is."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Predicate]):
        flat: List[Predicate] = []
        for part in parts:
            if isinstance(part, Or):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            raise ExpressionError("empty OR")
        self.parts: Tuple[Predicate, ...] = tuple(flat)

    def tables(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for part in self.parts:
            out |= part.tables()
        return out

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for part in self.parts:
            out |= part.columns()
        return out

    def eval3(self, get):
        saw_unknown = False
        for part in self.parts:
            value = part.eval3(get)
            if value is True:
                return True
            if value is _UNKNOWN:
                saw_unknown = True
        return _UNKNOWN if saw_unknown else False

    def null_rejecting_tables(self) -> FrozenSet[str]:
        out: Optional[FrozenSet[str]] = None
        for part in self.parts:
            nrt = part.null_rejecting_tables()
            out = nrt if out is None else (out & nrt)
        return out or frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and set(self.parts) == set(other.parts)

    def __hash__(self) -> int:
        return hash(("Or", frozenset(self.parts)))

    def __repr__(self) -> str:
        return " OR ".join(f"({p!r})" for p in self.parts)


class Not(Predicate):
    """Negation (Kleene: NOT UNKNOWN = UNKNOWN).

    Conservative analysis: we never claim null-rejection for a negation —
    a sound under-approximation, sufficient because negations only appear
    inside internally generated null-if predicates, never in views.
    """

    __slots__ = ("pred",)

    def __init__(self, pred: Predicate):
        self.pred = pred

    def tables(self) -> FrozenSet[str]:
        return self.pred.tables()

    def columns(self) -> FrozenSet[str]:
        return self.pred.columns()

    def eval3(self, get):
        value = self.pred.eval3(get)
        if value is _UNKNOWN:
            return _UNKNOWN
        return not value

    def null_rejecting_tables(self) -> FrozenSet[str]:
        return frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.pred == other.pred

    def __hash__(self) -> int:
        return hash(("Not", self.pred))

    def __repr__(self) -> str:
        return f"NOT ({self.pred!r})"


class NotTrue(Predicate):
    """``pred IS NOT TRUE`` — definite negation (UNKNOWN counts as "not
    true").

    This is the correct guard for the null-if operator of Section 4.1: a
    joined row whose inner predicate evaluates to UNKNOWN (because of a
    NULL in a non-key column) must be null-extended just like a row where
    the predicate is plainly false.  Kleene ``NOT`` would leave it alone.
    """

    __slots__ = ("pred",)

    def __init__(self, pred: Predicate):
        self.pred = pred

    def tables(self) -> FrozenSet[str]:
        return self.pred.tables()

    def columns(self) -> FrozenSet[str]:
        return self.pred.columns()

    def eval3(self, get):
        return self.pred.eval3(get) is not True

    def null_rejecting_tables(self) -> FrozenSet[str]:
        return frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NotTrue) and self.pred == other.pred

    def __hash__(self) -> int:
        return hash(("NotTrue", self.pred))

    def __repr__(self) -> str:
        return f"({self.pred!r}) IS NOT TRUE"


# ---------------------------------------------------------------------------
# constructors and helpers
# ---------------------------------------------------------------------------
def eq(left, right) -> Comparison:
    """Convenience: ``left = right``."""
    return Comparison(left, "=", right)


def conjoin(parts: Iterable[Predicate]) -> Predicate:
    """Combine predicates into a (flattened) conjunction; empty → TRUE."""
    flat = And(parts).parts
    if not flat:
        return TruePred()
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def conjuncts(pred: Predicate) -> Tuple[Predicate, ...]:
    """Flatten a predicate into its top-level conjuncts."""
    if isinstance(pred, And):
        return pred.parts
    if isinstance(pred, TruePred):
        return ()
    return (pred,)


def equijoin_pairs(
    pred: Predicate, left_tables: FrozenSet[str], right_tables: FrozenSet[str]
) -> Tuple[List[Tuple[str, str]], List[Predicate]]:
    """Split *pred* into hash-joinable equi pairs and residual conjuncts.

    Returns ``(pairs, residual)`` where each pair is ``(left_col,
    right_col)`` with the left column from *left_tables* and the right from
    *right_tables*.  Conjuncts that are not such comparisons go into the
    residual list.
    """
    pairs: List[Tuple[str, str]] = []
    residual: List[Predicate] = []
    for part in conjuncts(pred):
        if isinstance(part, Comparison) and part.is_equijoin():
            lcol, rcol = part.left, part.right
            if lcol.table in left_tables and rcol.table in right_tables:
                pairs.append((lcol.qualified, rcol.qualified))
                continue
            if rcol.table in left_tables and lcol.table in right_tables:
                pairs.append((rcol.qualified, lcol.qualified))
                continue
        residual.append(part)
    return pairs, residual


_PY_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def predicate_source(pred: Predicate, schema: Schema) -> Tuple[str, dict]:
    """Render *pred* as one Python expression over ``row`` for *schema*.

    Returns ``(source, names)``: the source holds only ``row[p]`` reads,
    operators and names; every literal (and every generic evaluator, for
    the shapes below that need one) is bound in *names*, the namespace
    the source is evaluated in — a value never becomes source text.
    The expression is true exactly when ``pred.eval3`` is ``True``: an
    absent column reads as NULL and a NULL operand makes a comparison
    false.  ``AND`` / ``OR`` / ``IS NOT TRUE`` preserve that collapse;
    arithmetic operands and Kleene ``NOT`` (which must tell FALSE from
    UNKNOWN) call the three-valued evaluator on their own sub-tree.
    """
    names: dict = {}

    def bind(value) -> str:
        name = f"_v{len(names)}"
        names[name] = value
        return name

    def read(col: Col) -> Optional[str]:
        name = col.qualified
        return f"row[{schema.index_of(name)}]" if name in schema else None

    def render(node: Predicate) -> str:
        if isinstance(node, TruePred):
            return "True"
        if isinstance(node, (IsNull, NotNull)):
            ref = read(node.col)
            if isinstance(node, IsNull):
                return "True" if ref is None else f"({ref} is None)"
            return "False" if ref is None else f"({ref} is not None)"
        if isinstance(node, Comparison) and all(
            isinstance(side, (Col, Lit)) for side in (node.left, node.right)
        ):
            terms: List[str] = []
            guards: List[str] = []
            for side in (node.left, node.right):
                if isinstance(side, Col):
                    ref = read(side)
                    if ref is not None:
                        guards.append(f"{ref} is not None")
                elif side.value is None:
                    ref = None
                else:
                    ref = bind(side.value)
                if ref is None:
                    return "False"  # NULL operand: UNKNOWN, never true
                terms.append(ref)
            test = f"{terms[0]} {_PY_OPS[node.op]} {terms[1]}"
            return "(" + " and ".join(guards + [test]) + ")"
        if isinstance(node, And):
            if not node.parts:
                return "True"
            return "(" + " and ".join(map(render, node.parts)) + ")"
        if isinstance(node, Or):
            return "(" + " or ".join(map(render, node.parts)) + ")"
        if isinstance(node, NotTrue):
            return f"(not {render(node.pred)})"
        return f"{bind(_eval3_is_true(node, schema))}(row)"

    try:
        return render(pred), names
    finally:
        del render  # a recursive closure is a reference cycle


def compile_predicate(pred: Predicate, schema: Schema) -> Callable:
    """Compile a predicate AST into ``row -> bool`` for *schema*.

    UNKNOWN collapses to False, matching SQL's WHERE/ON filtering.
    Columns referenced by the predicate but absent from *schema* evaluate
    as NULL — this is deliberate: term-extraction predicates mention every
    view table, while a delta may not carry all of them.

    The whole tree becomes one expression (:func:`predicate_source`),
    evaluated once into a single function: a row costs one call however
    many conjuncts the predicate has.
    """
    source, names = predicate_source(pred, schema)
    names["__builtins__"] = {}
    return eval(f"lambda row: {source}", names)


def _eval3_is_true(pred: Predicate, schema: Schema) -> Callable:
    """``row -> (pred.eval3(row) is True)`` through the generic
    three-valued evaluator, column positions resolved once."""
    positions = {
        col: schema.index_of(col) if col in schema else None
        for col in pred.columns()
    }

    def run(row) -> bool:
        def get(name: str):
            pos = positions[name]
            return None if pos is None else row[pos]

        return pred.eval3(get) is True

    return run
