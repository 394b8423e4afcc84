"""The physical plan compiler.

:func:`compile_plan` turns a logical :class:`~repro.algebra.expr.RelExpr`
into a :class:`CompiledPlan` — a tree of physical nodes whose schemas,
predicate closures, equi-join pairs and column positions were all resolved
**once**, at compile time.  Executing the plan does no planning work at
all: each node is a pre-bound pipeline step calling straight into
:mod:`repro.engine.operators`.

This matters because maintenance evaluates the *same* ΔV^D expression for
every update: the interpreter in :mod:`repro.algebra.evaluate` re-splits
equi-join pairs, re-compiles predicates and re-resolves positions per
pass, which dwarfs the actual row work when the delta is a single row.
The compiler hoists all of it, and maintenance runs nothing else: the
interpreter is left as the full-recompute reference.  The planning logic
itself is shared with it (:func:`repro.algebra.evaluate.static_join_plan`),
so both always agree on join strategy — the property the equivalence
tests in ``tests/planner`` and ``tests/property`` pin down.

The operators a plan calls are the interpreter's, and they work a batch
at a time; what compilation adds is that every row function they map —
predicates, projections, null-if shapers — is built here, once.  The one
decision left to runtime is the join's hash side (probe a live persistent
index, else hash the smaller input), taken inside the join operator
itself; see ``docs/PERFORMANCE.md``.

Plans of different views share sub-trees: every view over ``lineitem``
starts from the same ``ΔL ⋈ orders``.  A node whose leaves are all
base-table scans or ``delta:<T>`` bindings gets a structural signature,
interned to an int, and an execution handed a per-change memo
(``shared``) computes each signed node once for every plan that holds
it.  A node over any other binding (a view, the §5.3 candidates) is
never signed: those inputs differ per view.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..algebra.evaluate import static_join_plan
from ..algebra.expr import (
    Bound,
    Distinct,
    FixUp,
    Join,
    NullIf,
    Project,
    RelExpr,
    Relation,
    Select,
)
from ..algebra.predicates import compile_predicate
from ..engine import operators as ops
from ..engine.catalog import Database
from ..engine.schema import Schema
from ..engine.table import Table
from ..errors import ReproError

BindingSchemas = Dict[str, Schema]
#: One change's shared sub-plan results: ``(signature, id of the delta
#: read) -> Table``.  Built and dropped by the caller around one fan-out.
SharedResults = Dict[Tuple, Table]

_SIGNATURES: Dict[Tuple, int] = {}
_NEXT_SIGNATURE = count()


def _intern(signature: Tuple) -> int:
    """The int standing for *signature* in this process.  ``next`` on a
    ``count`` is atomic, so racing compiles never hand one int to two
    signatures."""
    found = _SIGNATURES.get(signature)
    if found is None:
        found = _SIGNATURES.setdefault(signature, next(_NEXT_SIGNATURE))
    return found


class PlanCompileError(ReproError):
    """The expression has a shape the compiler does not support, or a plan
    met bindings it was not compiled for.  Every expression maintenance
    builds compiles, so during maintenance this is a bug: the pass fails
    and is undone like any other failing pass."""


class ExecutionContext:
    """Runtime inputs of one plan execution: the database (base-table
    leaves are read live), the binding environment (deltas, views,
    temporaries) and the change's shared results, if any."""

    __slots__ = ("db", "bindings", "shared")

    def __init__(
        self,
        db: Database,
        bindings: Optional[Dict[str, Table]],
        shared: Optional[SharedResults] = None,
    ):
        self.db = db
        self.bindings = bindings or {}
        self.shared = shared


class PhysicalNode:
    """One pre-bound pipeline step.  ``schema`` is the statically inferred
    output schema every closure below this node was compiled against.
    ``sig`` is the interned structural signature (``None``: never shared)
    and ``delta`` the ``delta:<T>`` label the leaves below read, if any."""

    __slots__ = ("schema", "sig", "delta")

    def __init__(self, schema: Schema):
        self.schema = schema
        self.sig: Optional[int] = None
        self.delta: Optional[str] = None

    def execute(self, ctx: ExecutionContext) -> Table:
        """The node's output.  With shared results a signed node is looked
        up there first, and stored there once computed; operator outputs
        are never mutated afterwards, so every reader may hold the one."""
        shared = ctx.shared
        if shared is None or self.sig is None:
            return self.compute(ctx)
        key = (self.sig, id(ctx.bindings.get(self.delta)))
        out = shared.get(key)
        if out is None:
            out = shared[key] = self.compute(ctx)
        return out

    def compute(self, ctx: ExecutionContext) -> Table:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def children(self) -> Sequence["PhysicalNode"]:
        return ()


class RelationScan(PhysicalNode):
    """Leaf: a base table, read live from the database."""

    __slots__ = ("name",)

    def __init__(self, name: str, schema: Schema):
        super().__init__(schema)
        self.name = name

    def execute(self, ctx: ExecutionContext) -> Table:
        return ctx.db.table(self.name)

    def describe(self) -> str:
        return f"scan {self.name}"


class BoundScan(PhysicalNode):
    """Leaf: a binding (ΔT, a view snapshot, a temporary).

    The closures above were compiled against ``schema``; a binding whose
    runtime schema differs would silently index the wrong columns, so the
    column tuple is verified on every execution (one tuple comparison).
    """

    __slots__ = ("label",)

    def __init__(self, label: str, schema: Schema):
        super().__init__(schema)
        self.label = label

    def execute(self, ctx: ExecutionContext) -> Table:
        try:
            table = ctx.bindings[self.label]
        except KeyError:
            raise PlanCompileError(
                f"no binding for {self.label!r}; available: {sorted(ctx.bindings)}"
            ) from None
        if table.schema is not self.schema and (table.schema.columns != self.schema.columns):
            raise PlanCompileError(
                f"binding {self.label!r} has schema "
                f"{table.schema.columns}, plan was compiled for "
                f"{self.schema.columns}"
            )
        return table

    def describe(self) -> str:
        return f"bind {self.label}"


class SelectNode(PhysicalNode):
    __slots__ = ("child", "predicate")

    def __init__(self, child: PhysicalNode, predicate: Callable, schema: Schema):
        super().__init__(schema)
        self.child = child
        self.predicate = predicate

    def compute(self, ctx: ExecutionContext) -> Table:
        return ops.select(self.child.execute(ctx), self.predicate)

    def describe(self) -> str:
        return "select"

    def children(self):
        return (self.child,)


class ProjectNode(PhysicalNode):
    __slots__ = ("child", "columns", "positions")

    def __init__(
        self,
        child: PhysicalNode,
        columns: Tuple[str, ...],
        positions: Tuple[int, ...],
        schema: Schema,
    ):
        super().__init__(schema)
        self.child = child
        self.columns = columns
        self.positions = positions

    def compute(self, ctx: ExecutionContext) -> Table:
        return ops.project(
            self.child.execute(ctx),
            self.columns,
            positions=self.positions,
            schema=self.schema,
        )

    def describe(self) -> str:
        return f"project {list(self.columns)}"

    def children(self):
        return (self.child,)


class DistinctNode(PhysicalNode):
    __slots__ = ("child",)

    def __init__(self, child: PhysicalNode):
        super().__init__(child.schema)
        self.child = child

    def compute(self, ctx: ExecutionContext) -> Table:
        return ops.distinct(self.child.execute(ctx))

    def describe(self) -> str:
        return "distinct"

    def children(self):
        return (self.child,)


class NullIfNode(PhysicalNode):
    __slots__ = ("child", "predicate", "columns", "nuller")

    def __init__(
        self,
        child: PhysicalNode,
        predicate: Callable,
        columns: Tuple[str, ...],
    ):
        super().__init__(child.schema)
        self.child = child
        self.predicate = predicate
        self.columns = columns
        self.nuller = ops.null_shaper(child.schema, columns)

    def compute(self, ctx: ExecutionContext) -> Table:
        return ops.null_if(
            self.child.execute(ctx),
            self.predicate,
            self.columns,
            nuller=self.nuller,
        )

    def describe(self) -> str:
        return f"null_if {list(self.columns)}"

    def children(self):
        return (self.child,)


class FixUpNode(PhysicalNode):
    __slots__ = ("child", "group_key", "positions")

    def __init__(
        self,
        child: PhysicalNode,
        group_key: Tuple[str, ...],
        positions: Tuple[int, ...],
    ):
        super().__init__(child.schema)
        self.child = child
        self.group_key = group_key
        self.positions = positions

    def compute(self, ctx: ExecutionContext) -> Table:
        return ops.fixup(
            self.child.execute(ctx),
            self.group_key,
            positions=self.positions,
        )

    def describe(self) -> str:
        return f"fixup {list(self.group_key)}"

    def children(self):
        return (self.child,)


class JoinNode(PhysicalNode):
    """A join with equi pairs, their column positions on both sides, the
    residual and the output schema resolved at compile time.

    What is left to **execution** time is what depends on the inputs
    themselves, and :func:`repro.engine.operators.join` decides it (for
    the interpreter too): probe the right input's live persistent index
    when one covers the equi columns (point lookups, nothing built; the
    index object is fetched per execution because a restore may swap
    it), otherwise hash whichever input is smaller.
    """

    __slots__ = ("left", "right", "kind", "equi", "residual", "positions")

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        kind: str,
        equi: Tuple[Tuple[str, str], ...],
        residual: Optional[Callable],
        schema: Schema,
    ):
        super().__init__(schema)
        self.left = left
        self.right = right
        self.kind = kind
        self.equi = equi
        self.residual = residual
        self.positions = (
            left.schema.positions([lc for lc, __ in equi]),
            right.schema.positions([rc for __, rc in equi]),
        )

    def compute(self, ctx: ExecutionContext) -> Table:
        return ops.join(
            self.left.execute(ctx),
            self.right.execute(ctx),
            self.kind,
            equi=self.equi,
            residual=self.residual,
            positions=self.positions,
            schema=self.schema,
        )

    def describe(self) -> str:
        extra = " residual" if self.residual is not None else ""
        return f"join:{self.kind} on {list(self.equi)}{extra}"

    def children(self):
        return (self.left, self.right)


class CompiledPlan:
    """An executable physical plan plus the schemas it was bound to."""

    __slots__ = ("root", "binding_schemas", "node_count")

    def __init__(
        self,
        root: PhysicalNode,
        binding_schemas: BindingSchemas,
        node_count: int,
    ):
        self.root = root
        self.binding_schemas = binding_schemas
        self.node_count = node_count

    @property
    def schema(self) -> Schema:
        return self.root.schema

    def execute(
        self,
        db: Database,
        bindings: Optional[Dict[str, Table]] = None,
        shared: Optional[SharedResults] = None,
    ) -> Table:
        """Run the plan.  *shared* is one change's memo: signed nodes
        reuse what an earlier plan computed for the same change and store
        what they compute.  The caller owns its lifetime (one change)."""
        return self.root.execute(ExecutionContext(db, bindings, shared))

    def explain(self) -> str:
        """Indented physical tree (for tests, docs and debugging)."""
        lines: List[str] = []

        def walk(node: PhysicalNode, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.children():
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def _sign(node: PhysicalNode, head: Tuple[Hashable, ...]) -> PhysicalNode:
    """Give *node* the signature *head* + its children's, and the delta
    they read — unless a child has no signature, or they read two."""
    below = node.children()
    deltas = {child.delta for child in below} - {None}
    if len(deltas) < 2 and all(child.sig is not None for child in below):
        node.sig = _intern(head + tuple(child.sig for child in below))
        node.delta = deltas.pop() if deltas else None
    return node


def compile_plan(
    expr: RelExpr,
    db: Database,
    binding_schemas: Optional[BindingSchemas] = None,
) -> CompiledPlan:
    """Compile *expr* against *db* and the schemas of its bindings.

    ``Bound`` leaves resolve their schema from *binding_schemas*; a
    ``delta:T`` label defaults to table T's schema (the shape
    :meth:`Database.insert`/``delete`` produce).  Raises
    :class:`PlanCompileError` on shapes the compiler cannot pre-bind.
    Each node is signed on the way up (:func:`_sign`).
    """
    schemas = dict(binding_schemas or {})
    counter = [0]

    def walk(node: RelExpr) -> PhysicalNode:
        counter[0] += 1
        if isinstance(node, Relation):
            schema = db.table(node.name).schema
            return _sign(RelationScan(node.name, schema), ("scan", node.name, schema.columns))
        if isinstance(node, Bound):
            is_delta = node.label.startswith("delta:")
            schema = schemas.get(node.label)
            if schema is None and is_delta:
                schema = db.table(node.label.split(":", 1)[1]).schema
            if schema is None:
                raise PlanCompileError(f"unknown binding schema for {node.label!r}")
            scan = BoundScan(node.label, schema)
            if is_delta:
                _sign(scan, ("bind", node.label, schema.columns))
                scan.delta = node.label
            return scan
        if isinstance(node, Select):
            child = walk(node.child)
            select = SelectNode(child, compile_predicate(node.pred, child.schema), child.schema)
            return _sign(select, ("select", node.pred))
        if isinstance(node, Project):
            child = walk(node.child)
            columns = tuple(node.columns)
            try:
                positions = child.schema.positions(columns)
            except ReproError as exc:
                raise PlanCompileError(str(exc)) from exc
            project = ProjectNode(child, columns, positions, Schema(columns))
            return _sign(project, ("project", columns))
        if isinstance(node, Distinct):
            return _sign(DistinctNode(walk(node.child)), ("distinct",))
        if isinstance(node, NullIf):
            child = walk(node.child)
            columns = tuple(c for c in node.columns if c in child.schema)
            null_if = NullIfNode(child, compile_predicate(node.pred, child.schema), columns)
            return _sign(null_if, ("null_if", node.pred, columns))
        if isinstance(node, FixUp):
            child = walk(node.child)
            keys = tuple(c for c in node.key_columns if c in child.schema)
            return _sign(FixUpNode(child, keys, child.schema.positions(keys)), ("fixup", keys))
        if isinstance(node, Join):
            left = walk(node.left)
            right = walk(node.right)
            try:
                pairs, residual_pred = static_join_plan(node, left.schema, right.schema)
                if node.kind in ("semi", "anti"):
                    schema = left.schema
                else:
                    schema = left.schema.concat(right.schema)
            except ReproError as exc:
                raise PlanCompileError(str(exc)) from exc
            residual = None
            if residual_pred is not None:
                residual = compile_predicate(residual_pred, left.schema.concat(right.schema))
            join = JoinNode(left, right, node.kind, tuple(pairs), residual, schema)
            return _sign(join, ("join", node.kind, join.equi, residual_pred))
        raise PlanCompileError(f"cannot compile node {node!r}")

    try:
        return CompiledPlan(walk(expr), schemas, counter[0])
    finally:
        del walk  # a recursive closure is a reference cycle holding db
