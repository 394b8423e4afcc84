"""Secondary-delta computation (paper Section 5).

After the primary delta ``ΔV^D`` has been applied, indirectly affected
terms may gain or lose *orphan* tuples: an insertion into T can make
previously-orphaned tuples (e.g. a part nobody had ordered) cease to be
orphans, and a deletion can create new orphans.  For each indirectly
affected term ``Eᵢ`` the change ``ΔDᵢ`` is computed either

* **from the view** (Section 5.2) — usually cheapest: the view already
  stores the orphans, so a semijoin/antijoin between the view and the
  primary delta suffices; or
* **from base tables** (Section 5.3) — required when the view does not
  expose the needed columns (not the case for views built through
  :class:`~repro.core.view.ViewDefinition`, which demand key columns, but
  implemented in full both as the paper's fallback and for the ablation
  benchmark).

Both strategies return rows over the term's source-table columns; the
caller pads them to the view schema and applies them with the *opposite*
operation of the primary delta (delete on insert, insert on delete).

Maintenance runs each strategy as a **compiled plan**
(:class:`CompiledViewSecondary`, :class:`CompiledBaseSecondary`) that
resolves predicates, positions and — for the base route — the whole
Section 5.3 expression once; the maintainers cache it per (table, term,
operation, ``fk_allowed``) so repeated updates never re-plan.
:func:`secondary_from_view` keeps the Section 5.2 formulas as plain
relational operators, the reference the index-seek plan is tested
against.
"""

from __future__ import annotations

from typing import List, Tuple

from ..algebra.expr import (
    Bound,
    Join,
    RelExpr,
    Relation,
    Select,
    delta_label,
)
from ..algebra.normalform import Term, term_expression
from ..algebra.predicates import (
    Or,
    Predicate,
    TruePred,
    compile_predicate,
    conjoin,
)
from ..engine import operators as ops
from ..engine.catalog import Database
from ..engine.schema import Schema
from ..engine.table import Table
from ..errors import MaintenanceError
from ..planner.compile import CompiledPlan, compile_plan
from .extract import n_predicate, nn_predicate, term_columns
from .maintgraph import MaintenanceGraph

INSERT = "insert"
DELETE = "delete"


def _parent_filter(
    term: Term, mgraph: MaintenanceGraph, db: Database
) -> Predicate:
    """``Pᵢ = ⋁_{Eₖ ∈ pard(Eᵢ)} nn(Tₖ)`` — selects from ΔV^D the rows that
    touch a directly affected parent of *term*."""
    parents = mgraph.direct_parents(term)
    if not parents:
        raise MaintenanceError(
            f"term {term.label()} has no directly affected parents; it "
            "should not be classified as indirectly affected"
        )
    parts = [nn_predicate(p.source, db) for p in parents]
    return parts[0] if len(parts) == 1 else Or(parts)


def _term_key_pairs(term: Term, db: Database) -> List[Tuple[str, str]]:
    """``eq(Tᵢ)`` as equi-join pairs (same qualified names both sides)."""
    pairs: List[Tuple[str, str]] = []
    for table in sorted(term.source):
        for col in db.table(table).key:
            pairs.append((col, col))
    return pairs


# ---------------------------------------------------------------------------
# Section 5.2 — from the view
# ---------------------------------------------------------------------------
def secondary_from_view(
    term: Term,
    mgraph: MaintenanceGraph,
    view_table: Table,
    primary_delta: Table,
    db: Database,
    operation: str,
) -> Table:
    """``ΔDᵢ`` for one indirectly affected term, computed from the
    materialized view (already reflecting the primary delta) and ΔV^D.

    Insertions::

        ΔDᵢ = σ_{nn(Tᵢ) ∧ n(Sᵢ)}(V + ΔV^D) ⋉^ls_{eq(Tᵢ)} σ_{Pᵢ} ΔV^D

    Deletions::

        ΔDᵢ = (δ π_{Tᵢ.*} σ_{Pᵢ} ΔV^D) ⋉^la_{eq(Tᵢ)} (V − ΔV^D)
    """
    view_tables = frozenset().union(
        *[t.source for t in mgraph.graph.terms]
    )
    pi = _parent_filter(term, mgraph, db)
    pairs = _term_key_pairs(term, db)

    if operation == INSERT:
        orphan_pred = conjoin(
            [
                nn_predicate(term.source, db),
                n_predicate(view_tables - term.source, db),
            ]
        )
        orphans = ops.select(
            view_table, compile_predicate(orphan_pred, view_table.schema)
        )
        touched = ops.select(
            primary_delta, compile_predicate(pi, primary_delta.schema)
        )
        return ops.join(orphans, touched, "semi", equi=pairs)

    if operation == DELETE:
        touched = ops.select(
            primary_delta, compile_predicate(pi, primary_delta.schema)
        )
        candidates = ops.distinct(
            ops.project(
                touched, term_columns(term, primary_delta.schema.columns)
            )
        )
        return ops.join(candidates, view_table, "anti", equi=pairs)

    raise MaintenanceError(f"unknown operation {operation!r}")


class CompiledViewSecondary:
    """Pre-bound Section 5.2 index-seek plan for one (term, operation).

    The paper's experiment gave V3 a *second* index precisely so the
    orphan probes become seeks (``create index V4_idx on V4(p_partkey,
    …)``).  Here the materialized view's key hash plays the clustered
    index and lazily built sub-key indexes play ``V4_idx``:

    * insertions — an orphan of term Tᵢ has the unique view key
      ``(Tᵢ keys, NULL, …)``; each ΔV^D row touching a directly affected
      parent yields that key directly, turning the Section 5.2 semijoin
      into ``O(|Δ|)`` point lookups;
    * deletions — a candidate is a new orphan iff no view row carries its
      Tᵢ key values, a count lookup in the sub-key index.

    Everything that depends only on schemas — the ``Pᵢ`` filter, the row
    shapers taking a delta row to its term sub-key, a sub-key to the
    orphan's view key and a delta row to its candidate — is resolved
    here, once; an execution maps them over the whole delta.
    """

    __slots__ = (
        "operation",
        "passes",
        "term_key_cols",
        "sub_key",
        "orphan_key",
        "candidate",
        "cand_schema",
    )

    def __init__(
        self,
        term: Term,
        mgraph: MaintenanceGraph,
        view,
        delta_schema: Schema,
        db: Database,
        operation: str,
    ):
        if operation not in (INSERT, DELETE):
            raise MaintenanceError(f"unknown operation {operation!r}")
        self.operation = operation
        pi = _parent_filter(term, mgraph, db)
        self.passes = compile_predicate(pi, delta_schema)
        self.term_key_cols = tuple(
            col for t in sorted(term.source) for col in db.table(t).key
        )
        # a term key column the delta lacks reads NULL: no sub-key forms
        self.sub_key = ops.aligner(delta_schema, self.term_key_cols)
        if operation == INSERT:
            slot = {c: i for i, c in enumerate(self.term_key_cols)}
            self.orphan_key = ops.shaper([slot.get(c) for c in view.key_cols])
        else:
            cols = term_columns(term, delta_schema.columns)
            self.candidate = ops.shaper(delta_schema.positions(cols))
            self.cand_schema = Schema(cols)

    def execute(self, view, primary_delta: Table) -> Table:
        """*view* is the live :class:`~repro.core.view.MaterializedView`
        (not a snapshot) so freshly inserted parent orphans are visible to
        child terms automatically."""
        touched = list(filter(self.passes, primary_delta.rows))
        subs = list(map(self.sub_key, touched))
        if self.operation == INSERT:
            stored = view._rows
            distinct = [sub for sub in dict.fromkeys(subs) if None not in sub]
            found = [
                stored[key]
                for key in map(self.orphan_key, distinct)
                if key in stored
            ]
            return Table("d", view.schema, found)

        groups = view.subkey_index(self.term_key_cols).groups
        # first row per sub-key: later pairs overwrite, so feed them reversed
        first = dict(zip(reversed(subs), reversed(touched)))
        orphaned = [
            first[sub]
            for sub in dict.fromkeys(subs)
            if None not in sub and sub not in groups
        ]
        return Table("d", self.cand_schema, map(self.candidate, orphaned))


# ---------------------------------------------------------------------------
# Section 5.3 — from base tables
# ---------------------------------------------------------------------------
def _base_candidate_predicate(
    term: Term, mgraph: MaintenanceGraph, db: Database
) -> Predicate:
    """``Qᵢ = nn(Tᵢ) ∧ n(∪_{Eₖ∈pari(Eᵢ)} Rₖ)`` — the candidate filter."""
    si = term.source
    indirect_extra = frozenset()
    for parent in mgraph.indirect_parents(term):
        indirect_extra |= parent.source - si
    return conjoin([nn_predicate(si, db), n_predicate(indirect_extra, db)])


def _base_state_expression(
    term: Term,
    mgraph: MaintenanceGraph,
    db: Database,
    operation: str,
    updated_table: str,
) -> RelExpr:
    """The full Section 5.3 result expression: the candidates anti-joined
    against one ``E'ₖ`` per directly affected parent."""
    result_expr: RelExpr = Bound("candidates", over=sorted(term.source))
    for parent in mgraph.direct_parents(term):
        parent_expr, antijoin_pred = _parent_state_expression(
            term, parent, updated_table, db, operation
        )
        result_expr = Join("anti", result_expr, parent_expr, antijoin_pred)
    return result_expr


class CompiledBaseSecondary:
    """Pre-bound Section 5.3 plan for one (term, operation, table):
    ``ΔDᵢ`` computed without reading the view.

    Candidates come from ΔV^D filtered by
    ``Qᵢ = nn(Tᵢ) ∧ n(∪_{Eₖ∈pari(Eᵢ)} Rₖ)`` and are then anti-semijoined
    against one expression ``E'ₖ`` per directly affected parent, built
    from the parent's extra tables ``Rₖ`` and the updated table's old
    state (insertions) or new state (deletions).

    The candidate filter/projection closures and the compiled physical
    plan of the (anti-join chain) state expression are built once; each
    execution only filters the delta, projects the candidates and runs
    the plan."""

    __slots__ = (
        "operation",
        "updated_table",
        "qi",
        "cand_columns",
        "cand_positions",
        "cand_schema",
        "expr",
        "plan",
    )

    def __init__(
        self,
        term: Term,
        mgraph: MaintenanceGraph,
        delta_schema: Schema,
        db: Database,
        operation: str,
        updated_table: str,
    ):
        self.operation = operation
        self.updated_table = updated_table
        qi = _base_candidate_predicate(term, mgraph, db)
        self.qi = compile_predicate(qi, delta_schema)
        cols = term_columns(term, delta_schema.columns)
        self.cand_columns = cols
        self.cand_positions = delta_schema.positions(cols)
        self.cand_schema = Schema(cols)
        result_expr = _base_state_expression(
            term, mgraph, db, operation, updated_table
        )
        self.expr = result_expr  # kept for index provisioning
        self.plan: CompiledPlan = compile_plan(
            result_expr,
            db,
            {
                "candidates": self.cand_schema,
                delta_label(updated_table): db.table(updated_table).schema,
            },
        )

    def execute(
        self, db: Database, primary_delta: Table, delta_table: Table
    ) -> Table:
        filtered = ops.select(primary_delta, self.qi)
        candidates = ops.distinct(
            ops.project(
                filtered,
                self.cand_columns,
                positions=self.cand_positions,
                schema=self.cand_schema,
            )
        )
        return self.plan.execute(
            db,
            {
                "candidates": candidates,
                delta_label(self.updated_table): delta_table,
            },
        )


def _parent_state_expression(
    term: Term,
    parent: Term,
    updated_table: str,
    db: Database,
    operation: str,
) -> Tuple[RelExpr, Predicate]:
    """Build ``E'ₖ`` and its antijoin predicate ``qₖ`` for one directly
    affected parent (Section 5.3's predicate split of ``pₖ``)."""
    si = term.source
    rk = parent.source - si - {updated_table}

    linking: List[Predicate] = []  # q(Sᵢ, Rₖ, T) — the antijoin predicate
    state_preds: List[Predicate] = []  # q(Rₖ), q(T), q(Rₖ, T)
    for pred in parent.predicates:
        tabs = pred.tables()
        if tabs <= si:
            continue  # already satisfied by the candidates
        if tabs & si:
            linking.append(pred)
        else:
            state_preds.append(pred)

    # The paper's T± ⋉^la_eq(T) ΔT (insertions: state before the update)
    # or plain T± (deletions: state after the update).
    t_state: RelExpr = Relation(updated_table)
    if operation == INSERT:
        key = db.table(updated_table).key
        pairs_pred = conjoin(
            [
                # eq(T): same column names on both sides; expressed as a
                # predicate here, resolved into equi pairs at evaluation.
                _self_eq(col)
                for col in key
            ]
        )
        t_state = Join(
            "anti",
            t_state,
            Bound(delta_label(updated_table), over=(updated_table,)),
            pairs_pred,
        )

    if not rk:
        state_expr: RelExpr = t_state
        extra = [p for p in state_preds if p.tables() <= {updated_table}]
        if extra:
            state_expr = Select(state_expr, conjoin(extra))
    else:
        pseudo = Term(
            frozenset(rk | {updated_table}), frozenset(state_preds)
        )
        state_expr = term_expression(
            pseudo, db, replacements={updated_table: t_state}
        )

    return state_expr, conjoin(linking) if linking else TruePred()


def _self_eq(column: str) -> Predicate:
    """An equality between the same qualified column on both antijoin
    sides.  The evaluator cannot hash-join identical names across operands
    with overlapping schemas, so this compiles as a residual comparing the
    concatenated row — but ``T ⋉^la ΔT`` never concatenates; it is resolved
    specially below."""
    from ..algebra.predicates import Comparison

    return Comparison(column, "=", column)


# The anti-semijoin between a table and its own delta shares every column
# name, which the generic evaluator cannot express.  Patch evaluation of
# that specific shape: Join("anti", Relation(T), Bound(delta:T), eq-keys).
def old_state(table_name: str, db: Database, delta: Table) -> Table:
    """``T ⋉^la_{eq(T)} ΔT`` — the updated table's state before an
    insertion (the base table minus the inserted rows)."""
    base = db.table(table_name)
    pairs = [(c, c) for c in base.key or ()]
    return ops.join(base, delta, "anti", equi=pairs)
