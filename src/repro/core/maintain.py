"""The view-maintenance procedure (paper Section 3.2, orchestrating 4–6).

:class:`ViewMaintainer` keeps one materialized SPOJ view in sync with its
base tables.  For every insert/delete of a base table ``T`` it

1. classifies the view's terms through the (FK-reduced) maintenance graph;
2. computes the **primary delta** ``ΔV^D`` — the Section 4 expression,
   optionally converted to a left-deep tree (Section 4.1) and simplified
   through foreign keys (Section 6.1) — and applies it to the view
   (insert on insert, delete on delete);
3. computes the **secondary delta** ``ΔV^I`` per indirectly affected term
   (Section 5.2 from the view, or Section 5.3 from base tables) and
   applies it with the *opposite* operation.

One refinement over the paper's presentation: for deletions maintained
from the view, indirectly affected terms are processed parents-first
(descending source-set size) against a refreshed view snapshot.  Without
this, two terms ``{R}`` and ``{R,S}`` orphaned by the same deleted rows
would both be inserted even though the ``{R}`` orphan is subsumed by the
``{R,S}`` one.  (The base-table route needs no ordering — its ``Qᵢ``
filter already excludes such candidates, cf. Example 9's ``n(S)``.)

What a pass decides before it sees a row — the classification, labels,
ΔV^D, the parents-first order and the plan keys — is a :class:`PassRecord`
compiled once per (table, operation, ``fk_allowed``).  Every delta — ΔV^D
and each ΔDᵢ — runs as a physical plan compiled once into the view's
:class:`~repro.planner.PlanCache`; there is no second executor.  A pass
lands whole or not at all: it records the inverse of each view apply
(itself all-or-nothing) that succeeded, and if anything raises later
:func:`undo_pass` runs them, leaving the view exactly pre-change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..algebra.expr import RelExpr, delta_label
from ..algebra.normalform import Term
from ..algebra.subsumption import SubsumptionGraph
from ..engine import operators as ops
from ..engine.catalog import Database
from ..engine.table import Row, Table
from ..errors import MaintenanceError, ReproError, UndoError, UnsupportedViewError
from ..obs import Telemetry
from ..planner import PlanCache, SharedResults, compile_plan, provision_indexes
from ..runtime.failpoints import FAILPOINTS
from .fk import simplify_tree
from .leftdeep import to_left_deep
from .maintgraph import MaintenanceGraph
from .primary import primary_delta_expression
from .secondary import DELETE, INSERT, CompiledBaseSecondary, CompiledViewSecondary
from .view import MaterializedView, RowPool, ViewDefinition

SECONDARY_FROM_VIEW = "view"
SECONDARY_FROM_BASE = "base"
SECONDARY_AUTO = "auto"  # per-term cost-based choice (Section 5's advice)
SECONDARY_STRATEGIES = (SECONDARY_FROM_VIEW, SECONDARY_FROM_BASE, SECONDARY_AUTO)


@dataclass(frozen=True)
class MaintenanceOptions:
    """Knobs for the maintenance pipeline (defaults = the paper's full
    algorithm; the ablation benchmarks flip them individually).

    *use_foreign_keys* drives all three Section 6 mechanisms: FK pruning
    of the normal form, Theorem 3 graph reduction and SimplifyTree (the
    last two also need the change's ``fk_allowed``).  Frozen: a
    maintainer's compiled plans are fixed by the options it was built
    with."""

    left_deep: bool = True
    use_foreign_keys: bool = True
    secondary_strategy: str = SECONDARY_FROM_VIEW
    count_term_rows: bool = False  # fill report.primary_term_rows (Table 1)

    def __post_init__(self) -> None:
        if self.secondary_strategy not in SECONDARY_STRATEGIES:
            raise ValueError(
                f"unknown secondary_strategy {self.secondary_strategy!r}; "
                f"expected one of {', '.join(map(repr, SECONDARY_STRATEGIES))}"
            )


@dataclass
class MaintenanceReport:
    """What one maintenance pass did — consumed by tests, examples and
    the benchmark harness."""

    view: str
    table: str
    operation: str
    base_rows: int = 0
    primary_rows: int = 0
    primary_term_rows: Dict[str, int] = field(default_factory=dict)
    secondary_rows: Dict[str, int] = field(default_factory=dict)
    direct_terms: List[str] = field(default_factory=list)
    indirect_terms: List[str] = field(default_factory=list)
    primary_skipped: bool = False
    elapsed_seconds: float = 0.0
    secondary_strategy_used: Dict[str, str] = field(default_factory=dict)

    @property
    def total_view_changes(self) -> int:
        return self.primary_rows + sum(self.secondary_rows.values())

    def to_dict(self) -> Dict:
        """JSON-serializable form for logs and dashboards."""
        out = {
            "view": self.view,
            "table": self.table,
            "operation": self.operation,
            "base_rows": self.base_rows,
            "primary_rows": self.primary_rows,
            "secondary_rows": dict(self.secondary_rows),
            "direct_terms": list(self.direct_terms),
            "indirect_terms": list(self.indirect_terms),
            "primary_skipped": self.primary_skipped,
            "elapsed_seconds": self.elapsed_seconds,
            "total_view_changes": self.total_view_changes,
        }
        if self.primary_term_rows:
            out["primary_term_rows"] = dict(self.primary_term_rows)
        if self.secondary_strategy_used:
            out["secondary_strategy_used"] = dict(self.secondary_strategy_used)
        return out

    def summary(self) -> str:
        direction = "into" if self.operation == INSERT else "from"
        parts = [
            f"{self.operation} {self.base_rows} row(s) {direction} "
            f"{self.table!r}:",
            f"primary Δ={self.primary_rows}",
        ]
        for label, count in self.secondary_rows.items():
            parts.append(f"secondary Δ{label}={count}")
        if self.primary_skipped:
            parts.append("(primary delta proven empty)")
        parts.append(f"[{self.elapsed_seconds * 1000:.1f} ms]")
        return " ".join(parts)


def undo_pass(target, undo: List[Callable[[], int]]) -> None:
    """Run a failed pass's inverse applies on *target* (a plain or
    aggregated view), newest first.  If one raises, rebuild *target* from
    the base tables instead and raise :class:`~repro.errors.UndoError`."""
    try:
        for inverse in reversed(undo):
            inverse()
    except Exception as exc:
        target.rebuild()
        raise UndoError(
            f"view {target.definition.name!r}: undoing a failed pass raised "
            f"{exc!r}; rebuilt from the base tables"
        ) from exc


class PassRecord(NamedTuple):
    """Everything a pass of (table, operation, ``fk_allowed``) decides before it sees a
    row: the maintenance graph, the direct terms' labels, ΔV^D and its plan key, and the
    indirect terms parents-first as ``(term, label, plan key)``, one key serving both
    secondary routes behind the route's name.  ``primary_key`` is ``None`` when the pass
    is statically empty: the view cannot see the table, no term is directly affected, or
    foreign keys prove ΔV^D empty (Section 6)."""

    mgraph: MaintenanceGraph
    direct: Tuple[str, ...]
    expr: Optional[RelExpr]
    primary_key: Optional[Tuple]
    secondaries: Tuple[Tuple[Term, str, Tuple], ...]

    @property
    def empty(self) -> bool:
        return self.primary_key is None


class MaintenancePlans:
    """The view-independent half of maintenance, shared by
    :class:`ViewMaintainer` and :class:`~repro.core.aggregate.AggregatedView`.

    Structural work that depends only on the view definition — the normal
    form, the subsumption graph and one :class:`PassRecord` per (table,
    operation, ``fk_allowed``) — is derived once, and each delta runs as a
    physical plan compiled on first use and kept, mirroring how a real
    system compiles maintenance procedures at view-creation time.
    """

    def __init__(
        self,
        db: Database,
        definition: ViewDefinition,
        options: Optional[MaintenanceOptions] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.db = db
        self.definition = definition
        self.options = options or MaintenanceOptions()
        self.telemetry = telemetry or Telemetry.disabled()
        self._records: Dict[Tuple, PassRecord] = {}
        self._plan_cache = PlanCache()
        self.telemetry.watch(self)  # plan-cache counts, read at scrape

    @property
    def plan_cache(self) -> PlanCache:
        return self._plan_cache

    # ------------------------------------------------------------------
    # structure, derived once
    # ------------------------------------------------------------------
    @cached_property
    def graph(self) -> SubsumptionGraph:
        return self.definition.subsumption_graph(self.db, self.options.use_foreign_keys)

    def pass_record(self, table: str, operation: str, fk_allowed: bool) -> PassRecord:
        """The :class:`PassRecord` for a change of *table*, compiled on
        first use."""
        key = (table, operation, fk_allowed)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = self._compile_record(table, operation, fk_allowed)
        return record

    def _compile_record(self, table: str, operation: str, fk_allowed: bool) -> PassRecord:
        use_fk = fk_allowed and self.options.use_foreign_keys
        mgraph = MaintenanceGraph(self.graph, table, self.db, use_foreign_keys=use_fk)
        expr: Optional[RelExpr] = None
        if mgraph.directly_affected:
            expr = primary_delta_expression(self.definition.join_expr, table)
            if self.options.left_deep:
                try:
                    expr = to_left_deep(expr, self.db)
                except UnsupportedViewError:
                    pass  # fall back to the bushy tree
            if use_fk:
                expr = simplify_tree(expr, table, self.db).expression
        # Parents before children (see module docstring).
        terms = sorted(mgraph.indirectly_affected, key=lambda t: -len(t.source))
        return PassRecord(
            mgraph,
            tuple(t.label() for t in mgraph.directly_affected),
            expr,
            None if expr is None else ("primary", table, use_fk),
            tuple((t, t.label(), (table, t.label(), operation, fk_allowed)) for t in terms),
        )

    def maintenance_graph(self, table: str, fk_allowed: bool) -> MaintenanceGraph:
        return self.pass_record(table, INSERT, fk_allowed).mgraph

    def delta_expression(self, table: str, fk_allowed: bool) -> Optional[RelExpr]:
        """The compiled ΔV^D expression for updates of *table* (``None``
        when no term is directly affected or foreign keys prove the delta
        always empty)."""
        return self.pass_record(table, INSERT, fk_allowed).expr

    # ------------------------------------------------------------------
    # public update API (over the subclass's ``maintain``)
    # ------------------------------------------------------------------
    def insert(self, table: str, rows: Iterable[Row]) -> MaintenanceReport:
        """Insert *rows* into base table *table* and maintain the view."""
        delta = self.db.insert(table, rows)
        return self.maintain(table, delta, INSERT, fk_allowed=True)

    def delete(self, table: str, rows: Iterable[Row]) -> MaintenanceReport:
        """Delete *rows* from base table *table* and maintain the view."""
        delta = self.db.delete(table, rows)
        return self.maintain(table, delta, DELETE, fk_allowed=True)

    def update(
        self, table: str, old_rows: Iterable[Row], new_rows: Iterable[Row]
    ) -> Tuple[MaintenanceReport, MaintenanceReport]:
        """An UPDATE modelled as delete + insert, foreign-key optimizations
        off for both halves (the paper's caveat 1: the constraint argument
        breaks when the "deleted" key is about to be re-inserted).  An absent
        old row is skipped; a new row failing its checks puts the delete back."""
        deleted = self.db.delete(table, old_rows, check=False)
        delete_report = self.maintain(table, deleted, DELETE, fk_allowed=False)
        try:
            inserted = self.db.insert(table, new_rows)
        except ReproError:
            self.maintain(table, self.db.insert(table, deleted.rows, check=False), INSERT, False)
            raise
        return delete_report, self.maintain(table, inserted, INSERT, fk_allowed=False)

    # ------------------------------------------------------------------
    # compiled plans
    # ------------------------------------------------------------------
    def _cached_plan(self, key: Tuple, builder):
        """The compiled plan under *key*, compiled via *builder* on first
        use.  Every expression maintenance builds compiles, so a builder
        that raises is a bug: the pass fails (and is undone) like any
        other failing pass, and nothing is cached.
        """
        plan = self._plan_cache.get(key)
        if plan is None:
            started = time.perf_counter()
            plan = builder()
            self.telemetry.emit(
                "plan.compiled", view=self.definition.name, seconds=time.perf_counter() - started
            )
            self._plan_cache.store(key, plan)
        return plan

    def _build_primary_plan(self, table: str, expr: RelExpr):
        schemas = {delta_label(table): self.db.table(table).schema}
        provision_indexes(expr, self.db, schemas)
        return compile_plan(expr, self.db, schemas)

    def _compute_primary(
        self,
        record: PassRecord,
        table: str,
        delta: Table,
        shared: Optional[SharedResults] = None,
    ) -> Optional[Table]:
        """ΔV^D for *delta* (``None`` when *record* is statically empty);
        *shared* is the change's memo of sub-plan results
        (:meth:`~repro.planner.CompiledPlan.execute`)."""
        if record.empty:
            return None
        plan = self._cached_plan(
            record.primary_key,
            lambda: self._build_primary_plan(table, record.expr),
        )
        return plan.execute(self.db, {delta_label(table): delta}, shared)

    def _secondary_base_rows(
        self,
        record: PassRecord,
        term: Term,
        key: Tuple,
        primary: Table,
        operation: str,
        table: str,
        delta: Table,
    ) -> Table:
        """ΔDᵢ of *term* from base tables (Section 5.3).  The plan *key*
        carries ``fk_allowed``, which fixes both the maintenance graph and
        *primary*'s schema."""

        def build():
            plan = CompiledBaseSecondary(
                term, record.mgraph, primary.schema, self.db, operation, table
            )
            provision_indexes(plan.expr, self.db, plan.plan.binding_schemas)
            return plan

        return self._cached_plan(("secondary-base",) + key, build).execute(self.db, primary, delta)


class ViewMaintainer(MaintenancePlans):
    """Incremental maintenance of one materialized view: the compiled
    deltas of :class:`MaintenancePlans` applied to a
    :class:`~repro.core.view.MaterializedView`, plus the Section 5.2
    secondary deltas that read the view itself.
    """

    def __init__(
        self,
        db: Database,
        view: MaterializedView,
        options: Optional[MaintenanceOptions] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(db, view.definition, options, telemetry)
        self.view = view
        # delta columns -> row shaper onto the view's columns (_align_rows)
        self._aligners: Dict[Tuple[str, ...], Callable[[Row], Row]] = {}

    def delete_by_key(self, table: str, keys: Iterable[Row]) -> MaintenanceReport:
        delta = self.db.delete_by_key(table, keys)
        return self.maintain(table, delta, DELETE, fk_allowed=True)

    # ------------------------------------------------------------------
    # the maintenance procedure
    # ------------------------------------------------------------------
    def maintain(
        self,
        table: str,
        delta: Table,
        operation: str,
        fk_allowed: bool = True,
        shared: Optional[SharedResults] = None,
    ) -> MaintenanceReport:
        """Maintain the view for an already-applied base-table update.

        *delta* holds the inserted (or deleted) rows; the base table in
        ``self.db`` must already reflect the update, matching the paper's
        setup ("the base tables have already been updated").  *shared* is
        the change's memo, handed to every view the change fans out to.
        """
        started = time.perf_counter()
        report = MaintenanceReport(
            view=self.definition.name,
            table=table,
            operation=operation,
            base_rows=len(delta),
        )
        if table not in self.definition.tables or not len(delta):
            report.elapsed_seconds = time.perf_counter() - started
            return report

        tel = self.telemetry
        undo: List[Callable[[], int]] = []  # each apply's inverse, in order
        phases: Dict[str, float] = {}  # phase -> seconds
        terms: Dict[str, Dict] = {}  # secondary term -> strategy, seconds, rows
        with tel.tracer.span(
            "maintain",
            view=self.definition.name,
            table=table,
            operation=operation,
            base_rows=len(delta),
            phases=phases,
            terms=terms,
        ) as span:
            try:
                began = time.perf_counter()
                record = self.pass_record(table, operation, fk_allowed)
                report.direct_terms = list(record.direct)
                report.indirect_terms = [s[1] for s in record.secondaries]
                classified = time.perf_counter()
                phases["classify"] = classified - began
                primary = self._compute_primary(record, table, delta, shared)
                report.primary_skipped = primary is None
                computed = time.perf_counter()
                phases["primary_delta"] = computed - classified
                span.set_attributes(
                    direct=len(record.direct),
                    indirect=len(record.secondaries),
                    skipped=report.primary_skipped,
                    delta_rows=0 if primary is None else len(primary),
                )
                if primary is not None and len(primary):
                    report.primary_rows = self._apply(primary, operation == INSERT, undo)
                    phases["apply_primary"] = time.perf_counter() - computed
                    if self.options.count_term_rows:
                        self._count_term_rows(primary, record, report)
                # fault-injection site *inside* the maintain span, between
                # the primary and the secondary applies: an armed raise
                # stages the half-applied pass the undo below closes, with
                # a real failing span for flight-recorder dumps
                FAILPOINTS.hit(
                    "maintain.pass",
                    view=self.definition.name,
                    table=table,
                    operation=operation,
                )
                if record.secondaries and primary is not None and len(primary):
                    self._apply_secondary(
                        record, table, delta, primary, operation, report, undo, terms
                    )
            except Exception:
                tel.emit(
                    "maintenance.error",
                    view=self.definition.name,
                    table=table,
                    operation=operation,
                )
                undo_pass(self, undo)
                raise

            report.elapsed_seconds = time.perf_counter() - started
            span.record_rows(report.total_view_changes)
        tel.emit("maintenance.pass", report=report)
        return report

    # ------------------------------------------------------------------
    def _apply(
        self, rows: Table, insert: bool, undo: List[Callable[[], int]]
    ) -> int:
        """Insert (or delete) delta *rows* into the view — all of them or
        none — and record the inverse apply in *undo*; returns the count."""
        aligned = self._align_rows(rows)
        apply, inverse = self.view.insert_rows, self.view.delete_rows
        if not insert:
            apply, inverse = inverse, apply
        count = apply(aligned)
        undo.append(partial(inverse, aligned))
        return count

    def _count_term_rows(
        self, primary: Table, record: PassRecord, report: MaintenanceReport
    ) -> None:
        from .extract import extract_net_delta

        for term, label in zip(record.mgraph.directly_affected, record.direct):
            part = extract_net_delta(primary, term, self.definition.tables, self.db)
            report.primary_term_rows[label] = len(part)

    def _apply_secondary(
        self,
        record: PassRecord,
        table: str,
        delta: Table,
        primary: Table,
        operation: str,
        report: MaintenanceReport,
        undo: List[Callable[[], int]],
        terms: Dict[str, Dict],
    ) -> None:
        strategy = self.options.secondary_strategy
        for term, label, key in record.secondaries:
            term_strategy = strategy
            if strategy == SECONDARY_AUTO:
                term_strategy = self._choose_secondary_strategy(term, record.mgraph, table)
            report.secondary_strategy_used[label] = term_strategy
            started = time.perf_counter()
            if term_strategy == SECONDARY_FROM_BASE:
                rows = self._secondary_base_rows(
                    record, term, key, primary, operation, table, delta
                )
            else:
                # Index-seek plan of Section 5.2; reads the live view,
                # so parent-term orphans inserted above are visible here
                # (the parents-first requirement of the module docstring).
                plan = self._cached_plan(
                    ("secondary-view",) + key,
                    lambda: CompiledViewSecondary(
                        term, record.mgraph, self.view, primary.schema,
                        self.db, operation,
                    ),
                )
                rows = plan.execute(self.view, primary)
            count = self._apply(rows, operation != INSERT, undo) if len(rows) else 0
            report.secondary_rows[label] = count
            terms[label] = {
                "strategy": term_strategy,
                "seconds": time.perf_counter() - started,
                "rows": count,
            }

    def _choose_secondary_strategy(
        self, term: Term, mgraph: MaintenanceGraph, table: str
    ) -> str:
        """Section 5's advice made concrete: pick the cheaper route per
        term from simple input-size estimates — the view strategy scans
        the materialized view once; the base strategy scans each directly
        affected parent's extra tables plus the updated table."""
        view_cost = len(self.view)
        base_cost = 0
        for parent in mgraph.direct_parents(term):
            for name in (parent.source - term.source - {table}):
                base_cost += len(self.db.table(name))
            base_cost += len(self.db.table(table))
        return SECONDARY_FROM_BASE if base_cost < view_cost else SECONDARY_FROM_VIEW

    # ------------------------------------------------------------------
    def _align_rows(self, table: Table) -> List[Row]:
        """Null-extend/reorder rows of *table* to the view's output
        columns (delta results may carry extra base columns or lack
        columns of FK-dropped tables), through a row shaper built once
        per input schema."""
        columns, target = table.schema.columns, self.view.schema.columns
        if columns == target:
            return table.rows
        align = self._aligners.get(columns)
        if align is None:
            align = self._aligners[columns] = ops.aligner(table.schema, target)
        return list(map(align, table.rows))

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert the view equals a full recompute — the correctness
        oracle used throughout the test suite."""
        expected = self.definition.evaluate(self.db)
        actual = frozenset(self.view.rows())
        wanted = frozenset(expected.rows)
        if actual != wanted:
            missing = list(wanted - actual)[:5]
            extra = list(actual - wanted)[:5]
            raise MaintenanceError(
                f"view {self.definition.name!r} diverged from recompute: "
                f"{len(wanted - actual)} missing (e.g. {missing}), "
                f"{len(actual - wanted)} extra (e.g. {extra})"
            )

    # ------------------------------------------------------------------
    # state protocol (shared with AggregatedView): how the warehouse
    # restores checkpoints and repairs quarantined views without knowing
    # which kind it holds.  Quarantines and rollbacks need nothing here: a
    # failed maintain() leaves its view exactly pre-change (undo_pass).
    # ------------------------------------------------------------------
    def rows(self) -> List[Row]:
        return self.view.rows()

    def rebuild(self, pool: Optional[RowPool] = None) -> None:
        """Recompute the view from the current base tables, in place."""
        self.view.reset_to(
            MaterializedView.materialize(self.definition, self.db, pool)
        )
