"""Constraint advisor: which declarations would make maintenance cheaper?

Section 6's optimizations feed entirely on *declared* foreign keys —
an FK that holds in the data but is not declared buys nothing.  The
advisor inspects a view's equijoins, checks whether the data currently
satisfies the corresponding inclusion dependency, and reports the
declarations that would shrink the normal form or short-circuit updates:

* **missing foreign keys** — an equijoin ``A.x = B.key`` where every
  non-null ``A.x`` value exists in ``B`` and ``A.x`` is NOT NULL: if
  declared, the normal-form pruning and Theorem 3 reductions apply;
* per candidate, the **term-count reduction** and the list of base
  tables whose inserts/deletes would become provable no-ops;
* **missing base-table indexes** — non-key columns the view's ΔV^D
  plans would probe on each update (:func:`suggest_indexes`).  A
  :class:`~repro.core.maintain.ViewMaintainer` provisions these when it
  compiles the plan; the advisor surfaces them for systems that manage
  indexes externally.

The FK check is a point-in-time data property; the advisor says so in
its report — declaring the constraint is the schema owner's call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..algebra.expr import Join, RelExpr
from ..algebra.normalform import normal_form
from ..algebra.predicates import Comparison
from ..core.maintgraph import MaintenanceGraph
from ..algebra.subsumption import SubsumptionGraph
from ..core.view import ViewDefinition
from ..engine.catalog import Database
from ..engine.constraints import ForeignKey


@dataclass
class ForeignKeySuggestion:
    """One undeclared inclusion dependency worth declaring."""

    source: str
    source_column: str
    target: str
    target_column: str
    holds_in_data: bool
    source_not_null: bool
    terms_without: int
    terms_with: int
    noop_updates: List[str] = field(default_factory=list)
    reduced_updates: List[str] = field(default_factory=list)

    @property
    def term_reduction(self) -> int:
        return self.terms_without - self.terms_with

    def describe(self) -> str:
        parts = [
            f"FOREIGN KEY {self.source}({self.source_column.split('.')[-1]})"
            f" REFERENCES {self.target}"
            f"({self.target_column.split('.')[-1]})"
        ]
        if self.term_reduction:
            parts.append(
                f"removes {self.term_reduction} normal-form term(s)"
            )
        if self.noop_updates:
            parts.append(
                "makes updates of "
                + ", ".join(sorted(self.noop_updates))
                + " provable no-ops"
            )
        if self.reduced_updates:
            parts.append(
                "reduces the affected terms for updates of "
                + ", ".join(sorted(self.reduced_updates))
            )
        if not self.source_not_null:
            parts.append(
                f"(requires {self.source_column} NOT NULL for full effect)"
            )
        return "; ".join(parts)


def _join_equijoins(expr: RelExpr) -> List[Comparison]:
    out: List[Comparison] = []
    stack: List[RelExpr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            from ..algebra.predicates import conjuncts

            for part in conjuncts(node.pred):
                if isinstance(part, Comparison) and part.is_equijoin():
                    out.append(part)
        stack.extend(node.children())
    return out


def _inclusion_holds(
    db: Database, source_col: str, target_col: str
) -> Optional[bool]:
    """Does every non-null source value appear in the target column?
    Returns None when the target column is not the target table's key
    (the paper requires FK targets to be unique keys)."""
    source_table = db.table(source_col.split(".", 1)[0])
    target_table = db.table(target_col.split(".", 1)[0])
    if target_table.key != (target_col,):
        return None
    target_pos = target_table.schema.index_of(target_col)
    valid = {row[target_pos] for row in target_table.rows}
    source_pos = source_table.schema.index_of(source_col)
    for row in source_table.rows:
        value = row[source_pos]
        if value is not None and value not in valid:
            return False
    return True


def suggest_foreign_keys(
    definition: ViewDefinition, db: Database
) -> List[ForeignKeySuggestion]:
    """Inspect the view's equijoins for undeclared foreign keys whose
    declaration would improve maintenance, sorted by impact."""
    baseline_terms = normal_form(definition.join_expr, db)
    suggestions: List[ForeignKeySuggestion] = []
    seen: Set[Tuple[str, str]] = set()

    for comparison in _join_equijoins(definition.join_expr):
        for source_op, target_op in (
            (comparison.left, comparison.right),
            (comparison.right, comparison.left),
        ):
            source_col = source_op.qualified
            target_col = target_op.qualified
            if (source_col, target_col) in seen:
                continue
            seen.add((source_col, target_col))
            source = source_col.split(".", 1)[0]
            target = target_col.split(".", 1)[0]
            if db.foreign_key_between(source, target) is not None:
                continue
            holds = _inclusion_holds(db, source_col, target_col)
            if holds is not True:
                continue

            trial = _with_hypothetical_fk(db, source_col, target_col)
            trial_terms = normal_form(definition.join_expr, trial)
            noops, reduced = _update_improvements(definition, db, trial)
            not_null = source_col in db.table(source).not_null
            if (
                len(trial_terms) >= len(baseline_terms)
                and not noops
                and not reduced
            ):
                continue
            suggestions.append(
                ForeignKeySuggestion(
                    source=source,
                    source_column=source_col,
                    target=target,
                    target_column=target_col,
                    holds_in_data=True,
                    source_not_null=not_null,
                    terms_without=len(baseline_terms),
                    terms_with=len(trial_terms),
                    noop_updates=noops,
                    reduced_updates=reduced,
                )
            )
    suggestions.sort(
        key=lambda s: (
            -s.term_reduction,
            -len(s.noop_updates),
            -len(s.reduced_updates),
            s.source,
        )
    )
    return suggestions


@dataclass
class IndexSuggestion:
    """A base-table index some maintenance plan would probe."""

    table: str
    columns: Tuple[str, ...]  # qualified names
    exists: bool
    probing_updates: List[str] = field(default_factory=list)

    def describe(self) -> str:
        bare = ", ".join(c.split(".", 1)[1] for c in self.columns)
        updates = ", ".join(sorted(self.probing_updates))
        status = "exists" if self.exists else "missing"
        return (
            f"INDEX ON {self.table}({bare}) [{status}] — probed by the "
            f"delta plans for updates of {updates}"
        )


def suggest_indexes(
    definition: ViewDefinition, db: Database
) -> List[IndexSuggestion]:
    """Base-table indexes the view's ΔV^D plans probe, per updated table.

    Builds the same left-deep primary-delta expressions the maintainer
    compiles and walks their joins for base-relation probe sites (key
    probes are excluded; every table's key hash already covers those).
    """
    from ..algebra.expr import delta_label
    from ..engine.index import find_index
    from ..errors import UnsupportedViewError
    from ..planner.provision import probe_sites
    from .leftdeep import to_left_deep
    from .primary import primary_delta_expression

    by_site: dict = {}
    for table in sorted(definition.tables):
        expr = primary_delta_expression(definition.join_expr, table)
        try:
            expr = to_left_deep(expr, db)
        except UnsupportedViewError:
            pass  # bushy trees still expose their probe sites
        schemas = {delta_label(table): db.table(table).schema}
        for site_table, columns in probe_sites(expr, db, schemas):
            suggestion = by_site.get((site_table, columns))
            if suggestion is None:
                suggestion = IndexSuggestion(
                    table=site_table,
                    columns=columns,
                    exists=find_index(db.table(site_table), columns)
                    is not None,
                )
                by_site[(site_table, columns)] = suggestion
            if table not in suggestion.probing_updates:
                suggestion.probing_updates.append(table)
    return sorted(
        by_site.values(), key=lambda s: (s.exists, s.table, s.columns)
    )


def _with_hypothetical_fk(
    db: Database, source_col: str, target_col: str
) -> Database:
    """A cheap catalog twin with the candidate constraint declared (data
    is shared; only the constraint list and NOT NULL marker differ)."""
    twin = Database()
    twin.tables = db.tables
    twin.foreign_keys = list(db.foreign_keys)
    twin.foreign_keys.append(
        ForeignKey(
            source=source_col.split(".", 1)[0],
            source_columns=(source_col,),
            target=target_col.split(".", 1)[0],
            target_columns=(target_col,),
            source_not_null=True,
        )
    )
    return twin


def _update_improvements(
    definition: ViewDefinition, db: Database, trial: Database
) -> Tuple[List[str], List[str]]:
    """``(no-op tables, reduced-work tables)`` under the candidate FK."""
    noops: List[str] = []
    reduced: List[str] = []
    for table in sorted(definition.tables):
        before = MaintenanceGraph(
            SubsumptionGraph(normal_form(definition.join_expr, db)),
            table,
            db,
        )
        after = MaintenanceGraph(
            SubsumptionGraph(normal_form(definition.join_expr, trial)),
            table,
            trial,
        )
        affected_before = len(before.directly_affected) + len(
            before.indirectly_affected
        )
        affected_after = len(after.directly_affected) + len(
            after.indirectly_affected
        )
        if affected_before and not affected_after:
            noops.append(table)
        elif affected_after < affected_before:
            reduced.append(table)
    return noops, reduced


def advise(definition: ViewDefinition, db: Database) -> str:
    """Human-readable advisory report for one view."""
    suggestions = suggest_foreign_keys(definition, db)
    lines = [f"Advisor report for view {definition.name!r}:"]
    if not suggestions:
        lines.append(
            "  no undeclared foreign keys found on the view's equijoins "
            "(or none would change maintenance)."
        )
    else:
        lines.append(
            "  the data currently satisfies these undeclared constraints; "
            "declaring them unlocks Section 6's optimizations:"
        )
        for suggestion in suggestions:
            lines.append(f"  - {suggestion.describe()}")
        lines.append(
            "  (data-dependent finding: verify the dependency is intended "
            "before declaring it.)"
        )
    indexes = suggest_indexes(definition, db)
    missing = [s for s in indexes if not s.exists]
    if missing:
        lines.append(
            "  maintenance plans probe these un-indexed base-table "
            "columns (ViewMaintainer provisions them when it compiles "
            "the plan):"
        )
        for suggestion in missing:
            lines.append(f"  - {suggestion.describe()}")
    return "\n".join(lines)
