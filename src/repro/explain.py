"""Plan introspection: explain what the maintainer compiled for a view.

A downstream DBA adopting outer-join views wants to see — before turning
them on — what every possible base-table update will cost: which terms
exist, which updates are provably free, what the delta plans look like,
and what SQL would run.  :func:`explain_view` produces exactly that
report; :func:`explain_update` drills into one (table, operation) pair.

Example::

    from repro.explain import explain_view
    print(explain_view(maintainer))
"""

from __future__ import annotations

from typing import List, Optional

from .core.maintain import (
    SECONDARY_AUTO,
    SECONDARY_FROM_BASE,
    SECONDARY_FROM_VIEW,
    ViewMaintainer,
)
from .core.maintgraph import Affect
from .core.secondary import DELETE, INSERT
from .sql import maintenance_script

_STRATEGY_SECTIONS = {
    SECONDARY_FROM_VIEW: "Section 5.2",
    SECONDARY_FROM_BASE: "Section 5.3",
    SECONDARY_AUTO: "cost-based per-term choice between Sections 5.2 and 5.3",
}


def explain_view(maintainer: ViewMaintainer) -> str:
    """A full report: normal form, subsumption graph, and per-table
    update analysis for the maintainer's view."""
    db = maintainer.db
    defn = maintainer.definition
    lines: List[str] = []
    out = lines.append

    out(f"View {defn.name!r} over tables "
        f"{', '.join(sorted(defn.tables))}")
    out(f"  output columns : {len(defn.output_columns(db))}")
    out(f"  view key       : ({', '.join(defn.key_columns(db))})")
    out("")

    out("Join-disjunctive normal form (Section 2.2):")
    graph = maintainer.graph
    for term in graph.terms:
        pred = term.predicate()
        out(f"  {term.label():<30} σ[{pred!r}]")
    out("")

    out("Subsumption graph (Section 2.3, child <- parents):")
    for line in graph.pretty().splitlines():
        out(f"  {line}")
    out("")

    for table in sorted(defn.tables):
        out(explain_update(maintainer, table))
    return "\n".join(lines)


def explain_update(
    maintainer: ViewMaintainer,
    table: str,
    operation: Optional[str] = None,
) -> str:
    """Explain how updates of *table* are maintained: classification,
    the compiled ΔV^D plan, and the secondary-delta work list."""
    lines: List[str] = []
    out = lines.append
    mgraph = maintainer.maintenance_graph(table, True)

    out(f"Updates of {table!r}:")
    direct = mgraph.directly_affected
    indirect = mgraph.indirectly_affected
    eliminated = [
        t
        for t in mgraph.graph.terms
        if table in t.source
        and mgraph.classification[t.source] is Affect.UNAFFECTED
    ]
    if eliminated:
        out(
            "  Theorem 3 eliminates: "
            + ", ".join(t.label() for t in eliminated)
            + "  (foreign key joins prove their net contribution fixed)"
        )
    if not direct:
        out("  → NO-OP: no directly affected terms; the view never changes.")
        out("")
        return "\n".join(lines)

    out(
        "  directly affected  : "
        + ", ".join(t.label() for t in direct)
    )
    out(
        "  indirectly affected: "
        + (", ".join(t.label() for t in indirect) or "(none)")
    )

    expr = maintainer.delta_expression(table, True)
    if expr is None:
        out("  → ΔV^D proven empty by SimplifyTree (Section 6.1): NO-OP.")
        _append_measured(out, maintainer)
        out("")
        return "\n".join(lines)

    out("  ΔV^D plan (Section 4, left-deep where possible):")
    for line in expr.pretty().splitlines():
        out(f"    {line}")
    if indirect:
        strategy = maintainer.options.secondary_strategy
        out(
            f"  ΔV^I: {len(indirect)} term(s) via the {strategy!r} strategy "
            f"({_STRATEGY_SECTIONS[strategy]})"
        )

    ops = [operation] if operation else [INSERT, DELETE]
    for op in ops:
        out(f"  SQL script ({op}):")
        for statement in maintenance_script(maintainer, table, op):
            for line in statement.splitlines():
                out(f"    {line}")
            out("    ;")
    _append_measured(out, maintainer)
    out("")
    return "\n".join(lines)


def _append_measured(out, maintainer: ViewMaintainer) -> None:
    """When the maintainer runs with live telemetry, append the phase
    costs actually observed so the explanation shows measured — not just
    predicted — numbers."""
    telemetry = getattr(maintainer, "telemetry", None)
    if telemetry is None or not telemetry.enabled:
        return
    costs = telemetry.health.pass_costs().get(maintainer.definition.name)
    if not costs:
        return
    rendered = ", ".join(
        f"{phase} {data['avg'] * 1000:.2f}ms avg/{data['max'] * 1000:.2f}ms "
        f"max over {data['count']}"
        for phase, data in sorted(costs["phases"].items())
    )
    out(f"  Measured (telemetry): {rendered}")
