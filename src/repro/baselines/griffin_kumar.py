"""Griffin & Kumar change-propagation baseline ([2] in the paper).

The original paper (SIGMOD Record 27(3), 1998) propagates deltas through
outer-join expressions algebraically, but — as Larson & Zhou note — leaves
the semijoin/anti-semijoin predicates unspecified, so no executable
algorithm can be transcribed verbatim.  This module reimplements GK *in
the spirit the paper evaluates it*, reproducing the three cost
characteristics Section 8 attributes to it:

(a) **maintenance expressions join base tables only** and may build large
    intermediates — we evaluate the bushy primary-delta tree (no
    left-deep conversion), so subexpressions like ``R ⟗ S`` are computed
    in full on every update;
(b) **the view itself is never exploited** — orphan fix-ups are computed
    from base tables (the Section 5.3 route), reconstructing old table
    states with anti-semijoins instead of probing the view;
(c) **null-rejecting predicates and foreign keys are not exploited** to
    rule out unaffected terms — every term of the (unpruned) normal form
    gets a delta expression evaluated, empty or not.

The result is *correct* (it passes the same recompute oracle as the
paper's algorithm) but pays exactly the overheads Figure 5 shows: similar
to the efficient algorithm at tiny batch sizes, deteriorating sharply as
batches grow, and markedly worse for deletions.
"""

from __future__ import annotations

from typing import Optional

from ..algebra.expr import delta_label
from ..algebra.normalform import evaluate_term
from ..core.maintain import (
    MaintenanceOptions,
    MaintenanceReport,
    SECONDARY_FROM_BASE,
    ViewMaintainer,
)
from ..core.maintgraph import MaintenanceGraph
from ..core.view import MaterializedView
from ..engine.catalog import Database
from ..engine.table import Table


def griffin_kumar_options() -> MaintenanceOptions:
    """The handicapped option set modelling GK's cost profile."""
    return MaintenanceOptions(
        left_deep=False,
        use_foreign_keys=False,
        secondary_strategy=SECONDARY_FROM_BASE,
    )


class GriffinKumarMaintainer(ViewMaintainer):
    """GK-style maintenance: correct, view-blind, prune-blind.

    Beyond the handicapped options, GK computes a change expression for
    *every* term of the normal form — including terms a foreign key or a
    null-rejecting predicate proves unaffected — so
    :meth:`maintain` first evaluates those provably-empty per-term deltas
    from base tables (work the efficient algorithm skips entirely).
    """

    def __init__(
        self,
        db: Database,
        view: MaterializedView,
        options: Optional[MaintenanceOptions] = None,
    ):
        super().__init__(db, view, options or griffin_kumar_options())

    def maintain(
        self,
        table: str,
        delta: Table,
        operation: str,
        fk_allowed: bool = True,
    ) -> MaintenanceReport:
        # fk_allowed is irrelevant: every FK option is already off.
        return super().maintain(table, delta, operation, fk_allowed=False)

    def _compute_primary(
        self,
        table: str,
        delta: Table,
        mgraph: MaintenanceGraph,
        fk_allowed: bool,
        report: MaintenanceReport,
    ) -> Optional[Table]:
        # inside the pass: the report's clock and the maintain span both
        # cover the per-term deltas
        self._evaluate_all_term_deltas(table, delta)
        return super()._compute_primary(table, delta, mgraph, fk_allowed, report)

    def _evaluate_all_term_deltas(self, table: str, delta: Table) -> None:
        """Characteristic (c): evaluate ΔEᵢ from base tables for every
        term containing the updated table, with no pruning — many of these
        are provably empty, and GK computes them anyway."""
        from ..algebra.expr import Bound

        replacement = Bound(delta_label(table), over=(table,))
        bindings = {delta_label(table): delta}
        for term in self.graph.terms:
            if table not in term.source:
                continue
            evaluate_term(
                term,
                self.db,
                bindings=bindings,
                replacements={table: replacement},
            )
