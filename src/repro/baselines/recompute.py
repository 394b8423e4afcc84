"""Full-recompute baseline.

The simplest correct way to keep a materialized view fresh: re-evaluate
the whole view expression after every base-table update.  It serves two
roles in this repo — the correctness oracle every incremental strategy is
checked against, and the cost ceiling in benchmark output.
"""

from __future__ import annotations

import time
from typing import Iterable

from ..core.maintain import MaintenanceReport
from ..core.secondary import DELETE, INSERT
from ..core.view import MaterializedView, ViewDefinition
from ..engine.catalog import Database
from ..engine.table import Row


class RecomputeMaintainer:
    """Maintains a view by rematerializing it from scratch."""

    def __init__(self, db: Database, view: MaterializedView):
        self.db = db
        self.view = view
        self.definition: ViewDefinition = view.definition

    def insert(self, table: str, rows: Iterable[Row]) -> MaintenanceReport:
        delta = self.db.insert(table, rows)
        return self._refresh(table, len(delta), INSERT)

    def delete(self, table: str, rows: Iterable[Row]) -> MaintenanceReport:
        delta = self.db.delete(table, rows)
        return self._refresh(table, len(delta), DELETE)

    def _refresh(
        self, table: str, base_rows: int, operation: str
    ) -> MaintenanceReport:
        started = time.perf_counter()
        fresh = MaterializedView.materialize(self.definition, self.db)
        self.view.reset_to(fresh)
        return MaintenanceReport(
            view=self.definition.name,
            table=table,
            operation=operation,
            base_rows=base_rows,
            primary_rows=len(fresh),
            elapsed_seconds=time.perf_counter() - started,
        )

    def check_consistency(self) -> None:
        """Trivially consistent, by construction."""
