"""Aggregated outer-join views (paper Section 3.3).

An aggregated outer-join view is an SPOJ view with a GROUP BY on top.
Maintenance reuses the non-aggregated machinery — the same
:class:`~repro.core.maintain.MaintenancePlans`, so the same compiled,
cached plans: the primary delta ``ΔV^D`` is computed exactly as before,
aggregated, and merged into the stored groups; the secondary delta
``ΔV^I`` must be computed **from base tables** (Section 5.3) because
individual terms can no longer be extracted from aggregated rows.

Per the paper, every group carries a regular row count plus a **not-null
count for every table that is null-extended in some term**; rows whose
count reaches zero are deleted, and when the not-null count of table T
drops to zero all aggregates over T's columns become NULL.  (We also keep
exact per-aggregate non-null input counts, which give the same NULL
behaviour at column granularity; the per-table counts are what the paper's
SQL Server implementation stores and are exposed for inspection.)

Supported aggregates: COUNT(*), COUNT(col), SUM(col), AVG(col).  MIN/MAX
are not self-maintainable under deletions and are outside the paper's
scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..engine.catalog import Database
from ..engine.schema import Schema
from ..engine.table import Row, Table, next_version
from ..errors import MaintenanceError, UnsupportedViewError
from ..obs import Telemetry
from ..runtime.failpoints import FAILPOINTS
from .maintain import (
    MaintenanceOptions,
    MaintenancePlans,
    MaintenanceReport,
    SECONDARY_FROM_BASE,
    SharedResults,
    undo_pass,
)
from .secondary import INSERT
from .view import ViewDefinition

COUNT_STAR = "count"
COUNT = "count_col"
SUM = "sum"
AVG = "avg"

_KINDS = (COUNT_STAR, COUNT, SUM, AVG)


@dataclass(frozen=True)
class Aggregate:
    """One aggregate output: ``kind(column) AS alias``."""

    kind: str
    alias: str
    column: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedViewError(
                f"unsupported aggregate {self.kind!r}; the paper's scheme "
                f"covers {_KINDS}"
            )
        if self.kind != COUNT_STAR and self.column is None:
            raise UnsupportedViewError(f"{self.kind} needs a column")


def count_star(alias: str = "row_count") -> Aggregate:
    return Aggregate(COUNT_STAR, alias)


def count_col(column: str, alias: str) -> Aggregate:
    return Aggregate(COUNT, alias, column)


def agg_sum(column: str, alias: str) -> Aggregate:
    return Aggregate(SUM, alias, column)


def agg_avg(column: str, alias: str) -> Aggregate:
    return Aggregate(AVG, alias, column)


class _Group:
    """Mutable per-group state: counts and accumulators."""

    __slots__ = ("row_count", "notnull", "sums", "counts")

    def __init__(self, n_aggs: int, nullable_tables: Sequence[str]):
        self.row_count = 0
        self.notnull = {t: 0 for t in nullable_tables}
        self.sums = [0] * n_aggs
        self.counts = [0] * n_aggs

    def copy(self) -> "_Group":
        twin = _Group.__new__(_Group)
        twin.row_count = self.row_count
        twin.notnull = dict(self.notnull)
        twin.sums = list(self.sums)
        twin.counts = list(self.counts)
        return twin


class AggregatedView(MaintenancePlans):
    """A materialized GROUP BY over an SPOJ view's output columns,
    maintained incrementally."""

    def __init__(
        self,
        definition: ViewDefinition,
        group_by: Sequence[str],
        aggregates: Sequence[Aggregate],
        db: Database,
        telemetry: Optional[Telemetry] = None,
    ):
        definition.validate(db)
        super().__init__(
            db,
            definition,
            MaintenanceOptions(secondary_strategy=SECONDARY_FROM_BASE),
            telemetry,
        )
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

        terms = self.graph.terms
        always_present = frozenset.intersection(
            *[t.source for t in terms]
        ) if terms else frozenset()
        self.nullable_tables: Tuple[str, ...] = tuple(
            sorted(definition.tables - always_present)
        )
        self._table_key_col: Dict[str, str] = {
            t: db.table(t).key[0] for t in self.nullable_tables
        }

        output = definition.schema(db)
        for col in self.group_by:
            output.index_of(col)
        for agg in self.aggregates:
            if agg.column is not None:
                output.index_of(agg.column)

        self.groups: Dict[Row, _Group] = {}
        # Mutation-clock tick (see engine.table.next_version): advanced
        # by every fold and by wholesale ``groups`` replacement.
        self.version: int = next_version()
        self._populate()

    def bump_version(self) -> None:
        """Advance the mutation clock after a content change."""
        self.version = next_version()

    def rebuild(self, pool=None) -> None:
        """Recompute the group state from the current base tables, in
        place (aggregates are derived: recovery and repair re-fold them
        instead of persisting them; groups share no rows through *pool*)."""
        self.groups = {}
        self._populate()
        self.bump_version()

    # ------------------------------------------------------------------
    def _populate(self) -> None:
        self._fold(self.definition.evaluate(self.db), sign=1)

    def _fold(self, table: Table, sign: int) -> int:
        """Merge delta rows into the group store, all of them or none:
        the groups they touch are folded as copies, checked, and only
        then written back.  Returns rows folded; folding the same rows
        with ``-sign`` undoes it (COUNT, SUM and AVG all invert)."""
        schema = table.schema
        group_pos = [
            schema.index_of(c) if c in schema else None for c in self.group_by
        ]
        agg_pos = [
            schema.index_of(a.column)
            if a.column is not None and a.column in schema
            else None
            for a in self.aggregates
        ]
        null_pos = [
            (t, schema.index_of(col)) if col in schema else (t, None)
            for t, col in self._table_key_col.items()
        ]
        touched: Dict[Row, _Group] = {}
        for row in table.rows:
            key = tuple(
                row[p] if p is not None else None for p in group_pos
            )
            group = touched.get(key)
            if group is None:
                held = self.groups.get(key)
                group = touched[key] = (
                    held.copy()
                    if held is not None
                    else _Group(len(self.aggregates), self.nullable_tables)
                )
            group.row_count += sign
            for t, pos in null_pos:
                if pos is not None and row[pos] is not None:
                    group.notnull[t] += sign
            for i, agg in enumerate(self.aggregates):
                pos = agg_pos[i]
                value = row[pos] if pos is not None else None
                if agg.kind == COUNT_STAR:
                    continue
                if value is not None:
                    group.counts[i] += sign
                    if agg.kind in (SUM, AVG):
                        group.sums[i] += sign * value
        for key, group in touched.items():
            if group.row_count < 0 or (
                group.row_count == 0
                and (any(group.counts) or any(group.notnull.values()))
            ):
                raise MaintenanceError(
                    f"group {key!r} left with a negative row count or, "
                    "emptied, with dangling counters — inconsistent delta"
                )
        for key, group in touched.items():
            if group.row_count:
                self.groups[key] = group
            else:
                del self.groups[key]
        if table.rows:
            self.bump_version()
        return len(table.rows)

    # ------------------------------------------------------------------
    def rows(self) -> List[Row]:
        """Current contents: group-by values followed by aggregate values
        (NULL where no non-null input remains), sorted by group key."""
        out: List[Row] = []
        for key in sorted(self.groups, key=repr):
            group = self.groups[key]
            values: List[object] = list(key)
            for i, agg in enumerate(self.aggregates):
                if agg.kind == COUNT_STAR:
                    values.append(group.row_count)
                elif agg.kind == COUNT:
                    values.append(group.counts[i])
                elif agg.kind == SUM:
                    values.append(group.sums[i] if group.counts[i] else None)
                else:  # AVG
                    values.append(
                        group.sums[i] / group.counts[i]
                        if group.counts[i]
                        else None
                    )
            out.append(tuple(values))
        return out

    def as_table(self) -> Table:
        columns = list(self.group_by) + [
            f"agg.{a.alias}" for a in self.aggregates
        ]
        return Table(
            f"{self.definition.name}_agg", Schema(columns), self.rows()
        )

    def notnull_count(self, group_key: Row, table: str) -> int:
        """The paper's per-table not-null count for one group."""
        return self.groups[tuple(group_key)].notnull[table]

    # ------------------------------------------------------------------
    # maintenance (insert / delete / update come from MaintenancePlans)
    # ------------------------------------------------------------------
    def maintain(
        self, table: str, delta: Table, operation: str, fk_allowed: bool = True,
        shared: Optional[SharedResults] = None,
    ) -> MaintenanceReport:
        """Aggregate-and-merge maintenance: compute ΔV^D / ΔV^I for the
        underlying SPOJ view and fold them with the appropriate signs.
        Success and failure are metered like a plain view's, and a failed
        pass is undone like one (see :func:`~repro.core.maintain.undo_pass`)."""
        undo: List[Callable[[], int]] = []  # each fold's inverse, in order
        try:
            report = self._maintain(table, delta, operation, fk_allowed, undo, shared)
        except Exception:
            self.telemetry.emit(
                "maintenance.error",
                view=self.definition.name,
                table=table,
                operation=operation,
            )
            undo_pass(self, undo)
            raise
        self.telemetry.emit("maintenance.pass", report=report)
        return report

    def _maintain(
        self, table: str, delta: Table, operation: str, fk_allowed: bool,
        undo: List[Callable[[], int]], shared: Optional[SharedResults],
    ) -> MaintenanceReport:
        report = MaintenanceReport(
            view=self.definition.name,
            table=table,
            operation=operation,
            base_rows=len(delta),
        )
        if table not in self.definition.tables or not len(delta):
            return report

        record = self.pass_record(table, operation, fk_allowed)
        report.direct_terms = list(record.direct)
        report.indirect_terms = [s[1] for s in record.secondaries]
        primary = self._compute_primary(record, table, delta, shared)
        report.primary_skipped = primary is None
        if primary is None:
            return report

        sign = 1 if operation == INSERT else -1
        report.primary_rows = self._fold(primary, sign)
        undo.append(partial(self._fold, primary, -sign))
        FAILPOINTS.hit(
            "maintain.pass",
            view=self.definition.name,
            table=table,
            operation=operation,
        )
        for term, label, key in record.secondaries:
            rows = self._secondary_base_rows(
                record, term, key, primary, operation, table, delta
            )
            report.secondary_rows[label] = self._fold(rows, -sign)
            undo.append(partial(self._fold, rows, sign))
        return report

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Compare against the recompute oracle; float aggregates are
        compared with a relative tolerance because incremental and batch
        summation accumulate rounding in different orders."""
        import math

        mine = self.rows()
        fresh = AggregatedView(self.definition, self.group_by, self.aggregates, self.db).rows()
        if len(mine) != len(fresh):
            raise MaintenanceError(
                f"aggregated view {self.definition.name!r} diverged from "
                f"recompute: {len(mine)} vs {len(fresh)} groups"
            )
        for row_a, row_b in zip(mine, fresh):
            for a, b in zip(row_a, row_b):
                if isinstance(a, float) and isinstance(b, float):
                    same = math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
                else:
                    same = a == b
                if not same:
                    raise MaintenanceError(
                        f"aggregated view {self.definition.name!r} diverged "
                        f"from recompute: {row_a} vs {row_b}"
                    )
