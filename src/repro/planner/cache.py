"""The physical plan cache.

A compiled maintenance plan is a fixed fact of its view, like the
stored procedure the paper compiles when the view is created: it holds
no table or index object.  Relation scans read ``ctx.db.table(name)``
live, and the join operator picks its probe index on every execution, so
an index created (or a table restored) after compilation is seen by the
plan's next run with nothing recompiled.  The cache is therefore a plain
keyed store; the maintainers key it by plan kind, table, term, operation
and ``fk_allowed``.

The maintainers store compiled plans only: maintenance has no other
executor, so nothing is cached as "uncompilable" — a compile error fails
the pass that asked for the plan and leaves the cache as it was.
"""

from __future__ import annotations

from typing import Dict, Hashable

CacheKey = Hashable


class PlanCache:
    """A map from plan keys to compiled plans, counting hits and misses."""

    def __init__(self):
        self._entries: Dict[CacheKey, object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey):
        """The plan stored under *key*, or ``None`` (a miss)."""
        plan = self._entries.get(key)
        if plan is None:
            self.misses += 1
        else:
            self.hits += 1
        return plan

    def store(self, key: CacheKey, plan) -> None:
        """Cache *plan* — a :class:`~repro.planner.compile.CompiledPlan`
        or a compiled secondary-delta plan — under *key*."""
        self._entries[key] = plan

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanCache({len(self._entries)} plans, {self.hits} hits, "
            f"{self.misses} misses)"
        )
