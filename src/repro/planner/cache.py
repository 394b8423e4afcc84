"""The physical plan cache.

Maintenance plans depend on two mutable inputs besides the view
definition: the :class:`~repro.core.maintain.MaintenanceOptions` (which
pick the logical tree) and the set of persistent indexes (which the
join operator probes instead of hashing an input — and which the
planner itself may have provisioned).  Each cached entry therefore
carries a *fingerprint* of both; a lookup whose fingerprint differs is a
miss and triggers recompilation.

The maintainers store compiled plans only: maintenance has no other
executor, so nothing is cached as "uncompilable" — a compile error fails
the pass that asked for the plan and leaves the cache as it was.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

CacheKey = Hashable
Fingerprint = Hashable
Entry = Tuple[Fingerprint, object]

_MISSING = object()


class PlanCache:
    """A fingerprinted map from plan keys to compiled plans."""

    def __init__(self):
        self._entries: Dict[CacheKey, Entry] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey, fingerprint: Fingerprint):
        """``(found, plan)`` — *found* is True only when an entry exists
        under *key* **and** its fingerprint matches."""
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING or entry[0] != fingerprint:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, entry[1]

    def store(self, key: CacheKey, fingerprint: Fingerprint, plan) -> None:
        """Cache *plan* — a :class:`~repro.planner.compile.CompiledPlan`
        or a compiled secondary-delta plan — under *key*."""
        self._entries[key] = (fingerprint, plan)

    def invalidate(self) -> None:
        """Drop every entry (fingerprints make this rarely necessary)."""
        self._entries.clear()

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
