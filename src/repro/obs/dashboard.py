"""Per-view health aggregation: registry counts + spans → a text dashboard.

:class:`Dashboard` renders a plain-text health summary — p50/p95
maintenance latency, rows touched, the secondary-strategy mix, the
foreign-key shortcut hit rate, per-phase costs and the slowest secondary
terms.  Counts and latency quantiles come from the metrics registry;
phase and term costs are folded, when read, from the ``maintain`` spans
in the tracer's ring of finished root spans.  The dashboard itself keeps
only what neither can hold: current quarantine reasons and quarantined
segment names.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from .events import (
    BASE_ROWS,
    CHECKPOINT_TOTAL,
    ERRORS,
    FK_SHORTCUT,
    LOAD_SHED,
    MAINTENANCE_SECONDS,
    PASSES,
    ROWS_CHANGED,
    SECONDARY_STRATEGY,
    VIEW_QUARANTINES,
    WAL_COMPACTIONS,
    WAL_SEGMENTS_DELETED,
)
from .tracing import STATUS_OK

__all__ = ["Dashboard"]


def _maintain_spans(spans):
    """Every ``maintain`` span in the trees under *spans*, oldest first."""
    for span in spans:
        if span.name == "maintain":
            yield span
        yield from _maintain_spans(span.children)


def _summaries(seconds: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
    return {n: {"count": len(s), "avg": sum(s) / len(s), "max": max(s)} for n, s in seconds.items()}


class Dashboard:
    """Renders maintenance activity as text.

    Every count and latency is read from the metrics *registry* (the one
    store the occurrence table writes), every phase and term cost from
    the tracer's ring of root *spans*; the dashboard itself keeps only the
    current quarantine reasons and the quarantined segment names.
    """

    def __init__(self, registry, spans):
        self._registry = registry
        self._spans = spans
        self._lock = threading.Lock()  # the dispatcher folds; HTTP reads
        self._quarantined: Dict[str, str] = {}
        self._segments_quarantined: List[str] = []

    # ------------------------------------------------------------------
    # feeding (the ``fold`` targets of the occurrence table)
    # ------------------------------------------------------------------
    def quarantine(self, view: str, reason: str) -> None:
        """The scheduler quarantined *view*; it is stale until repaired."""
        with self._lock:
            self._quarantined[view] = reason

    def clear_quarantine(self, view: str) -> None:
        """The view was repaired and reinstated into the fan-out."""
        with self._lock:
            self._quarantined.pop(view, None)

    def segment_quarantined(self, segment: str) -> None:
        """A WAL segment failed verification and was moved aside."""
        with self._lock:
            self._segments_quarantined.append(segment)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _count(self, family, *by: str) -> Dict:
        """Registry totals of *family* per value(s) of the labels *by*
        (one label: keyed by the bare value)."""
        sums = self._registry.get(family.name).sum_by(*by)
        return {key[0] if len(by) == 1 else key: int(n) for key, n in sums.items()}

    @property
    def views(self) -> List[str]:
        seen = set()
        for family in (PASSES, ERRORS, VIEW_QUARANTINES):
            seen.update(self._count(family, "view"))
        return sorted(seen)

    def _total(self, family) -> int:
        return int(self._registry.get(family.name).total())

    def _per_view(self, columns: Dict) -> Dict[str, Dict[str, int]]:
        counts = {name: self._count(family, "view") for name, family in columns.items()}
        return {
            view: {name: counts[name].get(view, 0) for name in columns} for view in self.views
        }

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Machine-readable per-view totals (used by tests and CI)."""
        return self._per_view(
            {
                "passes": PASSES,
                "errors": ERRORS,
                "rows_changed": ROWS_CHANGED,
                "base_rows": BASE_ROWS,
                "fk_skips": FK_SHORTCUT,
            }
        )

    def quarantined(self) -> Dict[str, str]:
        """Currently quarantined views and why (kept out of
        :meth:`totals`, whose shape is pinned by tests and CI)."""
        with self._lock:
            return dict(sorted(self._quarantined.items()))

    def durability(self) -> Dict:
        """Warehouse-wide durability/backpressure counters (kept out of
        :meth:`totals`, whose shape is pinned by tests and CI)."""
        with self._lock:
            segments = list(self._segments_quarantined)
        return {
            "checkpoints": self._count(CHECKPOINT_TOTAL, "outcome").get("written", 0),
            "compactions": self._total(WAL_COMPACTIONS),
            "segments_deleted": self._total(WAL_SEGMENTS_DELETED),
            "segments_quarantined": segments,
            "load_sheds": self._total(LOAD_SHED),
        }

    def reliability(self) -> Dict[str, Dict[str, int]]:
        """Per-view quarantine counts for the runtime layer."""
        rows = self._per_view({"quarantines": VIEW_QUARANTINES})
        return {view: row for view, row in rows.items() if any(row.values())}

    def latency_percentiles(self, view: str) -> Dict[str, float]:
        """p50/p95 of *view*'s passes, from the buckets of the
        maintenance-seconds histogram."""
        histogram = self._registry.get(MAINTENANCE_SECONDS.name)
        return {name: histogram.quantile(q, view=view) for name, q in (("p50", 0.5), ("p95", 0.95))}

    def pass_costs(self) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
        """view -> ``{"phases": ..., "terms": ...}``, each name -> count,
        avg and max seconds: the ``phases`` and ``terms`` of every
        finished ``maintain`` span the tracer's ring retains (a term's
        seconds also count towards the ``secondary`` phase)."""
        seconds: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
        for span in _maintain_spans(list(self._spans)):
            if span.status != STATUS_OK:
                continue
            view = seconds.setdefault(span.attributes["view"], {"phases": {}, "terms": {}})
            for phase, spent in span.attributes["phases"].items():
                view["phases"].setdefault(phase, []).append(spent)
            for term, detail in span.attributes["terms"].items():
                view["phases"].setdefault("secondary", []).append(detail["seconds"])
                view["terms"].setdefault(term, []).append(detail["seconds"])
        return {
            view: {part: _summaries(by_name) for part, by_name in parts.items()}
            for view, parts in seconds.items()
        }

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def _breakdown(self, family, by: str) -> Dict[str, Dict[str, int]]:
        """view -> {value of label *by* -> count} for *family*."""
        out: Dict[str, Dict[str, int]] = {}
        for (view, value), n in self._count(family, "view", by).items():
            out.setdefault(view, {})[value] = n
        return out

    def render(self) -> str:
        totals = self.totals()
        if not totals:
            return "== Maintenance dashboard ==\n(no maintenance activity recorded)"
        lines: List[str] = ["== Maintenance dashboard =="]
        header = (
            f"{'view':<20} {'passes':>6} {'errors':>6} {'p50 ms':>8} "
            f"{'p95 ms':>8} {'rows±':>8} {'base':>8} {'fk-skip%':>8}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for view, t in totals.items():
            pct = self.latency_percentiles(view)
            skip_rate = 100.0 * t["fk_skips"] / t["passes"] if t["passes"] else 0.0
            lines.append(
                f"{view:<20} {t['passes']:>6} {t['errors']:>6} "
                f"{pct['p50'] * 1000:>8.2f} {pct['p95'] * 1000:>8.2f} "
                f"{t['rows_changed']:>8} {t['base_rows']:>8} {skip_rate:>7.1f}%"
            )
        quarantined = self.quarantined()
        if quarantined:
            lines.append("")
            lines.append("!! quarantined (stale, excluded from fan-out):")
            for view, reason in quarantined.items():
                lines.append(f"  {view}: {reason}")
        d = self.durability()
        if d["checkpoints"] or d["compactions"] or d["segments_quarantined"] or d["load_sheds"]:
            lines.append("")
            lines.append("-- durability --")
            lines.append(f"  checkpoints    : {d['checkpoints']} written")
            lines.append(
                f"  compactions    : {d['compactions']} passes, "
                f"{d['segments_deleted']} segments deleted"
            )
            if d["segments_quarantined"]:
                names = ", ".join(d["segments_quarantined"])
                lines.append(f"  corrupt wal    : {names}")
            if d["load_sheds"]:
                lines.append(f"  load sheds     : {d['load_sheds']} changes rejected")
        reliability = self.reliability()
        costs = self.pass_costs()
        operations = self._breakdown(PASSES, "operation")
        strategies = self._breakdown(SECONDARY_STRATEGY, "strategy")
        table_passes = self._breakdown(PASSES, "table")
        table_rows = self._breakdown(ROWS_CHANGED, "table")
        for view, t in totals.items():
            lines += ["", f"-- {view} --"]
            ops = ", ".join(f"{op}={n}" for op, n in sorted(operations.get(view, {}).items()))
            lines.append(f"  operations     : {ops or '(none)'}")
            mix = strategies.get(view)
            if mix:
                total = sum(mix.values())
                shares = ", ".join(
                    f"{name}={100.0 * n / total:.0f}%" for name, n in sorted(mix.items())
                )
                lines.append(f"  secondary mix  : {shares} ({total} term deltas)")
            else:
                lines.append("  secondary mix  : (no secondary deltas)")
            lines.append(
                f"  fk-shortcut    : {t['fk_skips']}/{t['passes']} passes primary-skipped"
            )
            if view in reliability:
                status = "QUARANTINED" if view in quarantined else "healthy"
                r = reliability[view]
                lines.append(
                    f"  reliability    : {r['quarantines']} quarantines ({status})"
                )
            by_table = ", ".join(
                f"{table}: {n} passes/{table_rows.get(view, {}).get(table, 0)} rows"
                for table, n in sorted(table_passes.get(view, {}).items())
            )
            lines.append(f"  tables         : {by_table or '(none)'}")
            lines.extend(_render_costs(costs.get(view)))
        return "\n".join(lines)


def _render_costs(costs) -> List[str]:
    """The ``phases`` line (average per phase) and the ``slowest terms``
    line (the five terms with the longest single pass) of one view."""
    if not costs:
        return []
    lines: List[str] = []
    phases = sorted(costs["phases"].items())
    terms = sorted(costs["terms"].items(), key=lambda kv: -kv[1]["max"])[:5]
    if phases:
        rendered = ", ".join(f"{name} {c['avg'] * 1000:.2f}ms avg" for name, c in phases)
        lines.append(f"  phases         : {rendered}")
    if terms:
        rendered = ", ".join(f"{term} max {c['max'] * 1000:.2f}ms" for term, c in terms)
        lines.append(f"  slowest terms  : {rendered}")
    return lines
