"""Per-view health aggregation: registry counts + spans → a text dashboard.

:class:`Dashboard` renders a plain-text health summary — p50/p95
maintenance latency, rows touched, the secondary-strategy mix, the
foreign-key shortcut hit rate, per-phase costs and the slowest secondary
terms.  Counts come from the metrics registry; of every finished pass
(the :class:`~repro.core.maintain.MaintenanceReport` and, when tracing is
on, its ``maintain`` span) it keeps only a latency series and the span's
phase/term durations.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Dict, List, Optional

from .events import (
    BASE_ROWS,
    CHECKPOINT_TOTAL,
    ERRORS,
    FK_SHORTCUT,
    LOAD_SHED,
    PASSES,
    ROWS_CHANGED,
    SECONDARY_STRATEGY,
    VIEW_QUARANTINES,
    VIEW_RETRIES,
    WAL_COMPACTIONS,
    WAL_SEGMENTS_DELETED,
)

__all__ = ["Dashboard", "percentile"]

#: latency samples kept per view: the newest, as in :mod:`repro.obs.slo`
MAX_LATENCY_SAMPLES = 4096


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile of *values* (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class _Agg:
    """count / total / max accumulator."""

    __slots__ = ("count", "total", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def avg(self) -> float:
        return self.total / self.count if self.count else 0.0


class _ViewSeries:
    """What a counter cannot hold, per view."""

    def __init__(self):
        self.quarantine_reason: Optional[str] = None
        self.latencies: deque = deque(maxlen=MAX_LATENCY_SAMPLES)
        self.phases: Dict[str, _Agg] = {}
        self.terms: Dict[str, _Agg] = {}


class Dashboard:
    """Renders maintenance activity as text.

    Every plain count is read from the metrics *registry* (the one store
    the occurrence table writes); the dashboard itself keeps only
    latency samples, span-derived phase/term aggregates, the current
    quarantine reasons and the quarantined segment names.
    """

    def __init__(self, registry):
        self._registry = registry
        self._lock = threading.Lock()  # the dispatcher folds; HTTP reads
        self._views: Dict[str, _ViewSeries] = {}
        self._segments_quarantined: List[str] = []

    # ------------------------------------------------------------------
    # feeding (the ``fold`` targets of the occurrence table)
    # ------------------------------------------------------------------
    def _series(self, view: str) -> _ViewSeries:
        series = self._views.get(view)
        if series is None:
            series = _ViewSeries()
            self._views[view] = series
        return series

    def fold_pass(self, report, span=None) -> None:
        """One finished maintenance pass: its latency sample and, when
        tracing is on, the ``phases`` and ``terms`` its span carries."""
        attributes = span.attributes if span is not None else {}
        with self._lock:
            s = self._series(report.view)
            s.latencies.append(report.elapsed_seconds)
            for phase, seconds in attributes.get("phases", {}).items():
                s.phases.setdefault(phase, _Agg()).add(seconds)
            for term, detail in attributes.get("terms", {}).items():
                s.phases.setdefault("secondary", _Agg()).add(detail["seconds"])
                s.terms.setdefault(term, _Agg()).add(detail["seconds"])

    def quarantine(self, view: str, reason: str) -> None:
        """The scheduler quarantined *view*; it is stale until repaired."""
        with self._lock:
            self._series(view).quarantine_reason = reason

    def clear_quarantine(self, view: str) -> None:
        """The view was repaired and reinstated into the fan-out."""
        with self._lock:
            self._series(view).quarantine_reason = None

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
        for family in (PASSES, ERRORS, VIEW_RETRIES, VIEW_QUARANTINES):
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
            return {
                view: s.quarantine_reason
                for view, s in sorted(self._views.items())
                if s.quarantine_reason is not None
            }

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
        """Per-view retry/quarantine counters for the runtime layer."""
        rows = self._per_view({"retries": VIEW_RETRIES, "quarantines": VIEW_QUARANTINES})
        return {view: row for view, row in rows.items() if any(row.values())}

    def latency_percentiles(self, view: str) -> Dict[str, float]:
        with self._lock:
            s = self._views.get(view)
            samples = list(s.latencies) if s else []
        return {"p50": percentile(samples, 0.50), "p95": percentile(samples, 0.95)}

    def observed_phases(
        self, view: str, phase: Optional[str] = None
    ) -> Dict[str, Dict[str, float]]:
        """Per-phase measured costs for *view*: avg/max seconds, count."""
        with self._lock:
            s = self._views.get(view)
            return {
                name: {"count": agg.count, "avg": agg.avg, "max": agg.max}
                for name, agg in (s.phases.items() if s else ())
                if phase is None or name == phase
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
                    f"  reliability    : {r['retries']} retries, "
                    f"{r['quarantines']} quarantines ({status})"
                )
            by_table = ", ".join(
                f"{table}: {n} passes/{table_rows.get(view, {}).get(table, 0)} rows"
                for table, n in sorted(table_passes.get(view, {}).items())
            )
            lines.append(f"  tables         : {by_table or '(none)'}")
            lines.extend(self._render_span_detail(view))
        return "\n".join(lines)

    def _render_span_detail(self, view: str) -> List[str]:
        lines: List[str] = []
        with self._lock:
            s = self._views.get(view)
            phases = sorted(s.phases.items()) if s else []
            terms = sorted(s.terms.items(), key=lambda kv: -kv[1].max)[:5] if s else []
        if phases:
            rendered = ", ".join(f"{name} {agg.avg * 1000:.2f}ms avg" for name, agg in phases)
            lines.append(f"  phases         : {rendered}")
        if terms:
            rendered = ", ".join(f"{term} max {agg.max * 1000:.2f}ms" for term, agg in terms)
            lines.append(f"  slowest terms  : {rendered}")
        return lines
