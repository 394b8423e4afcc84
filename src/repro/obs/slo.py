"""SLO tracking: latency quantiles, error budgets, and burn rates.

The serving tier's goal is stated in SLO terms — "99.9% of maintenance
passes complete, p99 apply latency under X".  :class:`SLOTracker` keeps
no sample of its own; it reads the metrics registry when asked:

* **Latency quantiles** per phase — p50/p95/p99 from the buckets of the
  phase's histogram (:meth:`~repro.obs.metrics.Histogram.quantile`), so
  their resolution is the bucket bounds.
* **Error budgets** per view — over a one-hour window, the maintenance
  error counter against attempts (those errors plus completed passes):
  the error rate, the budget left, and the **burn rate**, the error rate
  over the budgeted rate ``1 - objective``.  Burn rate 1.0 spends the
  budget exactly as fast as the SLO allows; 14.4 is the classic "page
  now" threshold (budget gone in 1/14.4 of the window).

The window is read at scrape: each read of the budgets takes a reading
of those counters, and a small ring keeps one per :data:`READING_SPACING`
seconds.  The baseline is the newest reading at least one window old —
or zero, counting from construction, until one is.  The clock is
injectable so tests can step time deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

from .events import ERRORS, MAINTENANCE_SECONDS, PASSES, READ_SECONDS, WAREHOUSE_SECONDS

__all__ = ["SLOTracker", "PHASES", "DEFAULT_OBJECTIVE", "QUANTILES"]

#: Pipeline phases with latency SLOs (``read`` is the serving tier's
#: snapshot-query lane — see docs/SERVING.md): the histogram each reads,
#: and the labels its series must carry.
_LANES = {
    "apply": (WAREHOUSE_SECONDS, {"phase": "apply"}),
    "flush": (WAREHOUSE_SECONDS, {"phase": "flush"}),
    "maintenance": (MAINTENANCE_SECONDS, {}),
    "read": (READ_SECONDS, {}),
}
PHASES = tuple(_LANES)

#: Success-rate objective every view is held to: 99.9%.
DEFAULT_OBJECTIVE = 0.999

#: The sliding window of the error budgets, in seconds.
WINDOW_SECONDS = 3600.0

#: The ring keeps at most one counter reading per this many seconds.
READING_SPACING = WINDOW_SECONDS / 60

#: Quantiles surfaced in the dashboard and the exported gauges.
QUANTILES = (0.5, 0.95, 0.99)


class SLOTracker:
    """Sliding-window SLO state for the warehouse, read off *registry*."""

    objective = DEFAULT_OBJECTIVE
    window_seconds = WINDOW_SECONDS

    def __init__(self, registry, clock=time.time):
        self._registry = registry
        self._clock = clock
        self._lock = threading.Lock()
        # (time, {view: (errors, attempts)}), oldest first
        self._readings: List[Tuple[float, Dict[str, Tuple[float, float]]]] = []

    # ------------------------------------------------------------------
    # latency quantiles
    # ------------------------------------------------------------------
    def latency_quantiles(self, phase: str) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for *phase*."""
        family, match = _LANES[phase]
        histogram = self._registry.get(family.name)
        return {f"p{int(q * 100)}": histogram.quantile(q, **match) for q in QUANTILES}

    def phases(self) -> List[str]:
        """Phases with at least one observation (a quantile reads 0
        only without one), in declared order."""
        return [phase for phase in PHASES if self.latency_quantiles(phase)["p99"]]

    # ------------------------------------------------------------------
    # error budgets
    # ------------------------------------------------------------------
    def _window(self) -> Dict[str, Tuple[float, float]]:
        """view -> (errors, attempts) inside the window: the counters
        now, less the baseline reading."""
        errors = self._registry.get(ERRORS.name).sum_by("view")
        passes = self._registry.get(PASSES.name).sum_by("view")
        now_counts = {
            key[0]: (errors.get(key, 0.0), errors.get(key, 0.0) + passes.get(key, 0.0))
            for key in errors.keys() | passes.keys()
        }
        now = self._clock()
        with self._lock:
            readings = self._readings
            if not readings or now - readings[-1][0] >= READING_SPACING:
                readings.append((now, now_counts))
            old = [i for i, (at, _) in enumerate(readings) if at <= now - self.window_seconds]
            if old:
                del readings[: old[-1]]  # keep the baseline, drop what precedes it
            baseline = readings[0][1] if old else {}
        return {
            view: (errs - baseline.get(view, (0, 0))[0], tries - baseline.get(view, (0, 0))[1])
            for view, (errs, tries) in sorted(now_counts.items())
        }

    def _budget(self, errors: float, attempts: float) -> Dict:
        """The window's budget figures for one view.

        Burn rate 1.0 = consuming budget exactly at the sustainable pace;
        >1 exhausts the budget before the window rolls over; 0 = clean.
        The remaining budget is in [0, 1], and intact (1.0) with no
        attempts.
        """
        budget = 1.0 - self.objective
        rate = errors / attempts if attempts else 0.0
        return {
            "passes": int(attempts),
            "errors": int(errors),
            "error_rate": rate,
            "burn_rate": rate / budget,
            "budget_remaining": max(0.0, 1.0 - errors / (attempts * budget)) if attempts else 1.0,
        }

    # ------------------------------------------------------------------
    # surfacing
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Everything the dashboard shows, one JSON-friendly dict."""
        return {
            "objective": self.objective,
            "window_seconds": self.window_seconds,
            "latency": {phase: self.latency_quantiles(phase) for phase in self.phases()},
            "views": {view: self._budget(*counts) for view, counts in self._window().items()},
        }

    def export(self) -> None:
        """Refresh the SLO gauges in the registry from current state.

        Called just before exposition so scrapes always see fresh
        values; gauges (not counters) because quantiles and burn rates
        are point-in-time statistics, free to move in both directions.
        """
        latency = self._registry.gauge(
            "repro_slo_latency_seconds",
            "Phase latency quantile over every observation since the telemetry was built",
            ("phase", "quantile"),
        )
        burn = self._registry.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate per view (1.0 = budget pace)",
            ("view",),
        )
        remaining = self._registry.gauge(
            "repro_slo_error_budget_remaining",
            "Fraction of the error budget left in the sliding window",
            ("view",),
        )
        snapshot = self.snapshot()
        for phase, quantiles in snapshot["latency"].items():
            for name, value in quantiles.items():
                latency.set(value, phase=phase, quantile=name)
        for view, budget in snapshot["views"].items():
            burn.set(budget["burn_rate"], view=view)
            remaining.set(budget["budget_remaining"], view=view)
