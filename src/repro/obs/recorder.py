"""The flight recorder: a bounded ring of recent spans and events.

Production incidents are explained by telemetry that, by the time anyone
looks, has usually been evicted.  :class:`FlightRecorder` keeps the last
*span_capacity* finished root spans and the last *event_capacity*
structured events in memory, cheap enough to leave on, and **dumps** the
whole ring to a JSON artifact the moment something goes wrong — a view
quarantine, a degraded recovery, a shed change, a fuzz mismatch
(:data:`~repro.obs.events.DUMP_TRIGGERS`) — so the spans that explain
the incident are captured before the ring rolls over.

Steady-state overhead is bounded two ways:

* spans are retained as live :class:`~repro.obs.tracing.Span` objects
  (a deque append); serialization happens only at dump time;
* **adaptive sampling** — when the recent span arrival rate exceeds
  ``sample_target_hz``, only every *k*-th OK span is retained, with *k*
  chosen each second so the retained rate lands back on target.  Spans
  that carry an error anywhere in their tree are always retained: the
  recorder exists for exactly those.

Dumps are atomic (``.tmp`` + ``os.replace``), bounded in number
(oldest deleted beyond ``max_dumps``) and rate-limited
(``dump_min_interval_seconds``) so an event storm — say, shedding under
sustained overload — cannot turn the dump directory into the overload.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from .events import DUMP_TRIGGERS, Event

__all__ = ["FlightRecorder", "span_has_error"]


def span_has_error(span) -> bool:
    """True when *span* or any descendant finished with error status."""
    if getattr(span, "status", "ok") == "error":
        return True
    return any(span_has_error(child) for child in getattr(span, "children", ()))


class FlightRecorder:
    """Bounded recent-history buffer with incident-triggered dumps.

    Registered as a tracing sink (it exposes ``emit``), so finished root
    spans stream in next to the events the :class:`~repro.obs.Telemetry`
    recorders feed it.  Thread-safe: scheduler workers, the dispatcher
    and the caller all report concurrently.
    """

    def __init__(
        self,
        span_capacity: int = 256,
        event_capacity: int = 512,
        dump_dir: Optional[str] = None,
        max_dumps: int = 16,
        sample_target_hz: float = 200.0,
        dump_min_interval_seconds: float = 1.0,
        clock=time.monotonic,
    ):
        self.span_capacity = max(0, int(span_capacity))
        self.event_capacity = max(0, int(event_capacity))
        self.dump_dir = dump_dir
        self.max_dumps = max(1, int(max_dumps))
        self.sample_target_hz = float(sample_target_hz)
        self.dump_min_interval_seconds = float(dump_min_interval_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=self.span_capacity or None)
        self._events: deque = deque(maxlen=self.event_capacity or None)
        # adaptive sampling state: spans seen in the current 1s window
        self._window_start = clock()
        self._window_seen = 0
        self._stride = 1
        self._tick = 0
        self.spans_seen = 0
        self.spans_sampled = 0
        self.dump_count = 0
        self._dump_seq = 0
        self._last_dump_at: Optional[float] = None
        self.last_dump_path: Optional[str] = None

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def emit(self, span) -> None:
        """Tracing-sink hook: one finished root span."""
        if self.span_capacity == 0:
            return
        with self._lock:
            self.spans_seen += 1
            now = self._clock()
            elapsed = now - self._window_start
            self._window_seen += 1
            if elapsed >= 1.0:
                rate = self._window_seen / elapsed
                self._stride = max(
                    1, int(rate / self.sample_target_hz)
                ) if self.sample_target_hz > 0 else 1
                self._window_start = now
                self._window_seen = 0
            self._tick += 1
            if self._tick % self._stride and not span_has_error(span):
                return
            self.spans_sampled += 1
            self._spans.append(span)

    def record_event(self, event: Event) -> Optional[str]:
        """Retain *event*; when its kind is a dump trigger and a dump
        directory is configured, dump the ring and return the path."""
        if self.event_capacity:
            with self._lock:
                self._events.append(event)
        if event.kind in DUMP_TRIGGERS and self.dump_dir:
            return self.dump_to_file(reason=event.kind, trigger=event)
        return None

    # ------------------------------------------------------------------
    # reading / dumping
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Event]:
        with self._lock:
            return list(self._events)

    @property
    def spans(self) -> List:
        with self._lock:
            return list(self._spans)

    @property
    def sample_stride(self) -> int:
        """Current decimation factor (1 = every span retained)."""
        with self._lock:
            return self._stride

    def dump(
        self, reason: str = "manual", trigger: Optional[Event] = None
    ) -> Dict:
        """The whole ring as one JSON-serializable artifact."""
        with self._lock:
            spans = [span.to_dict() for span in self._spans]
            events = [event.to_dict() for event in self._events]
            sampled, seen = self.spans_sampled, self.spans_seen
        out: Dict = {
            "reason": reason,
            "dumped_at": time.time(),
            "spans_seen": seen,
            "spans_sampled": sampled,
            "events": events,
            "spans": spans,
        }
        if trigger is not None:
            out["trigger"] = trigger.to_dict()
        return out

    def dump_to_file(
        self, reason: str = "manual", trigger: Optional[Event] = None
    ) -> Optional[str]:
        """Atomically write :meth:`dump` into the dump directory.

        Returns the artifact path, or ``None`` when no directory is
        configured or the rate limit suppressed this dump.  Never
        raises: a full disk must not take the maintenance path down.
        """
        if not self.dump_dir:
            return None
        now = self._clock()
        with self._lock:
            if (
                reason != "manual"
                and self._last_dump_at is not None
                and now - self._last_dump_at
                < self.dump_min_interval_seconds
            ):
                return None
            self._last_dump_at = now
            self._dump_seq += 1
            seq = self._dump_seq
        artifact = self.dump(reason, trigger)
        name = f"flight-{seq:05d}-{reason.replace('.', '-')}.json"
        path = os.path.join(self.dump_dir, name)
        try:
            os.makedirs(self.dump_dir, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, indent=1)
                handle.write("\n")
            os.replace(tmp, path)
            self._prune_dumps()
        except OSError:
            return None
        with self._lock:
            self.dump_count += 1
            self.last_dump_path = path
        return path

    def _prune_dumps(self) -> None:
        for path in self.dump_paths()[: -self.max_dumps]:
            try:
                os.remove(path)
            except OSError:
                pass

    def dump_paths(self) -> List[str]:
        """Existing dump artifacts, oldest first."""
        if not self.dump_dir or not os.path.isdir(self.dump_dir):
            return []
        return [
            os.path.join(self.dump_dir, name)
            for name in sorted(os.listdir(self.dump_dir))
            if name.startswith("flight-") and name.endswith(".json")
        ]
