"""The flight recorder: a bounded ring of recent events, dumped with the
newest spans when something goes wrong.

Production incidents are explained by telemetry that, by the time anyone
looks, has usually been evicted.  :class:`FlightRecorder` keeps the last
:data:`EVENT_CAPACITY` structured events in memory, cheap enough to leave
on, and **dumps** them with the newest :data:`DUMP_SPANS` finished root
spans of the tracer's ring (:attr:`repro.obs.tracing.Tracer.spans`, the
one span store; the recorder holds a reference to it, not a copy) to a
JSON artifact the moment something goes wrong — a view quarantine, a
degraded recovery, a shed change, a fuzz mismatch
(:data:`~repro.obs.events.DUMP_TRIGGERS`) — so the spans that explain
the incident are captured before the ring rolls over.  Spans are
serialized only at dump time.

Dumps are atomic (``.tmp`` + ``os.replace``), numbered on from the
newest ``flight-NNNNN`` already in the directory (a restarted process
does not overwrite the last one's), bounded in number (oldest deleted
beyond :data:`MAX_DUMPS`) and rate-limited
(:data:`DUMP_MIN_INTERVAL_SECONDS`) so an event storm — say, shedding
under sustained overload — cannot turn the dump directory into the
overload.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence

from .events import DUMP_TRIGGERS, Event

__all__ = ["FlightRecorder"]

#: Events the ring keeps.
EVENT_CAPACITY = 512
#: Newest finished root spans a dump serializes.
DUMP_SPANS = 256
#: Dump artifacts kept in the directory; older ones are deleted.
MAX_DUMPS = 16
#: Least seconds between two triggered dumps (a manual dump is exempt).
DUMP_MIN_INTERVAL_SECONDS = 1.0

_DUMP_NAME = re.compile(r"flight-(\d+)-.*\.json")


class FlightRecorder:
    """Bounded recent-event buffer with incident-triggered dumps of it
    and of the newest roots in *spans* (the tracer's ring).

    Thread-safe: scheduler workers, the dispatcher and the caller all
    report concurrently.
    """

    def __init__(
        self,
        spans: Sequence = (),
        dump_dir: Optional[str] = None,
        clock=time.monotonic,
    ):
        self.dump_dir = dump_dir
        self._spans = spans
        self._clock = clock
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=EVENT_CAPACITY)
        self.dump_count = 0
        self._last_dump_at: Optional[float] = None
        self.last_dump_path: Optional[str] = None

    def record_event(self, event: Event) -> Optional[str]:
        """Retain *event*; when its kind is a dump trigger and a dump
        directory is configured, write a dump and return its path."""
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

    def dump(
        self, reason: str = "manual", trigger: Optional[Event] = None
    ) -> Dict:
        """The event ring and the newest :data:`DUMP_SPANS` root spans
        as one JSON-serializable artifact."""
        spans = list(self._spans)[-DUMP_SPANS:]
        out: Dict = {
            "reason": reason,
            "dumped_at": time.time(),
            "events": [event.to_dict() for event in self.events],
            "spans": [span.to_dict() for span in spans],
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
                and now - self._last_dump_at < DUMP_MIN_INTERVAL_SECONDS
            ):
                return None
            self._last_dump_at = now
        text = json.dumps(self.dump(reason, trigger), indent=1) + "\n"
        with self._lock:
            try:
                # number on from the newest dump, whoever wrote it
                paths = self.dump_paths()
                last = int(_DUMP_NAME.fullmatch(os.path.basename(paths[-1]))[1]) if paths else 0
                name = f"flight-{last + 1:05d}-{reason.replace('.', '-')}.json"
                path = os.path.join(self.dump_dir, name)
                os.makedirs(self.dump_dir, exist_ok=True)
                tmp = path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp, path)
                self._prune_dumps()
            except OSError:
                return None
            self.dump_count += 1
            self.last_dump_path = path
        return path

    def _prune_dumps(self) -> None:
        for path in self.dump_paths()[:-MAX_DUMPS]:
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
            if _DUMP_NAME.fullmatch(name)
        ]
