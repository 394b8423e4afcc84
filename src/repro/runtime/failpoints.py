"""Deterministic fault injection for crash and failure testing.

A *failpoint* is a named hook compiled into the runtime's crash-relevant
code paths.  Production code calls :meth:`Failpoints.hit` at each site;
the call is a dictionary miss (near-zero cost) unless a test or the fuzz
harness has *armed* the site with one of three actions:

* ``"raise"`` — raise :class:`InjectedFault` at the site, simulating a
  crash (WAL append, fan-out start) or a failing maintenance pass
  (which quarantines its view);
* ``"skip"`` — make the site skip its own effect; the site observes this
  through the boolean return value of :meth:`~Failpoints.hit`.  Used to
  drop a WAL acknowledgement so the entry stays pending and recovery has
  real work to do;
* ``"call"`` — invoke an arbitrary callback with the site's context
  (the callback may raise to fail the site, mutate shared state, or
  record what it saw).

The instrumented sites are declared in :data:`SITES` (name → where it
fires and what a crash there leaves behind); arming any other name is a
:class:`ValueError`, so a typo cannot arm nothing and pass vacuously.

Arming is match-filtered: ``arm("maintain.pass", view="v0", times=1)``
fires only for the hit whose context has ``view == "v0"``, exactly once.
Every hit of every *armed* failpoint is counted in :attr:`hits`
regardless of action, so tests can assert an injection actually ran.

The global registry :data:`FAILPOINTS` is what the instrumented sites
consult.  Tests should use the :meth:`~Failpoints.armed` context manager
(or call :meth:`~Failpoints.reset` in teardown) so no arm leaks into
other tests.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import ReproError

__all__ = ["InjectedFault", "Failpoints", "FAILPOINTS", "SITES"]

#: Every instrumented site: name -> where it fires (context keys in
#: parentheses) and what the window means.
SITES: Dict[str, str] = {
    "wal.append": "WriteAheadLog.journal, per change before the record "
    "is written (table, operation): the base table changed, the log "
    "never heard",
    "wal.ack": "WriteAheadLog.ack, before the ack record (lsn): fan-out "
    "done, acknowledgement not durable; skip leaves the entry pending",
    "wal.fsync": "WriteAheadLog._fsync, before os.fsync (segment): the "
    "device fails to make the log durable",
    "wal.compact": "WriteAheadLog.compact, before the marker (through): "
    "a crash at compaction start leaves every segment intact",
    "wal.compact.unlink": "before each covered segment is deleted (seq): "
    "durable marker plus stale segments, self-healed by the next open",
    "scheduler.fanout": "MaintenanceScheduler._execute (table, "
    "operation): change applied and logged, no view maintained yet",
    "maintain.pass": "ViewMaintainer / AggregatedView maintain, inside "
    "the root span after the primary apply (view, table, operation): a "
    "half-applied pass, which undoes itself, leaves the view pre-change "
    "and quarantines it",
    "checkpoint.write": "CheckpointManager.write, tmp file fsynced but "
    "not yet renamed (seq, lsn): the atomic-rename window",
    "checkpoint.prune": "same method, new file published, redundant "
    "ones not yet removed (seq, lsn): new restore point durable",
    "shard.worker.kill": "thread-backend serve loop, before a command "
    "runs (shard, cmd): raise = abrupt death, the stand-in for SIGKILL",
    "shard.worker.stall": "same loop, action='call' with a sleeping "
    "callback: the worker hangs past the facade's call deadline",
    "shard.pipe.drop": "same loop, after the command ran: the reply is "
    "lost and the connection dies (skip)",
    "txn.coordinator.prepared": "ShardedWarehouse._txn_prepare, every "
    "participant prepared, no decision record (txn): must abort everywhere",
    "txn.coordinator.decided": "ShardedWarehouse._txn_commit, decision "
    "durable, no commit sent (txn): recover() must commit everywhere",
    "txn.coordinator.commit": "same method, before each per-shard commit "
    "send (txn, shard): committed prefix, in-doubt suffix",
}

RAISE = "raise"
SKIP = "skip"
CALL = "call"
_ACTIONS = (RAISE, SKIP, CALL)


class InjectedFault(ReproError):
    """A failure injected through an armed failpoint."""


@dataclass
class _Arm:
    action: str
    times: Optional[int]  # None = fire forever
    callback: Optional[Callable[..., None]]
    match: Dict[str, object]
    message: str
    fired: int = 0

    def matches(self, context: Dict[str, object]) -> bool:
        return all(context.get(k) == v for k, v in self.match.items())


class Failpoints:
    """A registry of armable fault-injection sites (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._arms: Dict[str, List[_Arm]] = {}
        self.hits: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(
        self,
        name: str,
        action: str = RAISE,
        times: Optional[int] = 1,
        callback: Optional[Callable[..., None]] = None,
        message: str = "",
        **match,
    ) -> None:
        """Arm *name*.  The arm fires on the next *times* hits whose
        context matches every ``match`` keyword (``times=None`` means
        forever).  Multiple arms on one site stack; the first matching,
        unexhausted arm wins."""
        if name not in SITES:
            raise ValueError(f"unknown failpoint {name!r}; see SITES")
        if action not in _ACTIONS:
            raise ValueError(f"unknown failpoint action {action!r}")
        if action == CALL and callback is None:
            raise ValueError("action='call' requires a callback")
        with self._lock:
            self._arms.setdefault(name, []).append(
                _Arm(action, times, callback, dict(match), message)
            )

    def disarm(self, name: str) -> None:
        with self._lock:
            self._arms.pop(name, None)

    def reset(self) -> None:
        """Disarm every site and zero the hit counters."""
        with self._lock:
            self._arms.clear()
            self.hits.clear()

    @contextmanager
    def armed(self, name: str, **kwargs):
        """``with FAILPOINTS.armed("wal.ack", action="skip"): ...`` —
        arm for the duration of the block, then disarm the site."""
        self.arm(name, **kwargs)
        try:
            yield self
        finally:
            self.disarm(name)

    # ------------------------------------------------------------------
    # the hook the runtime calls
    # ------------------------------------------------------------------
    def hit(self, name: str, **context) -> bool:
        """Consult the failpoint *name*.  Returns True when the site
        should skip its own effect; raises :class:`InjectedFault` when
        armed to fail; otherwise returns False."""
        with self._lock:
            arms = self._arms.get(name)
            if not arms:
                return False
            chosen: Optional[_Arm] = None
            for arm in arms:
                exhausted = arm.times is not None and arm.fired >= arm.times
                if not exhausted and arm.matches(context):
                    chosen = arm
                    break
            if chosen is None:
                return False
            chosen.fired += 1
            self.hits[name] = self.hits.get(name, 0) + 1
            action, callback, message = (
                chosen.action, chosen.callback, chosen.message
            )
        if action == SKIP:
            return True
        if action == CALL:
            assert callback is not None
            callback(**context)
            return False
        detail = f": {message}" if message else ""
        raise InjectedFault(
            f"failpoint {name!r} fired ({context or 'no context'}){detail}"
        )

    def fired(self, name: str) -> int:
        """How many times an armed *name* actually fired."""
        with self._lock:
            return self.hits.get(name, 0)


#: The process-wide registry consulted by the instrumented runtime sites.
FAILPOINTS = Failpoints()
