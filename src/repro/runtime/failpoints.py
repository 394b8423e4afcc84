"""Deterministic fault injection for crash and retry testing.

A *failpoint* is a named hook compiled into the runtime's crash-relevant
code paths.  Production code calls :meth:`Failpoints.hit` at each site;
the call is a dictionary miss (near-zero cost) unless a test or the fuzz
harness has *armed* the site with one of three actions:

* ``"raise"`` — raise :class:`InjectedFault` at the site, simulating a
  crash (WAL append, fan-out start) or a transient maintenance failure
  (per-view task);
* ``"skip"`` — make the site skip its own effect; the site observes this
  through the boolean return value of :meth:`~Failpoints.hit`.  Used to
  drop a WAL acknowledgement so the entry stays pending and recovery has
  real work to do;
* ``"call"`` — invoke an arbitrary callback with the site's context
  (the callback may raise to fail the site, mutate shared state, or
  record what it saw).

Instrumented sites (name → where it fires):

================== ====================================================
``wal.append``      :meth:`WriteAheadLog.append`, before the record is
                    written — a crash after the base-table change but
                    before it became durable.
``wal.ack``         :meth:`WriteAheadLog.ack`, before the ack record is
                    written — the crash window between a completed
                    fan-out and its durable acknowledgement.  ``skip``
                    leaves the entry pending for recovery.
``scheduler.fanout``:meth:`MaintenanceScheduler._execute`, after the
                    change was applied and logged but before any view
                    is maintained.
``scheduler.task``  per-view, per-attempt, inside the retry loop —
                    context carries ``view`` and ``attempt`` so a fault
                    can target one view or one attempt (exercising the
                    retry and quarantine paths).
``maintain.pass``   :meth:`ViewMaintainer.maintain`, inside the root
                    ``maintain`` trace span (context carries ``view``,
                    ``table``, ``operation``) — a raise here produces a
                    real failing span chain, the shape flight-recorder
                    quarantine dumps capture.
``wal.fsync``       :meth:`WriteAheadLog._fsync`, before ``os.fsync`` —
                    simulates a device that fails to make the log
                    durable (context carries ``segment``).
``wal.compact``     :meth:`WriteAheadLog.compact`, before the compact
                    marker is written — a crash at compaction start
                    leaves all segments intact.
``wal.compact.unlink`` before each covered segment is deleted (context
                    carries ``segment``) — a crash mid-compaction
                    leaves a durable marker plus stale segments, which
                    the next open self-heals.
``checkpoint.write`` :meth:`CheckpointManager.write`, after the ``.tmp``
                    file is fsynced but before ``os.replace`` publishes
                    it — the atomic-rename crash window (context
                    carries ``seq`` and ``lsn``).
``checkpoint.prune`` same method, after the new file is published and
                    the directory fsynced but before the files it makes
                    redundant are removed — the new restore point is
                    durable, the old lineage still there (same context).
``shard.worker.kill`` thread-backend shard serve loop, before a command
                    runs — ``raise`` makes the worker die abruptly
                    (no reply, command never applied), the in-process
                    stand-in for SIGKILL (context: ``shard``, ``cmd``).
``shard.worker.stall`` same loop, ``action="call"`` with a sleeping
                    callback — the worker hangs past the facade's
                    per-call deadline, exercising probe-and-reincarnate.
``shard.pipe.drop`` same loop, after the command ran — the reply is
                    lost and the connection dies, the torn-reply
                    window that breaks FIFO pairing for good.
``txn.coordinator.prepared`` :meth:`ShardedTransaction._commit`, after
                    every prepare acknowledgement but before the
                    decision record is written — a coordinator crash
                    here must abort everywhere (context: ``txn``).
``txn.coordinator.decided`` same method, after the decision record is
                    durable but before any commit message — a crash
                    here must commit everywhere on ``recover()``.
``txn.coordinator.commit`` before each per-shard commit send (context:
                    ``txn``, ``shard``) — a crash mid-broadcast leaves
                    some shards committed, others in doubt.
================== ====================================================

Arming is match-filtered: ``arm("scheduler.task", view="v0", times=1)``
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

__all__ = ["InjectedFault", "Failpoints", "FAILPOINTS"]

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

    def is_armed(self, name: str) -> bool:
        with self._lock:
            return bool(self._arms.get(name))

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
