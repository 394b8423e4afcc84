"""Per-change view maintenance with quarantine.

A warehouse change touches every registered view it can reach.  Each
maintainer reads the already-applied base-table delta and writes only its
own view; :class:`MaintenanceScheduler` runs those per-view tasks one
after another, in registration order, on the thread that executes the
change — as the paper's triggers run inside the updating statement.
Pure-Python maintainers hold the GIL, so a thread pool would only add
handoffs.

Changes themselves stay **strictly serial**: the paper's formulas assume
the base tables are exactly at the post-update state while a view is
maintained, so change *N+1* must not mutate a base table while change
*N*'s views are still reading it.  With ``workers=0`` (the default) a
change runs inline on the caller's thread; with ``workers >= 1`` it is
queued on a FIFO drained by a single dispatcher thread, which is what
``apply_async`` and the serving tier need.

Each view task gets one attempt.  A pass is a deterministic function of
the base tables, the delta and the view, and a failed pass has undone
its own applies (or, when its undo raised, rebuilt its view), so a second
attempt would get exactly the inputs the first one failed on.  A view
whose task raises is **quarantined** at once: left at its pre-change
(stale but internally consistent) state, excluded from subsequent
changes, and surfaced on the health dashboard until ``repair_view``
rebuilds it.  The batch is never poisoned — every other view is still
maintained and acknowledged.

No deadline bounds one view's task: pure Python cannot preempt a running
thread.  A hung maintainer is bounded where a process can be killed —
the sharded supervisor's probe timeout (``docs/SHARDING.md``).

Admission control — with ``max_queue_depth`` set, the change queue is
bounded, so a producer that outruns the dispatcher can no longer grow
memory without limit.  Two overflow policies:

* ``"block"`` (default) — ``submit`` blocks until the dispatcher makes
  room; throughput degrades to the maintenance rate, latency is absorbed
  by the caller;
* ``"shed"`` — ``submit`` raises
  :class:`~repro.errors.BackpressureError` immediately (before the
  change touches the base tables), bumping the
  ``repro_scheduler_load_shed_total`` counter.

Either way the ``repro_scheduler_queue_wait_seconds`` histogram records
how long each admitted change sat in the queue before its views were
maintained.  Inline (``workers=0``) nothing ever queues, so admission
control does not apply.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import BackpressureError, MaintenanceError
from ..obs import Telemetry
from .failpoints import FAILPOINTS

__all__ = ["Task", "FanOutResult", "ChangeTicket", "MaintenanceScheduler"]


@dataclass
class Task:
    """One view's work for one change: ``run`` performs the maintenance
    pass and returns its report.  A pass that raises leaves its view
    exactly pre-change, so the view it quarantines is stale, never
    half-updated."""

    name: str
    run: Callable[[], object]


@dataclass
class FanOutResult:
    """What one change did across the registered views."""

    table: str
    operation: str
    reports: Dict[str, object] = field(default_factory=dict)
    failures: Dict[str, Exception] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)  # quarantined before
    quarantined: List[str] = field(default_factory=list)  # newly, by this
    lsn: Optional[int] = None
    error: Optional[Exception] = None  # base-apply failure; views untouched

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


class ChangeTicket:
    """Handle for one queued change; completed by the dispatcher."""

    def __init__(self, table: str, operation: str):
        self.table = table
        self.operation = operation
        self._event = threading.Event()
        self._result: Optional[FanOutResult] = None
        self._callbacks: List[Callable[[FanOutResult], None]] = []
        self._cb_lock = threading.Lock()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> FanOutResult:
        if not self._event.wait(timeout):
            raise MaintenanceError(
                f"timed out waiting for {self.operation} on "
                f"{self.table!r} to fan out"
            )
        assert self._result is not None
        return self._result

    def add_done_callback(
        self, fn: Callable[[FanOutResult], None]
    ) -> None:
        """Run *fn(result)* once the change completes — immediately (on
        the calling thread) if it already has, otherwise on the thread
        that completes the ticket.  This is how the asyncio front end
        bridges tickets to futures without a waiter thread per change;
        exceptions from *fn* propagate to the completing thread, so
        callbacks must not raise."""
        with self._cb_lock:
            if self._result is None:
                self._callbacks.append(fn)
                return
            result = self._result
        fn(result)

    def _complete(self, result: FanOutResult) -> None:
        with self._cb_lock:
            self._result = result
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for fn in callbacks:
            fn(result)


# A change's preparation step: applies the base-table delta (and logs it)
# under the dispatcher's serialization, then returns the per-view tasks
# plus the WAL LSN recorded for the change (None when unlogged).
PrepareFn = Callable[[], Tuple[List[Task], Optional[int]]]


class MaintenanceScheduler:
    """Fan base-table changes out across views; degrade, don't poison.

    ``workers=0`` runs each change inline on the caller's thread;
    ``workers >= 1`` queues it through one dispatcher thread (any count
    above 1 behaves as 1).
    """

    def __init__(
        self,
        workers: int = 0,
        telemetry: Optional[Telemetry] = None,
        max_queue_depth: Optional[int] = None,
        overflow: str = "block",
    ):
        self.workers = max(0, int(workers))
        if overflow not in ("block", "shed"):
            raise ValueError(
                f"unknown overflow policy {overflow!r} "
                "(expected 'block' or 'shed')"
            )
        self.max_queue_depth = (
            max(1, int(max_queue_depth)) if max_queue_depth else None
        )
        self.overflow = overflow
        self.load_shed_count = 0
        self.telemetry = telemetry or Telemetry.disabled()
        self._quarantined: Set[str] = set()
        self._lock = threading.RLock()
        self._depth = 0
        self._dispatcher: Optional[threading.Thread] = None
        # maxsize bounds user changes; internal sentinels (the drain
        # barrier and the shutdown None) always use a blocking put, so
        # they are delayed by a full queue but never lost.
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue(
            maxsize=self.max_queue_depth or 0
        )
        self._closed = False
        if self.workers > 0:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def forget(self, name: str) -> None:
        with self._lock:
            self._quarantined.discard(name)

    @property
    def quarantined(self) -> List[str]:
        """Names of currently quarantined (stale) views."""
        with self._lock:
            return sorted(self._quarantined)

    def is_quarantined(self, name: str) -> bool:
        with self._lock:
            return name in self._quarantined

    def reinstate(self, name: str) -> None:
        """Clear a quarantine after the view has been repaired (the
        caller must have re-materialized it — the scheduler cannot)."""
        self.forget(name)
        self.telemetry.emit("view.reinstated", view=name)

    def _quarantine(self, name: str, reason: str) -> None:
        with self._lock:
            self._quarantined.add(name)
        self.telemetry.emit("view.quarantined", view=name, reason=reason)

    # ------------------------------------------------------------------
    # change submission
    # ------------------------------------------------------------------
    def submit(
        self,
        prepare: PrepareFn,
        table: str,
        operation: str,
        on_complete: Optional[Callable[[FanOutResult], None]] = None,
    ) -> ChangeTicket:
        """Queue one change (``workers=0``: run it inline before returning).

        *prepare* runs under the dispatcher's serialization; it applies
        the base-table delta, optionally logs it, and returns
        ``(tasks, lsn)``.  *on_complete* fires on the executing thread
        after the fan-out, before the ticket unblocks — the warehouse
        acknowledges WAL entries there.

        With a bounded queue (``max_queue_depth``), a full queue either
        blocks this call (``overflow="block"``) or raises
        :class:`~repro.errors.BackpressureError` (``overflow="shed"``)
        before the change has any effect.
        """
        if self._closed:
            raise MaintenanceError("scheduler has been shut down")
        ticket = ChangeTicket(table, operation)
        if self._dispatcher is None:
            result = self._execute(prepare, table, operation)
            if on_complete is not None:
                on_complete(result)
            ticket._complete(result)
            return ticket
        item = (ticket, prepare, on_complete, time.perf_counter())
        if self.max_queue_depth is not None and self.overflow == "shed":
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                with self._lock:
                    self.load_shed_count += 1
                self.telemetry.emit("scheduler.load_shed", table=table)
                raise BackpressureError(
                    f"change queue is full ({self.max_queue_depth} "
                    f"deep); shed {operation} on {table!r}"
                ) from None
        else:
            self._queue.put(item)  # blocks when bounded and full
        with self._lock:
            self._depth += 1
            self.telemetry.emit("scheduler.queue_depth", depth=self._depth)
        return ticket

    def apply(
        self,
        prepare: PrepareFn,
        table: str,
        operation: str,
        on_complete: Optional[Callable[[FanOutResult], None]] = None,
    ) -> FanOutResult:
        """Synchronous convenience: submit, then wait for the result."""
        return self.submit(prepare, table, operation, on_complete).wait()

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            ticket, prepare, on_complete, enqueued = item
            self.telemetry.emit(
                "scheduler.queue_wait", seconds=time.perf_counter() - enqueued
            )
            try:
                result = self._execute(
                    prepare, ticket.table, ticket.operation
                )
                if on_complete is not None:
                    on_complete(result)
            except BaseException as exc:  # defensive: never kill the loop
                result = FanOutResult(
                    ticket.table, ticket.operation, error=exc
                )
            finally:
                with self._lock:
                    self._depth -= 1
                    self.telemetry.emit(
                        "scheduler.queue_depth", depth=self._depth
                    )
            ticket._complete(result)

    # ------------------------------------------------------------------
    # change execution (dispatcher thread, or the caller with workers=0)
    # ------------------------------------------------------------------
    def _execute(
        self, prepare: PrepareFn, table: str, operation: str
    ) -> FanOutResult:
        result = FanOutResult(table, operation)
        try:
            tasks, result.lsn = prepare()
        except Exception as exc:
            result.error = exc
            return result
        # Crash window: the change is applied and logged but no view has
        # been maintained yet (see runtime/failpoints.py).
        FAILPOINTS.hit("scheduler.fanout", table=table, operation=operation)
        if not tasks:
            return result
        # One root span per change.  Quarantines fire after it closes, so
        # a quarantine's flight-recorder dump holds the failing pass.
        with self.telemetry.tracer.span("change", table=table, operation=operation):
            for task in tasks:
                if self.is_quarantined(task.name):
                    result.skipped.append(task.name)
                    continue
                report, error = self._run_task(task)
                if error is None:
                    result.reports[task.name] = report
                else:
                    result.failures[task.name] = error
        for name, error in result.failures.items():
            self._quarantine(name, f"{operation} on {table!r} failed: {error!r}")
            result.quarantined.append(name)
        return result

    def _run_task(self, task: Task):
        """The view's one attempt; returns ``(report, error)``."""
        try:
            return task.run(), None
        except Exception as exc:
            return None, exc

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Block until every queued change has completed.  After
        :meth:`shutdown` nothing can be queued, so this returns at once."""
        if self._dispatcher is None or self._closed:
            return
        barrier = ChangeTicket("(drain)", "(drain)")
        self._queue.put(
            (barrier, lambda: ([], None), None, time.perf_counter())
        )
        with self._lock:
            self._depth += 1
            self.telemetry.emit("scheduler.queue_depth", depth=self._depth)
        barrier.wait()

    def shutdown(self) -> None:
        """Drain the queue and stop the dispatcher."""
        if self._closed:
            return
        self._closed = True
        if self._dispatcher is not None:
            self._queue.put(None)
            self._dispatcher.join()
