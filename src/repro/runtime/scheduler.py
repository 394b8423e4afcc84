"""Parallel maintenance fan-out with retry, timeout and quarantine.

A warehouse change touches every registered view it can reach.  The views
are independent given the already-applied base-table delta — each
maintainer reads the shared database and writes only its own view — so the
fan-out parallelizes naturally: :class:`MaintenanceScheduler` runs one task
per view on a ``ThreadPoolExecutor``.

Changes themselves stay **strictly serial**: the paper's formulas assume
the base tables are exactly at the post-update state while a view is
maintained, so change *N+1* must not mutate a base table while change
*N*'s fan-out is still reading it.  The scheduler therefore owns a FIFO
change queue drained by a single dispatcher thread; parallelism is
across views *within* one change, never across changes.

Failure handling per view task:

* **retry** — a raising maintainer is retried with bounded exponential
  backoff (:class:`RetryPolicy`).  A failed pass has already undone its
  own applies, so the view is exactly pre-change and a retry is just
  another call: nothing is copied and no snapshot journal is broken;
* **timeout** — with ``timeout_seconds`` set (parallel mode only; pure
  Python cannot preempt a running thread) a task whose result does not
  arrive in time is treated as failed and its view quarantined — the
  still-running "zombie" attempt can only touch that already-quarantined
  view;
* **quarantine / graceful degradation** — a view that exhausts its retry
  budget is marked quarantined: left at its pre-change (stale but
  internally consistent) state, excluded from subsequent fan-outs, and
  surfaced on the health dashboard.  A pass whose undo itself raised
  (:class:`~repro.errors.UndoError`) has rebuilt its view and is
  quarantined at once, with no further attempt.  The batch is never
  poisoned — every other view is still maintained and acknowledged.

Admission control — with ``max_queue_depth`` set, the change queue is
bounded, so a producer that outruns the dispatcher can no longer grow
memory without limit.  Two overflow policies:

* ``"block"`` (default) — ``submit`` blocks until the dispatcher makes
  room; throughput degrades to the fan-out rate, latency is absorbed by
  the caller;
* ``"shed"`` — ``submit`` raises
  :class:`~repro.errors.BackpressureError` immediately (before the
  change touches the base tables), bumping the
  ``repro_scheduler_load_shed_total`` counter.

Either way the ``repro_scheduler_queue_wait_seconds`` histogram records
how long each admitted change sat in the queue before its fan-out
started.

With ``workers=0`` (the default) everything runs inline on the caller's
thread in deterministic registration order (admission control does not
apply: nothing ever queues).  With ``retry=None`` each view gets a
single attempt; a view that fails is quarantined stale but consistent,
exactly as it was before the change, until ``repair_view`` rebuilds it.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import BackpressureError, MaintenanceError, UndoError
from ..obs import Telemetry
from .failpoints import FAILPOINTS

__all__ = [
    "RetryPolicy",
    "Task",
    "FanOutResult",
    "ChangeTicket",
    "ViewState",
    "MaintenanceScheduler",
    "HEALTHY",
    "QUARANTINED",
]

HEALTHY = "healthy"
QUARANTINED = "quarantined"


@dataclass
class RetryPolicy:
    """Bounded exponential backoff for failing view maintainers.

    ``max_attempts`` counts every try (1 = no retries).  The delay before
    retry *k* is ``base_delay_seconds * 2**(k-1)``, capped at
    ``max_delay_seconds``.  ``timeout_seconds`` bounds how long the
    scheduler waits for one view's task in parallel mode (``None`` = wait
    forever); a timed-out view is quarantined immediately since the
    attempt cannot be safely re-run while the old one may still be
    executing.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.005
    max_delay_seconds: float = 0.25
    timeout_seconds: Optional[float] = None

    def delay(self, failure_count: int) -> float:
        return min(self.max_delay_seconds, self.base_delay_seconds * 2 ** (failure_count - 1))


#: The policy when none is given: one attempt, no backoff.
SINGLE_ATTEMPT = RetryPolicy(max_attempts=1, base_delay_seconds=0.0)


@dataclass
class Task:
    """One view's work for one change: ``run`` performs the maintenance
    pass and returns its report.  A pass that raises leaves its view
    exactly pre-change — a retry just calls ``run`` again, and a view
    quarantined after its last attempt is stale, never half-updated."""

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


@dataclass
class ViewState:
    """Per-view scheduler health, surfaced by the dashboard."""

    name: str
    status: str = HEALTHY
    failures: int = 0  # raising attempts, lifetime
    retries: int = 0  # re-attempts after a failure, lifetime
    last_error: Optional[str] = None
    quarantine_reason: Optional[str] = None


# A change's preparation step: applies the base-table delta (and logs it)
# under the dispatcher's serialization, then returns the per-view tasks
# plus the WAL LSN recorded for the change (None when unlogged).
PrepareFn = Callable[[], Tuple[List[Task], Optional[int]]]


class MaintenanceScheduler:
    """Fan base-table changes out across views; degrade, don't poison."""

    def __init__(
        self,
        workers: int = 0,
        retry: Optional[RetryPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        max_queue_depth: Optional[int] = None,
        overflow: str = "block",
    ):
        self.workers = max(0, int(workers))
        self.retry = retry if retry is not None else SINGLE_ATTEMPT
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
        self._states: Dict[str, ViewState] = {}
        self._lock = threading.RLock()
        self._depth = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[threading.Thread] = None
        # maxsize bounds user changes; internal sentinels (the drain
        # barrier and the shutdown None) always use a blocking put, so
        # they are delayed by a full queue but never lost.
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue(
            maxsize=self.max_queue_depth or 0
        )
        self._closed = False
        if self.workers > 0:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-maint",
            )
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------
    # view registry / health
    # ------------------------------------------------------------------
    def register(self, name: str) -> ViewState:
        with self._lock:
            state = self._states.get(name)
            if state is None:
                state = ViewState(name)
                self._states[name] = state
            return state

    def forget(self, name: str) -> None:
        with self._lock:
            self._states.pop(name, None)

    def state(self, name: str) -> ViewState:
        with self._lock:
            return self._states[name]

    @property
    def quarantined(self) -> List[str]:
        """Names of currently quarantined (stale) views."""
        with self._lock:
            return sorted(
                name
                for name, state in self._states.items()
                if state.status == QUARANTINED
            )

    def is_quarantined(self, name: str) -> bool:
        with self._lock:
            state = self._states.get(name)
            return state is not None and state.status == QUARANTINED

    def reinstate(self, name: str) -> None:
        """Clear a quarantine after the view has been repaired (the
        caller must have re-materialized it — the scheduler cannot)."""
        with self._lock:
            state = self.register(name)
            state.status = HEALTHY
            state.quarantine_reason = None
        self.telemetry.emit("view.reinstated", view=name)

    def _quarantine(self, name: str, reason: str) -> None:
        with self._lock:
            state = self.register(name)
            state.status = QUARANTINED
            state.quarantine_reason = reason
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
        """Queue one change (serial mode: runs inline before returning).

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
    # change execution (dispatcher thread, or caller in serial mode)
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
        runnable: List[Task] = []
        for task in tasks:
            if self.is_quarantined(task.name):
                result.skipped.append(task.name)
            else:
                runnable.append(task)
        if self._pool is None or len(runnable) <= 1:
            # inline on this thread; no fan_out span, so each view's
            # "maintain" span stays a root
            for task in runnable:
                self._finish(task, self._run_task(task), result)
            return result
        with self.telemetry.tracer.span(
            "fan_out",
            table=table,
            operation=operation,
            views=len(runnable),
            skipped=len(result.skipped),
            workers=self.workers,
        ):
            futures: List[Tuple[Future, Task]] = [
                (self._pool.submit(self._run_task, task), task)
                for task in runnable
            ]
            for future, task in futures:
                try:
                    outcome = future.result(
                        timeout=self.retry.timeout_seconds
                    )
                except FutureTimeoutError:
                    # quarantined like any failure; the attempt may
                    # still be running, so it is never re-run
                    error = MaintenanceError(
                        f"view {task.name!r} timed out after "
                        f"{self.retry.timeout_seconds}s "
                        f"({operation} on {table!r})"
                    )
                    self._finish(task, (None, error), result)
                    # after the quarantine, whose event owns the dump
                    self.telemetry.emit(
                        "view.timeout", view=task.name, reason=str(error)
                    )
                    continue
                self._finish(task, outcome, result)
        return result

    def _run_task(self, task: Task):
        """The per-view retry loop; returns ``(report, error)``.  An
        :class:`~repro.errors.UndoError` ends it: the view was rebuilt."""
        policy = self.retry
        for attempt in range(1, policy.max_attempts + 1):
            try:
                # Inside the try: an injected fault is handled exactly
                # like a raising maintainer (retry, then quarantine).
                FAILPOINTS.hit(
                    "scheduler.task", view=task.name, attempt=attempt
                )
                return task.run(), None
            except Exception as exc:
                with self._lock:
                    state = self.register(task.name)
                    state.failures += 1
                    state.last_error = repr(exc)
                    if attempt == policy.max_attempts or isinstance(exc, UndoError):
                        return None, exc
                    state.retries += 1
                self.telemetry.emit("view.retry", view=task.name, attempt=attempt)
                time.sleep(policy.delay(attempt))
        return None, None  # max_attempts < 1: nothing was attempted

    def _finish(self, task: Task, outcome, result: FanOutResult) -> None:
        report, error = outcome
        if error is None:
            result.reports[task.name] = report
            return
        result.failures[task.name] = error
        self._quarantine(
            task.name,
            f"{result.operation} on {result.table!r} failed: {error!r}",
        )
        result.quarantined.append(task.name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Block until every queued change has completed."""
        if self._dispatcher is None:
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
        """Drain the queue, stop the dispatcher and the worker pool."""
        if self._closed:
            return
        self._closed = True
        if self._dispatcher is not None:
            self._queue.put(None)
            self._dispatcher.join()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
