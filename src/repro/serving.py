"""Asyncio front end over the warehouse: the online serving tier.

The :class:`~repro.warehouse.Warehouse` is a blocking, thread-based
system — ``apply_async`` can block on admission control, ``flush`` waits
on the dispatcher, and synchronous DML waits for the whole fan-out.  A
serving tier typically lives in an asyncio event loop (an HTTP handler
per request), where any of those would stall every other request on the
loop.  :class:`AsyncWarehouse` bridges the two worlds:

* **Writes** — :meth:`AsyncWarehouse.apply` submits through a thread
  executor (so a blocking admission queue never blocks the loop) and
  resolves its future from the change ticket's done-callback via
  ``loop.call_soon_threadsafe`` — no waiter thread per change, no
  polling.  PR-5 backpressure carries over intact: with
  ``overflow="shed"`` a full queue rejects the coroutine with
  :class:`~repro.errors.BackpressureError` before any base-table
  effect, which is exactly the admission-control signal an async
  service wants to map to HTTP 429.
* **Reads** — :meth:`AsyncWarehouse.query` runs *inline* on the event
  loop.  This is deliberate: snapshot reads never block on maintenance
  (an O(1) handle grab plus an index probe or bounded scan), so there
  is nothing to move off the loop for point queries.  Pass
  ``offload=True`` for predicate scans over large views.
* **Lifecycle** — :meth:`flush`, :meth:`checkpoint`, :meth:`recover`
  and :meth:`close` wrap their blocking counterparts in the executor;
  ``async with AsyncWarehouse(wh) as awh:`` closes the warehouse on
  exit.

Example::

    wh = Warehouse(db, workers=1, wal_path=...,
                   max_queue_depth=256, overflow="shed")
    async with AsyncWarehouse(wh) as awh:
        try:
            result = await awh.apply("lineitem", "insert", rows)
        except BackpressureError:
            ...                      # map to 429 / retry-after
        rows = await awh.query("order_lines", **{"orders.o_orderkey": 7})

See ``docs/SERVING.md`` for the full serving contract and
``examples/serving_tour.py`` for a runnable tour.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Iterable, List, Optional

from .engine.table import Row
from .runtime import FanOutResult, Snapshot
from .warehouse import Warehouse

__all__ = ["AsyncWarehouse"]


class AsyncWarehouse:
    """Asyncio adapter for one :class:`~repro.warehouse.Warehouse` —
    local or sharded; both hand out the same change tickets.

    All coroutines must be awaited on the loop the adapter is first used
    on.  The adapter owns no threads of its own: blocking calls ride the
    loop's default executor, and change completion is delivered through
    ``call_soon_threadsafe`` by whichever thread completes the ticket —
    the scheduler's dispatcher thread locally; for a sharded warehouse,
    which has no dispatcher, a short-lived waiter per awaited change.
    """

    def __init__(self, warehouse: Warehouse):
        self.warehouse = warehouse

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    async def apply(
        self, table: str, operation: str, rows: Iterable[Row]
    ) -> FanOutResult:
        """Submit one change and await its fan-out result.

        Admission control happens inside the executor call: a blocking
        queue suspends only this coroutine, a shedding queue raises
        :class:`~repro.errors.BackpressureError` here.  The returned
        :class:`~repro.runtime.FanOutResult` reports per-view outcomes;
        ``result.error`` carries a base-apply failure (e.g. a constraint
        violation) instead of raising, matching ``ticket.wait()``.
        """
        loop = asyncio.get_running_loop()
        materialized = [tuple(r) for r in rows]
        ticket = await loop.run_in_executor(
            None,
            lambda: self.warehouse.apply_async(table, operation, materialized),
        )
        future: "asyncio.Future[FanOutResult]" = loop.create_future()

        def on_done(result: FanOutResult) -> None:
            # dispatcher thread -> event loop; never touch the future
            # directly from here
            loop.call_soon_threadsafe(_resolve, future, result)

        ticket.add_done_callback(on_done)
        return await future

    async def insert(self, table: str, rows: Iterable[Row]) -> FanOutResult:
        return await self.apply(table, "insert", rows)

    async def delete(self, table: str, rows: Iterable[Row]) -> FanOutResult:
        return await self.apply(table, "delete", rows)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """The latest consistent snapshot — synchronous on purpose; it
        never blocks, so there is nothing to await."""
        return self.warehouse.snapshot()

    async def query(
        self,
        view: str,
        predicate: Optional[Callable[[Dict[str, object]], bool]] = None,
        snapshot: Optional[Snapshot] = None,
        limit: Optional[int] = None,
        offload: bool = False,
        **equalities,
    ) -> List[Row]:
        """Read *view* at a consistent snapshot (see
        :meth:`Warehouse.query`).  Runs inline on the loop — snapshot
        reads cannot block on maintenance — unless ``offload=True``
        moves a long predicate scan to the executor."""
        if not offload:
            return self.warehouse.query(
                view,
                predicate=predicate,
                snapshot=snapshot,
                limit=limit,
                **equalities,
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            lambda: self.warehouse.query(
                view,
                predicate=predicate,
                snapshot=snapshot,
                limit=limit,
                **equalities,
            ),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def flush(self) -> List[FanOutResult]:
        """Await every queued change; raises like ``Warehouse.flush``."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.warehouse.flush)

    async def checkpoint(self) -> str:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.warehouse.checkpoint)

    async def recover(self) -> List[FanOutResult]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.warehouse.recover)

    async def close(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.warehouse.close)

    async def __aenter__(self) -> "AsyncWarehouse":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False


def _resolve(future: "asyncio.Future", result: FanOutResult) -> None:
    if not future.cancelled():
        future.set_result(result)
