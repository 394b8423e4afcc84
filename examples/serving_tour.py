"""A tour of the online serving tier: snapshot reads under live writes.

Run with::

    python examples/serving_tour.py

The tour builds a small warehouse with a maintained outer-join view and
walks the serving contract (``docs/SERVING.md``):

1. pin a snapshot, hammer the warehouse with async writes, and show the
   pinned epoch never moves while the latest one does,
2. the query surface: key probes, bare column names, predicates, limits,
3. the asyncio front end — concurrent awaited writes, loop-inline reads,
4. admission control: a full shedding queue raises
   :class:`BackpressureError` into the coroutine (the HTTP 429 signal),
5. recovery honesty: ``recover()`` invalidates previously issued
   snapshots, and ``serving_stats()`` reports the read path's health.
"""

import asyncio
import tempfile
import threading

from repro import AsyncWarehouse, Q, eq
from repro.engine import Database
from repro.errors import BackpressureError
from repro.runtime import FAILPOINTS
from repro.warehouse import Warehouse


def build_db():
    db = Database()
    db.create_table("orders", ["o_orderkey", "o_custkey"],
                    key=["o_orderkey"])
    db.create_table("lineitem", ["l_orderkey", "l_linenumber", "l_qty"],
                    key=["l_orderkey", "l_linenumber"],
                    not_null=["l_orderkey"])
    db.add_foreign_key("lineitem", ["l_orderkey"], "orders", ["o_orderkey"])
    db.insert("orders", [(okey, okey % 5) for okey in range(30)])
    db.insert("lineitem", [(okey, 0, okey * 10) for okey in range(0, 30, 3)])
    return db


def order_lines():
    return (
        Q.table("orders")
        .left_outer_join(
            "lineitem", on=eq("lineitem.l_orderkey", "orders.o_orderkey")
        )
        .build()
    )


def batch(okey, lines=4):
    return [(okey, line, okey * 100 + line) for line in range(1, lines + 1)]


def tour_snapshots(wh):
    print("=== 1. A pinned snapshot never moves ===")
    pinned = wh.snapshot()
    before = len(pinned.view_rows("order_lines"))
    tickets = [
        wh.apply_async("lineitem", "insert", batch(okey))
        for okey in range(10)
    ]
    wh.flush()
    latest = wh.snapshot()
    print(f"pinned epoch:  seq={pinned.seq}, {before} rows "
          f"(still {len(pinned.view_rows('order_lines'))} after the storm)")
    print(f"latest epoch:  seq={latest.seq}, "
          f"{len(latest.view_rows('order_lines'))} rows "
          f"({len(tickets)} changes applied)")


def tour_queries(wh):
    print("\n=== 2. The query surface ===")
    snap = wh.snapshot()
    probed = wh.query("order_lines", o_orderkey=7)  # bare, unambiguous
    print(f"order 7 at the latest epoch: {len(probed)} row(s)")
    childless = snap.query(
        "order_lines",
        predicate=lambda r: r["lineitem.l_qty"] is None,
        limit=5,
    )
    print(f"first {len(childless)} orders with no lineitems "
          f"at seq={snap.seq}")


def tour_async(wh):
    print("\n=== 3. The asyncio front end ===")

    async def scenario():
        async with AsyncWarehouse(wh) as awh:
            results = await asyncio.gather(
                *(awh.insert("lineitem", [(okey, 9, okey)])
                  for okey in range(10, 16))
            )
            print(f"{len(results)} awaited writes, "
                  f"all ok: {all(r.ok for r in results)}")
            rows = await awh.query(
                "order_lines", **{"orders.o_orderkey": 12}
            )
            print(f"loop-inline read of order 12: {len(rows)} row(s)")

    asyncio.run(scenario())
    # the context manager closed wh: later sections build fresh ones


def tour_backpressure():
    print("\n=== 4. Backpressure sheds into the coroutine ===")

    async def scenario():
        gate = threading.Event()
        wh = Warehouse(build_db(), workers=1,
                       max_queue_depth=1, overflow="shed")
        wh.create_view("order_lines", order_lines())
        # park the dispatcher so the queue genuinely fills up
        FAILPOINTS.arm("scheduler.fanout", action="call", times=1,
                       callback=lambda **ctx: gate.wait(timeout=30))
        awh = AsyncWarehouse(wh)
        try:
            first = asyncio.ensure_future(awh.insert("lineitem", [(1, 8, 1)]))
            await asyncio.sleep(0.05)
            second = asyncio.ensure_future(awh.insert("lineitem", [(2, 8, 2)]))
            await asyncio.sleep(0.05)
            try:
                await awh.insert("lineitem", [(3, 8, 3)])
            except BackpressureError as exc:
                print(f"third write shed before any effect -> 429: {exc}")
            print(f"reads still serve while writes queue: "
                  f"snapshot seq={awh.snapshot().seq}")
            gate.set()
            await asyncio.gather(first, second)
        finally:
            gate.set()
            FAILPOINTS.reset()
            await awh.close()

    asyncio.run(scenario())


def tour_recovery():
    print("\n=== 5. A restart recovers and invalidates issued snapshots ===")
    with tempfile.TemporaryDirectory(prefix="repro-serving-") as tmp:
        wal = tmp + "/changes.wal"
        wh = Warehouse(build_db(), workers=1, wal_path=wal)
        wh.create_view("order_lines", order_lines())
        wh.insert("lineitem", batch(20))
        wh.close()
        # restart over the original database: it is the restore point,
        # and recover() replays every logged change on top of it
        wh = Warehouse(build_db(), workers=1, wal_path=wal)
        wh.create_view("order_lines", order_lines())
        pre = wh.snapshot()  # published at open, before the replay
        wh.recover()
        post = wh.snapshot()
        print(f"pre-recovery snapshot: valid={pre.valid} "
              f"(reason={pre.invalid_reason!r}), still readable: "
              f"{len(pre.view_rows('order_lines'))} rows")
        print(f"post-recovery snapshot: valid={post.valid}, "
              f"lsn={post.lsn}, {len(post.view_rows('order_lines'))} rows")
        stats = wh.serving_stats()
        print(f"serving_stats: published={stats['snapshots_published']}, "
              f"retained={stats['snapshots_retained']}, "
              f"invalidated={stats['snapshots_invalidated']}")
        wh.close()


def main():
    wh = Warehouse(build_db(), workers=1)
    wh.create_view("order_lines", order_lines())
    tour_snapshots(wh)
    tour_queries(wh)
    tour_async(wh)  # closes wh on exit
    tour_backpressure()
    tour_recovery()
    print("\nSee docs/SERVING.md for the full contract.")


if __name__ == "__main__":
    main()
