"""A tour of the maintenance telemetry: spans, metrics, dashboard.

Run with::

    python examples/telemetry_tour.py

Optionally set ``REPRO_TRACE_FILE`` and ``REPRO_METRICS_FILE`` to also
write the span trees (JSON lines) and the Prometheus exposition to disk
— exactly what the CI telemetry job does.

The tour builds a small TPC-H instance, registers two outer-join views
in a :class:`~repro.warehouse.Warehouse` metered by a shared
:class:`~repro.obs.Telemetry`, drives a mixed insert/delete workload,
and then inspects what the instruments captured:

1. the span tree of one change: a ``change`` root holding one
   ``maintain`` span per view, whose attributes carry the phase times
   (classify, primary delta, apply) and each secondary term's strategy
   and time, with per-operator row counts,
2. the per-view health dashboard (p50/p95 latency, rows touched,
   secondary-strategy mix, FK-shortcut rate, average seconds per phase,
   and the five secondary terms whose single slowest pass took
   longest),
3. the Prometheus metrics text a scraper would collect.
"""

import os

from repro.obs import Telemetry
from repro.tpch import TPCHGenerator, oj_view, v3
from repro.warehouse import Warehouse


def main():
    print("Generating TPC-H at SF=0.002 ...")
    generator = TPCHGenerator(scale_factor=0.002, seed=7)
    db = generator.build()

    # Telemetry.from_env() honours REPRO_TRACE_FILE but returns the
    # disabled no-op singleton when it is unset; the tour always wants
    # live instruments, so fall back to an in-memory Telemetry.
    telemetry = Telemetry.from_env()
    if not telemetry.enabled:
        telemetry = Telemetry()

    warehouse = Warehouse(db, telemetry=telemetry)
    warehouse.create_view("v3", v3())
    warehouse.create_view("oj_view", oj_view())

    print("Driving a mixed workload ...")
    for step in range(3):
        warehouse.insert(
            "lineitem", generator.lineitem_insert_batch(40, seed=10 + step)
        )
        warehouse.delete(
            "lineitem",
            generator.lineitem_delete_batch(db, 20, seed=20 + step),
        )
    warehouse.insert("customer", generator.customer_insert_batch(5, seed=30))
    warehouse.check_consistency()

    print("\n=== 1. One change as a span tree ===")
    root = next(
        span
        for span in reversed(telemetry.spans)
        if span.attributes.get("table") == "lineitem"
    )
    print(root.tree())

    print("\n=== 2. Per-view health dashboard ===")
    print(warehouse.dashboard())

    print("\n=== 3. Prometheus exposition (excerpt) ===")
    for line in warehouse.metrics_text().splitlines():
        if "_bucket{" in line:
            continue  # elide the histogram buckets for readability
        print(line)

    telemetry.flush()
    if os.environ.get("REPRO_TRACE_FILE"):
        print(f"\nSpan trees appended to {os.environ['REPRO_TRACE_FILE']}")
    if os.environ.get("REPRO_METRICS_FILE"):
        print(f"Metrics written to {os.environ['REPRO_METRICS_FILE']}")


if __name__ == "__main__":
    main()
