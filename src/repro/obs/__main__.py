"""``python -m repro.obs serve`` — an introspectable demo warehouse;
``python -m repro.obs reference`` — the metric and occurrence tables.

Builds a small TPC-H instance, registers the paper's outer-join views in
a :class:`~repro.warehouse.Warehouse` with live telemetry, drives a
mixed insert/delete workload, and serves the observability endpoints::

    python -m repro.obs serve --port 9464 --scale 0.002

    curl localhost:9464/metrics          # OpenMetrics exposition
    curl localhost:9464/healthz          # liveness + degradation
    curl localhost:9464/dashboard.json   # health dashboard as JSON
    curl localhost:9464/flight-recorder  # recent spans + events

``--quarantine`` arms a failpoint so one view is quarantined during the
workload — the way to see ``/healthz`` flip to 503 and a flight-recorder
dump appear without waiting for a real incident.

``reference`` prints the reference tables of docs/OBSERVABILITY.md (the
block between the ``GENERATED`` markers) as generated from
:mod:`repro.obs.events`; ``tests/obs/test_contract.py`` fails when the
doc and the table disagree.
"""

from __future__ import annotations

import argparse
import sys
import time


def serve(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs serve",
        description="Serve observability endpoints for a demo warehouse.",
    )
    parser.add_argument(
        "--port", type=int, default=9464,
        help="HTTP port (default 9464; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--scale", type=float, default=0.002,
        help="TPC-H scale factor for the demo instance",
    )
    parser.add_argument(
        "--changes", type=int, default=3,
        help="mixed insert/delete workload rounds before serving",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds then exit (default: forever)",
    )
    parser.add_argument(
        "--dump-dir", default=None,
        help="flight-recorder dump directory (default: no dumps)",
    )
    parser.add_argument(
        "--quarantine", action="store_true",
        help="force one view quarantine during the workload",
    )
    args = parser.parse_args(argv)

    from repro.obs import Telemetry
    from repro.runtime import RetryPolicy
    from repro.runtime.failpoints import FAILPOINTS
    from repro.tpch import TPCHGenerator, oj_view, v3
    from repro.warehouse import Warehouse

    print(f"Generating TPC-H at SF={args.scale} ...", file=sys.stderr)
    generator = TPCHGenerator(scale_factor=args.scale, seed=7)
    db = generator.build()

    telemetry = Telemetry(dump_dir=args.dump_dir)
    # a real retry policy so the runtime's retry/quarantine machinery
    # (and thus --quarantine) is live; retry=None is a passthrough
    warehouse = Warehouse(
        db,
        telemetry=telemetry,
        retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.01),
    )
    warehouse.create_view("v3", v3())
    warehouse.create_view("oj_view", oj_view())

    print("Driving the workload ...", file=sys.stderr)

    def drive():
        for step in range(args.changes):
            warehouse.insert(
                "lineitem",
                generator.lineitem_insert_batch(40, seed=10 + step),
            )
            warehouse.delete(
                "lineitem",
                generator.lineitem_delete_batch(db, 20, seed=20 + step),
            )

    if args.quarantine:
        # raise inside every maintain pass for one view until its retry
        # budget exhausts — the fan-out error is the expected outcome
        from repro.errors import FanOutError

        with FAILPOINTS.armed(
            "maintain.pass", action="raise", times=None, view="oj_view"
        ):
            try:
                drive()
            except FanOutError as exc:
                print(
                    f"quarantined as requested: {sorted(exc.failures)}",
                    file=sys.stderr,
                )
    else:
        drive()

    server = warehouse.serve_obs(host=args.host, port=args.port)
    print(f"Serving on {server.url}", file=sys.stderr)
    print(
        f"  {server.url}/metrics  /healthz  /dashboard.json"
        "  /flight-recorder",
        file=sys.stderr,
    )
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        warehouse.close()
    return 0


REFERENCE_BEGIN = "<!-- BEGIN GENERATED: python -m repro.obs reference -->"
REFERENCE_END = "<!-- END GENERATED -->"


def reference_markdown() -> str:
    """The metric-family and occurrence tables, as markdown."""
    from repro.obs.events import FAMILIES, OCCURRENCES

    def cell(text: str) -> str:
        return text.replace("|", "\\|")

    lines = ["| metric | type | labels | help |", "| --- | --- | --- | --- |"]
    for f in FAMILIES:
        labels = ", ".join(f.labels) or "—"
        lines.append(f"| `{f.name}` | {f.type} | {labels} | {cell(f.help)} |")
    lines += ["", "| occurrence | event severity | writes | meaning |"]
    lines.append("| --- | --- | --- | --- |")
    for kind, occurrence in OCCURRENCES.items():
        families = [effect.family for effect in occurrence.effects]
        families += occurrence.writes
        writes = ", ".join(f"`{f.name}`" for f in dict.fromkeys(families)) or "—"
        severity = occurrence.severity or "—"
        lines.append(f"| `{kind}` | {severity} | {writes} | {cell(occurrence.doc)} |")
    return "\n".join(lines)


def reference(argv) -> int:
    print(reference_markdown())
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = {"serve": serve, "reference": reference}
    if not argv or argv[0] not in commands:
        print(
            "usage: python -m repro.obs serve [--port N] [--scale F] ...\n"
            "       python -m repro.obs reference",
            file=sys.stderr,
        )
        return 2
    return commands[argv[0]](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
