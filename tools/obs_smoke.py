#!/usr/bin/env python3
"""Scrape the observability endpoint of a live warehouse, end to end.

What the CI observability job runs: build a small TPC-H warehouse with
the HTTP endpoint up, drive a workload, and verify as an external
monitoring stack would —

1. ``/metrics`` parses as valid OpenMetrics and carries the SLO
   latency quantiles and per-view burn-rate gauges;
2. ``/healthz`` reports ok while healthy;
3. a quarantine forced through the ``maintain.pass`` failpoint flips
   ``/healthz`` to degraded/503, pushes the poisoned view's burn rate
   above zero, and leaves a flight-recorder JSON dump — containing the
   triggering event and a failing span chain — in ``--dump-dir`` for
   the job to upload as an artifact.

Usage::

    python tools/obs_smoke.py --dump-dir flight [--scale 0.002]

Exits 0 on success; prints every failed check and exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request
from typing import List

from repro.errors import FanOutError
from repro.obs import Telemetry, validate_openmetrics
from repro.runtime import FAILPOINTS
from repro.tpch import TPCHGenerator, oj_view, v3
from repro.warehouse import Warehouse

POISONED_VIEW = "oj_view"


def fetch(url: str):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def spans_with_errors(span_dict) -> List[dict]:
    found = []
    if span_dict.get("status") == "error":
        found.append(span_dict)
    for child in span_dict.get("children", ()):
        found.extend(spans_with_errors(child))
    return found


def check_metrics(url: str, failures: List[str], expect_burn: bool) -> None:
    status, body = fetch(url + "/metrics")
    if status != 200:
        failures.append(f"/metrics returned HTTP {status}")
        return
    text = body.decode()
    for error in validate_openmetrics(text):
        failures.append(f"/metrics OpenMetrics violation: {error}")
    for quantile in ("p50", "p99"):
        needle = f'repro_slo_latency_seconds{{phase="maintenance",quantile="{quantile}"}}'
        if needle not in text:
            failures.append(f"/metrics missing {needle}")
    burn_prefix = f'repro_slo_burn_rate{{view="{POISONED_VIEW}"}}'
    burn = [line for line in text.splitlines() if line.startswith(burn_prefix)]
    if not burn:
        failures.append(f"/metrics missing {burn_prefix}")
    elif expect_burn and float(burn[0].split(" ")[1]) <= 0:
        failures.append(f"burn rate flat after quarantine: {burn[0]!r} (want > 0)")


def check_dump(telemetry: Telemetry, failures: List[str]) -> None:
    paths = telemetry.recorder.dump_paths()
    if not paths:
        failures.append("forced quarantine wrote no flight-recorder dump")
        return
    dump = json.loads(open(paths[-1]).read())
    if dump.get("trigger", {}).get("kind") != "view.quarantined":
        failures.append(f"dump trigger is {dump.get('trigger')!r}, want kind=view.quarantined")
    failing = [err for span in dump["spans"] for err in spans_with_errors(span)]
    if not any(
        span.get("name") == "maintain" and span.get("attributes", {}).get("view") == POISONED_VIEW
        for span in failing
    ):
        failures.append("dump holds no failing maintain span for the poisoned view")
    print(f"flight-recorder dump verified: {paths[-1]}")


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dump-dir",
        default="flight",
        help="flight-recorder dump directory (default: flight)",
    )
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    args = parser.parse_args(argv)

    print(f"Building TPC-H warehouse at SF={args.scale} ...")
    generator = TPCHGenerator(scale_factor=args.scale, seed=7)
    telemetry = Telemetry(dump_dir=args.dump_dir)
    warehouse = Warehouse(
        generator.build(),
        telemetry=telemetry,
        obs_http_port=args.port,
    )
    warehouse.create_view("v3", v3())
    warehouse.create_view(POISONED_VIEW, oj_view())
    server = warehouse.obs_server
    print(f"Endpoint up at {server.url}")

    failures: List[str] = []
    try:
        for step in range(3):
            warehouse.insert("lineitem", generator.lineitem_insert_batch(40, seed=10 + step))
        warehouse.flush()

        check_metrics(server.url, failures, expect_burn=False)

        status, body = fetch(server.url + "/healthz")
        if status != 200 or json.loads(body)["status"] != "ok":
            failures.append(f"healthy /healthz gave HTTP {status}: {body.decode()!r}")

        print("Forcing a quarantine via the maintain.pass failpoint ...")
        with FAILPOINTS.armed("maintain.pass", action="raise", view=POISONED_VIEW):
            try:
                warehouse.insert("lineitem", generator.lineitem_insert_batch(10, seed=99))
                failures.append("poisoned fan-out did not raise")
            except FanOutError:
                pass

        status, body = fetch(server.url + "/healthz")
        payload = json.loads(body)
        if status != 503 or payload["status"] != "degraded":
            failures.append(f"degraded /healthz gave HTTP {status}: {payload!r}")
        if POISONED_VIEW not in payload.get("quarantined", {}):
            failures.append(f"{POISONED_VIEW} missing from /healthz quarantined set")

        check_metrics(server.url, failures, expect_burn=True)
        check_dump(telemetry, failures)
    finally:
        FAILPOINTS.reset()
        warehouse.close()

    if failures:
        print("observability smoke FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        "observability smoke passed: /metrics valid, /healthz tracked "
        "the quarantine, dump artifact on disk"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
