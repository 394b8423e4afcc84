"""A tour of the observability HTTP endpoint: scrape a live warehouse.

Run with::

    python examples/obs_http_tour.py

The tour builds a small TPC-H instance, starts the in-process HTTP
endpoint on an ephemeral port, drives a workload, and then plays the
role of a monitoring stack:

1. scrape ``/metrics`` (OpenMetrics, validated) and show the SLO
   gauges a Prometheus server would collect,
2. probe ``/healthz`` while healthy,
3. force a view quarantine through the ``maintain.pass`` failpoint and
   watch ``/healthz`` flip to degraded — and the flight recorder dump
   the failing span chain to disk,
4. fetch ``/flight-recorder`` for the live incident rings.

The same flow works from a shell against any warehouse built with
``Warehouse(db, obs_http_port=9464)``::

    curl -s localhost:9464/metrics | head
    curl -s localhost:9464/healthz
"""

import json
import tempfile
import urllib.error
import urllib.request

from repro.errors import FanOutError
from repro.obs import Telemetry, validate_openmetrics
from repro.runtime import FAILPOINTS, RetryPolicy
from repro.tpch import TPCHGenerator, oj_view, v3
from repro.warehouse import Warehouse


def curl(url):
    """GET *url*, returning (status, body-bytes) like a shell curl."""
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def main():
    print("Generating TPC-H at SF=0.002 ...")
    generator = TPCHGenerator(scale_factor=0.002, seed=7)
    db = generator.build()

    dump_dir = tempfile.mkdtemp(prefix="repro-flight-")
    telemetry = Telemetry(dump_dir=dump_dir)
    warehouse = Warehouse(
        db,
        telemetry=telemetry,
        retry=RetryPolicy(max_attempts=1, base_delay_seconds=0.0),
        obs_http_port=0,  # ephemeral: the OS picks a free port
    )
    warehouse.create_view("v3", v3())
    warehouse.create_view("oj_view", oj_view())
    server = warehouse.obs_server
    print(f"Endpoint up at {server.url}")

    print("Driving a workload ...")
    for step in range(3):
        warehouse.insert(
            "lineitem", generator.lineitem_insert_batch(40, seed=10 + step)
        )
    warehouse.flush()

    print("\n=== 1. GET /metrics (SLO excerpt) ===")
    status, body = curl(server.url + "/metrics")
    text = body.decode()
    errors = validate_openmetrics(text)
    print(f"HTTP {status}, OpenMetrics valid: {not errors}")
    for line in text.splitlines():
        if line.startswith("repro_slo_"):
            print(line)

    print("\n=== 2. GET /healthz while healthy ===")
    status, body = curl(server.url + "/healthz")
    print(f"HTTP {status}: {body.decode()}")

    print("\n=== 3. Force a quarantine, watch health degrade ===")
    with FAILPOINTS.armed("maintain.pass", action="raise", view="oj_view"):
        try:
            warehouse.insert(
                "lineitem", generator.lineitem_insert_batch(10, seed=99)
            )
        except FanOutError as exc:
            print(f"fan-out failed as forced: {sorted(exc.failures)}")
    status, body = curl(server.url + "/healthz")
    payload = json.loads(body)
    print(f"HTTP {status}: status={payload['status']!r}, "
          f"quarantined={sorted(payload['quarantined'])}")
    print(f"flight-recorder dumps: {telemetry.recorder.dump_paths()}")

    print("\n=== 4. GET /flight-recorder (live rings) ===")
    status, body = curl(server.url + "/flight-recorder")
    payload = json.loads(body)
    kinds = [event["kind"] for event in payload["events"]]
    print(f"HTTP {status}: {len(payload['spans'])} spans, events={kinds}")

    warehouse.repair_view("oj_view")
    warehouse.close()
    print("\nEndpoint stopped.")


if __name__ == "__main__":
    main()
