"""End-to-end observability: forced quarantine → flight-recorder dump,
and the HTTP endpoint serving OpenMetrics with SLO quantiles and per-view
burn rate against a live warehouse (the ISSUE 6 acceptance criteria)."""

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.algebra import Q, eq
from repro.core import ViewDefinition
from repro.engine import Database
from repro.errors import FanOutError
from repro.obs import Telemetry, validate_openmetrics
from repro.obs.recorder import DUMP_SPANS
from repro.obs.tracing import SPAN_CAPACITY
from repro.runtime import FAILPOINTS
from repro.warehouse import Warehouse


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


def make_db() -> Database:
    rng = random.Random(11)
    db = Database()
    for name in ("r", "s"):
        db.create_table(name, ["k", "v"], key=["k"])
        db.insert(name, [(i, rng.randint(0, 3)) for i in range(8)])
    return db


def make_warehouse(telemetry, workers=0, **kwargs) -> Warehouse:
    wh = Warehouse(make_db(), telemetry=telemetry, workers=workers, **kwargs)
    full = Q.table("r").full_outer_join("s", on=eq("r.v", "s.v")).build()
    left = Q.table("r").left_outer_join("s", on=eq("r.v", "s.v")).build()
    wh.create_view("frail", ViewDefinition("frail", full))
    wh.create_view("steady", ViewDefinition("steady", left))
    return wh


def fetch(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def spans_with_errors(span_dict):
    """Every node of a span-dict tree with error status, depth-first."""
    found = []
    if span_dict.get("status") == "error":
        found.append(span_dict)
    for child in span_dict.get("children", ()):
        found.extend(spans_with_errors(child))
    return found


@pytest.mark.parametrize("workers", [0, 2])
def test_forced_quarantine_dumps_flight_recorder(tmp_path, workers):
    """Acceptance: a failpoint-forced quarantine produces a JSON dump
    holding the failing span chain and the triggering event."""
    telemetry = Telemetry(dump_dir=str(tmp_path / "flight"))
    wh = make_warehouse(telemetry, workers=workers)
    try:
        wh.insert("r", [(100, 1)])  # healthy traffic first
        # maintain.pass fires *inside* the maintain span, so the dump
        # captures a real failing span chain, not just the event
        FAILPOINTS.arm(
            "maintain.pass", action="raise", times=None, view="frail"
        )
        with pytest.raises(FanOutError):
            wh.insert("r", [(101, 2)])
        FAILPOINTS.disarm("maintain.pass")

        assert wh.quarantined_views == ["frail"]
        paths = telemetry.recorder.dump_paths()
        assert paths, "quarantine must write a flight-recorder dump"
        dump = json.loads(open(paths[-1]).read())

        # the triggering structured event is embedded in the artifact
        assert dump["reason"] == "view.quarantined"
        assert dump["trigger"]["kind"] == "view.quarantined"
        assert dump["trigger"]["attrs"]["view"] == "frail"
        kinds = [e["kind"] for e in dump["events"]]
        assert "view.quarantined" in kinds

        # ... alongside the failing span chain
        failing = [
            err
            for span in dump["spans"]
            for err in spans_with_errors(span)
        ]
        assert failing, "dump must contain the failing span chain"
        assert any(
            span.get("name") == "maintain"
            and span.get("attributes", {}).get("view") == "frail"
            for span in failing
        )
    finally:
        FAILPOINTS.reset()
        wh.scheduler.shutdown()


def test_one_span_store_feeds_dumps_and_the_dashboard(tmp_path):
    """The tracer's ring is the only span store: past its capacity, a
    quarantine's dump holds the ring's newest roots — the failing
    ``maintain`` span among them — and the dashboard's phase costs fold
    the same retained spans, not every pass the registry counted."""
    telemetry = Telemetry(dump_dir=str(tmp_path / "flight"))
    wh = make_warehouse(telemetry)
    try:
        for _ in range(SPAN_CAPACITY // 2 + 3):  # > SPAN_CAPACITY changes
            wh.insert("r", [(100, 1)])
            wh.delete("r", [(100, 1)])
        with FAILPOINTS.armed("maintain.pass", view="frail"):
            with pytest.raises(FanOutError):
                wh.insert("r", [(101, 2)])
        roots = telemetry.spans
        assert len(roots) == SPAN_CAPACITY

        dump = json.loads(open(telemetry.recorder.last_dump_path).read())
        assert dump["reason"] == "view.quarantined"
        newest = [span.to_dict() for span in roots[-DUMP_SPANS:]]
        assert dump["spans"] == json.loads(json.dumps(newest))
        (failing,) = [s for s in spans_with_errors(dump["spans"][-1]) if s["name"] == "maintain"]
        assert failing["attributes"]["view"] == "frail"

        costs, totals = telemetry.health.pass_costs(), telemetry.totals()
        for view in ("frail", "steady"):
            classify = [
                span.attributes["phases"]["classify"]
                for root in roots
                for span in root.children
                if span.attributes["view"] == view and span.status == "ok"
            ]
            assert costs[view]["phases"]["classify"]["count"] == len(classify)
            assert costs[view]["phases"]["classify"]["max"] == max(classify)
            assert len(classify) < totals[view]["passes"]
    finally:
        wh.scheduler.shutdown()


def test_metrics_endpoint_serves_slo_quantiles_and_burn_rate(tmp_path):
    """Acceptance: /metrics is valid OpenMetrics and carries p50/p99
    maintenance-latency quantiles and per-view burn rate."""
    telemetry = Telemetry(dump_dir=str(tmp_path / "flight"))
    wh = make_warehouse(telemetry, obs_http_port=0)
    server = wh.obs_server
    assert server is not None and server.port
    try:
        for i in range(3):
            wh.insert("r", [(200 + i, i % 3)])
        wh.flush()

        status, body = fetch(server.url + "/metrics")
        assert status == 200
        text = body.decode()
        assert validate_openmetrics(text) == []
        for quantile in ("p50", "p99"):
            assert (
                "repro_slo_latency_seconds"
                f'{{phase="maintenance",quantile="{quantile}"}}' in text
            )
        assert 'repro_slo_burn_rate{view="frail"} 0' in text
        assert 'repro_slo_burn_rate{view="steady"} 0' in text

        # healthy warehouse: /healthz says ok
        status, body = fetch(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

        # quarantine flips /healthz to degraded/503 and raises the
        # frail view's burn rate above zero (maintain.pass so the
        # failed pass records an SLO outcome for the view)
        FAILPOINTS.arm(
            "maintain.pass", action="raise", times=None, view="frail"
        )
        with pytest.raises(FanOutError):
            wh.insert("r", [(300, 1)])
        FAILPOINTS.disarm("maintain.pass")

        status, body = fetch(server.url + "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert "frail" in payload["quarantined"]

        status, body = fetch(server.url + "/metrics")
        text = body.decode()
        assert validate_openmetrics(text) == []
        burn_lines = [
            line
            for line in text.splitlines()
            if line.startswith('repro_slo_burn_rate{view="frail"}')
        ]
        assert burn_lines and float(burn_lines[0].split(" ")[1]) > 0

        status, body = fetch(server.url + "/dashboard.json")
        payload = json.loads(body)
        assert payload["slo"]["views"]["frail"]["burn_rate"] > 0
        assert "durability" in payload
    finally:
        FAILPOINTS.reset()
        wh.repair_view("frail")
        wh.close()
    assert wh.obs_server is None  # close() stopped the endpoint


def test_healthz_reports_last_recovery(tmp_path):
    """Satellite: last_recovery surfaces through /healthz."""
    wal_path = str(tmp_path / "changes.wal")
    telemetry = Telemetry()
    wh = make_warehouse(telemetry, wal_path=wal_path)
    wh.insert("r", [(400, 1)])
    wh.close()

    telemetry2 = Telemetry()
    wh2 = Warehouse(make_db(), telemetry=telemetry2, wal_path=wal_path)
    full = Q.table("r").full_outer_join("s", on=eq("r.v", "s.v")).build()
    wh2.create_view("frail", ViewDefinition("frail", full))
    wh2.recover()
    server = wh2.serve_obs()
    try:
        status, body = fetch(server.url + "/healthz")
        assert status == 200  # clean recovery: not degraded
        payload = json.loads(body)
        recovery = payload["last_recovery"]
        assert recovery["corruption_detected"] is False
        assert recovery["quarantined_segments"] == []
        assert "replayed" in recovery
        # the recovery event landed in the flight recorder too
        kinds = [e.kind for e in telemetry2.recorder.events]
        assert "recovery.completed" in kinds
    finally:
        wh2.close()


def test_degraded_recovery_flips_healthz(tmp_path):
    """A recovery that detected corruption reports degraded on /healthz
    and emits recovery.degraded (a dump-trigger event)."""
    wal_path = str(tmp_path / "changes.wal")
    wh = make_warehouse(Telemetry(), wal_path=wal_path)
    for i in range(4):
        wh.insert("r", [(500 + i, i % 3)])
    wh.close()

    # bit-flip inside the first record of the first segment: a
    # non-final record that fails its CRC quarantines the segment
    import os

    segments = sorted(
        os.path.join(wal_path, name)
        for name in os.listdir(wal_path)
        if name.startswith("seg-") and name.endswith(".wal")
    )
    raw = bytearray(open(segments[0], "rb").read())
    raw[15] ^= 0x01
    with open(segments[0], "wb") as handle:
        handle.write(bytes(raw))

    telemetry = Telemetry(dump_dir=str(tmp_path / "flight"))
    wh2 = Warehouse(make_db(), telemetry=telemetry, wal_path=wal_path)
    full = Q.table("r").full_outer_join("s", on=eq("r.v", "s.v")).build()
    wh2.create_view("frail", ViewDefinition("frail", full))
    wh2.recover()
    server = wh2.serve_obs()
    try:
        status, body = fetch(server.url + "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert payload["last_recovery"]["corruption_detected"] is True
        kinds = [e.kind for e in telemetry.recorder.events]
        assert "recovery.degraded" in kinds
        assert telemetry.recorder.dump_paths(), (
            "degraded recovery must dump the flight recorder"
        )
    finally:
        wh2.close()
