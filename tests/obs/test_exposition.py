"""OpenMetrics encoding, validation, and the HTTP introspection server."""

import json
import types
import urllib.request

import pytest

from repro.obs import Telemetry
from repro.obs.exposition import (
    CONTENT_TYPE_OPENMETRICS,
    ObsServer,
    render_openmetrics,
    validate_openmetrics,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestRenderOpenMetrics:
    def test_counter_family_drops_total_samples_keep_it(self, registry):
        c = registry.counter("repro_hits_total", "Hits", ("view",))
        c.inc(3, view="v3")
        text = render_openmetrics(registry)
        assert "# TYPE repro_hits counter" in text
        assert "# HELP repro_hits Hits" in text
        assert 'repro_hits_total{view="v3"} 3' in text
        assert "# TYPE repro_hits_total" not in text

    def test_unit_line_for_seconds(self, registry):
        h = registry.histogram(
            "repro_pass_seconds", "Latency", (), buckets=(1.0,)
        )
        h.observe(0.5)
        text = render_openmetrics(registry)
        assert "# UNIT repro_pass_seconds seconds" in text

    def test_unit_line_for_counter_strips_total_first(self, registry):
        registry.counter("repro_busy_seconds_total", "Busy time").inc(1)
        text = render_openmetrics(registry)
        assert "# UNIT repro_busy_seconds seconds" in text
        assert "repro_busy_seconds_total 1" in text

    def test_gauge_unchanged(self, registry):
        registry.gauge("repro_depth", "Depth").set(4)
        text = render_openmetrics(registry)
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 4" in text

    def test_ends_with_eof(self, registry):
        assert render_openmetrics(registry).endswith("# EOF\n")

    def test_histogram_buckets_survive(self, registry):
        h = registry.histogram("lat", "", (), buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        text = render_openmetrics(registry)
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 5" in text
        assert "lat_count 3" in text

    def test_output_validates(self, registry):
        registry.counter("repro_a_total", "A", ("k",)).inc(k="x")
        registry.gauge("repro_b", "B").set(1)
        h = registry.histogram("repro_c_seconds", "C", (), buckets=(1.0,))
        h.observe(0.2)
        assert validate_openmetrics(render_openmetrics(registry)) == []


class TestValidator:
    def test_missing_eof(self):
        assert validate_openmetrics("# TYPE a gauge\na 1\n")

    def test_sample_without_type(self):
        errors = validate_openmetrics("orphan 1\n# EOF\n")
        assert any("no preceding # TYPE" in e for e in errors)

    def test_counter_sample_must_use_total_suffix(self):
        text = "# TYPE hits counter\nhits 1\n# EOF\n"
        errors = validate_openmetrics(text)
        assert any("hits" in e for e in errors)

    def test_bad_value(self):
        text = "# TYPE a gauge\na nope\n# EOF\n"
        errors = validate_openmetrics(text)
        assert any("unparseable value" in e for e in errors)

    def test_unit_must_suffix_name(self):
        text = "# TYPE a gauge\n# UNIT a seconds\na 1\n# EOF\n"
        errors = validate_openmetrics(text)
        assert any("UNIT" in e for e in errors)

    def test_content_after_eof(self):
        text = "# EOF\n# TYPE a gauge\na 1\n"
        errors = validate_openmetrics(text)
        assert any("after '# EOF'" in e for e in errors)

    def test_duplicate_type(self):
        text = "# TYPE a gauge\n# TYPE a gauge\na 1\n# EOF\n"
        errors = validate_openmetrics(text)
        assert any("duplicate" in e for e in errors)

    def test_clean_stream_passes(self):
        text = (
            "# HELP a Help text\n"
            "# TYPE a gauge\n"
            'a{view="x"} 1.5\n'
            "# TYPE b counter\n"
            "b_total 2\n"
            "# EOF\n"
        )
        assert validate_openmetrics(text) == []


def fetch(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestObsServer:
    @pytest.fixture
    def telemetry(self):
        t = Telemetry()
        t.emit("wal.append", table="lineitem")
        t.emit("warehouse.apply", seconds=0.001)
        t.emit("maintenance.pass", report=types.SimpleNamespace(
            view="v3", table="lineitem", operation="insert", total_view_changes=1,
            base_rows=1, primary_skipped=False, elapsed_seconds=0.001,
            secondary_strategy_used={},
        ))
        return t

    @pytest.fixture
    def server(self, telemetry):
        server = ObsServer(telemetry).start()
        yield server
        server.stop()

    def test_metrics_route_serves_valid_openmetrics(self, server):
        status, headers, body = fetch(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE_OPENMETRICS
        text = body.decode()
        assert validate_openmetrics(text) == []
        assert "repro_slo_burn_rate" in text

    def test_healthz_ok(self, server):
        status, _headers, body = fetch(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["quarantined"] == {}

    def test_healthz_degrades_on_quarantine(self, server, telemetry):
        telemetry.emit("view.quarantined", view="v3", reason="boom")
        status, _headers, body = fetch(server.url + "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert "v3" in payload["quarantined"]

    def test_dashboard_json(self, server):
        status, _headers, body = fetch(server.url + "/dashboard.json")
        assert status == 200
        payload = json.loads(body)
        for key in ("totals", "reliability", "quarantined", "durability",
                    "slo"):
            assert key in payload
        assert payload["slo"]["views"]["v3"]["passes"] == 1

    def test_flight_recorder_route(self, server, telemetry):
        telemetry.emit("maintenance.error", view="v3", table="lineitem", operation="insert")
        status, _headers, body = fetch(server.url + "/flight-recorder")
        assert status == 200
        payload = json.loads(body)
        kinds = [e["kind"] for e in payload["events"]]
        assert "maintenance.error" in kinds

    def test_unknown_route_404s(self, server):
        status, _headers, body = fetch(server.url + "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["routes"]

    def test_ephemeral_port_assigned(self, server):
        assert server.port not in (None, 0)

    def test_start_idempotent(self, telemetry):
        server = ObsServer(telemetry).start()
        try:
            port = server.port
            assert server.start().port == port
        finally:
            server.stop()
