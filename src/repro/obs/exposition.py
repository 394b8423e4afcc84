"""OpenMetrics text exposition and the HTTP introspection endpoint.

Two halves:

* :func:`render_openmetrics` / :func:`validate_openmetrics` — encode the
  existing :class:`~repro.obs.metrics.MetricsRegistry` as OpenMetrics
  1.0 text (the stricter sibling of the Prometheus format: counter
  *families* drop the ``_total`` suffix while their samples keep it,
  ``# UNIT`` lines declare units, the stream ends with ``# EOF``), plus
  a validator strict enough for CI to reject malformed output.

* :class:`ObsServer` — a stdlib ``http.server`` endpoint exposing a live
  warehouse: ``/metrics`` (OpenMetrics), ``/healthz`` (liveness +
  degradation JSON), ``/dashboard.json`` (the full health dashboard as
  JSON) and ``/flight-recorder`` (the current ring-buffer contents).
  It runs on a daemon thread, binds an ephemeral port by default, and
  serves every route from in-process state — no persistence, no
  dependencies, safe to enable in production via
  ``Warehouse(obs_http_port=...)``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

from ..errors import ShardingError
from .events import recovery_degraded
from .metrics import _escape

__all__ = [
    "render_openmetrics",
    "validate_openmetrics",
    "ObsServer",
    "CONTENT_TYPE_OPENMETRICS",
]

CONTENT_TYPE_OPENMETRICS = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: metric-name suffix -> OpenMetrics unit, when the name declares one.
_UNITS = ("seconds", "bytes")


def _family_and_unit(metric) -> tuple:
    """(family name, unit or None) for *metric* under OpenMetrics rules."""
    name = metric.name
    if metric.kind == "counter" and name.endswith("_total"):
        name = name[: -len("_total")]
    for unit in _UNITS:
        if name.endswith("_" + unit):
            return name, unit
    return name, None


def render_openmetrics(registry) -> str:
    """The whole registry as OpenMetrics 1.0 text, ``# EOF`` included."""
    lines: List[str] = []
    for metric in registry.metrics():
        family, unit = _family_and_unit(metric)
        rendered = metric.render()
        samples = [line for line in rendered if not line.startswith("# ")]
        if metric.help:
            lines.append(f"# HELP {family} {_escape(metric.help)}")
        lines.append(f"# TYPE {family} {metric.kind}")
        if unit:
            lines.append(f"# UNIT {family} {unit}")
        lines.extend(samples)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "histogram": ("_bucket", "_sum", "_count", "_created"),
}


def validate_openmetrics(text: str) -> List[str]:
    """Errors in *text* as an OpenMetrics 1.0 stream (empty = valid).

    Checks the invariants CI cares about: a single terminal ``# EOF``,
    every sample preceded by a ``# TYPE`` for its family, sample names
    using only the suffixes their family's type allows, parseable
    values, and no duplicate family metadata.
    """
    errors: List[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        errors.append("stream must end with a '# EOF' line")
    types: Dict[str, str] = {}
    seen_meta: set = set()
    for i, line in enumerate(lines, start=1):
        if not line:
            errors.append(f"line {i}: blank lines are not allowed")
            continue
        if line == "# EOF":
            if i != len(lines):
                errors.append(f"line {i}: content after '# EOF'")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "HELP",
                "TYPE",
                "UNIT",
            ):
                errors.append(f"line {i}: malformed metadata line")
                continue
            keyword, family = parts[1], parts[2]
            if (keyword, family) in seen_meta:
                errors.append(
                    f"line {i}: duplicate '# {keyword}' for {family}"
                )
            seen_meta.add((keyword, family))
            if keyword == "TYPE":
                if family in types:
                    errors.append(f"line {i}: duplicate TYPE for {family}")
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in (
                    "counter",
                    "gauge",
                    "histogram",
                    "summary",
                    "info",
                    "stateset",
                    "unknown",
                ):
                    errors.append(f"line {i}: unknown type {kind!r}")
                types[family] = kind
            elif keyword == "UNIT":
                unit = parts[3] if len(parts) > 3 else ""
                if not unit or not family.endswith("_" + unit):
                    errors.append(
                        f"line {i}: UNIT {unit!r} must suffix the "
                        f"family name {family!r}"
                    )
            continue
        # sample line: name[{labels}] value [timestamp]
        name_end = len(line)
        brace = line.find("{")
        if brace != -1:
            close = line.find("}")
            if close == -1:
                errors.append(f"line {i}: unterminated label set")
                continue
            name_end = brace
            rest = line[close + 1 :].strip()
        else:
            space = line.find(" ")
            if space == -1:
                errors.append(f"line {i}: sample has no value")
                continue
            name_end = space
            rest = line[space + 1 :].strip()
        name = line[:name_end]
        family = _owning_family(name, types)
        if family is None:
            errors.append(
                f"line {i}: sample {name!r} has no preceding # TYPE"
            )
        value = rest.split(" ")[0] if rest else ""
        try:
            float(value)
        except ValueError:
            errors.append(f"line {i}: unparseable value {value!r}")
    return errors


def _owning_family(sample_name: str, types: Dict[str, str]) -> Optional[str]:
    for family, kind in types.items():
        for suffix in _SUFFIXES.get(kind, ("",)):
            if sample_name == family + suffix:
                return family
    return None


class ObsServer:
    """HTTP introspection for a live telemetry (and optional warehouse).

    Routes::

        GET /metrics          OpenMetrics text (SLO gauges refreshed)
        GET /healthz          {"status": "ok"|"degraded", ...}
        GET /dashboard.json   totals, reliability, SLO, durability
        GET /flight-recorder  current ring-buffer dump (JSON)

    ``/healthz`` answers 200 while healthy and 503 once any view is
    quarantined or the last recovery was degraded, so a plain liveness
    probe doubles as a degradation alarm.
    """

    def __init__(
        self,
        telemetry,
        warehouse=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.telemetry = telemetry
        self.warehouse = warehouse
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ObsServer":
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - stdlib casing
                server._handle(self)

            def log_message(self, *args):  # silence request logging
                pass

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                text = self.telemetry.openmetrics_text()
                self._reply(request, 200, text, CONTENT_TYPE_OPENMETRICS)
            elif path == "/healthz":
                payload = self.health_payload()
                status = 200 if payload["status"] == "ok" else 503
                self._reply_json(request, status, payload)
            elif path == "/dashboard.json":
                self._reply_json(request, 200, self.dashboard_payload())
            elif path == "/flight-recorder":
                dump = self.telemetry.recorder.dump(reason="http")
                self._reply_json(request, 200, dump)
            else:
                self._reply_json(
                    request,
                    404,
                    {
                        "error": "not found",
                        "routes": [
                            "/metrics",
                            "/healthz",
                            "/dashboard.json",
                            "/flight-recorder",
                        ],
                    },
                )
        except Exception as exc:  # the endpoint must never kill a probe
            try:
                self._reply_json(request, 500, {"error": repr(exc)})
            except Exception:
                pass

    def health_payload(self) -> Dict:
        quarantined = self.telemetry.health.quarantined()
        last_recovery = getattr(self.warehouse, "last_recovery", None)
        degraded_recovery = bool(last_recovery) and (
            recovery_degraded(last_recovery)
            # sharded: a quarantined shard or a reincarnation that lost
            # WAL history reports itself through the same channel
            or last_recovery.get("degraded")
        )
        status = "degraded" if quarantined or degraded_recovery else "ok"
        payload: Dict = {"status": status, "quarantined": quarantined}
        if last_recovery is not None:
            payload["last_recovery"] = last_recovery
        return payload

    def dashboard_payload(self) -> Dict:
        health = self.telemetry.health
        payload: Dict = {
            "totals": health.totals(),
            "reliability": health.reliability(),
            "quarantined": health.quarantined(),
            "durability": health.durability(),
            "latency": {
                view: health.latency_percentiles(view)
                for view in health.views
            },
            "slo": self.telemetry.slo.snapshot(),
        }
        last_recovery = getattr(self.warehouse, "last_recovery", None)
        if last_recovery is not None:
            payload["last_recovery"] = last_recovery
        serving_stats = getattr(self.warehouse, "serving_stats", None)
        if callable(serving_stats):
            try:
                payload["serving"] = serving_stats()
            except ShardingError:
                # a sharded warehouse's snapshot stores are per shard
                pass
        return payload

    @staticmethod
    def _reply(
        request: BaseHTTPRequestHandler,
        status: int,
        body: str,
        content_type: str,
    ) -> None:
        data = body.encode("utf-8")
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(data)))
        request.end_headers()
        request.wfile.write(data)

    @classmethod
    def _reply_json(
        cls, request: BaseHTTPRequestHandler, status: int, payload: Dict
    ) -> None:
        cls._reply(
            request,
            status,
            json.dumps(payload, indent=1, default=repr) + "\n",
            "application/json; charset=utf-8",
        )
