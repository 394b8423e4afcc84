"""The telemetry contract: golden exposition + a closed occurrence table.

``golden_exposition.json`` was captured from the commit *before*
``Telemetry.emit`` replaced the ``record_*`` methods: the metric
families (name, type, help, labels, buckets; 54 then, 53 since
``repro_shard_compensations_total`` went with statement compensation),
the 17 event kinds with
their severities, the dump triggers, and — under ``"scenario"`` — the
exposition text, event list, dashboard and accessor results after one
call of every ``record_*`` method with fixed values.  ``SCENARIO`` below
is that same sequence as ``emit`` calls, except that the plan-cache and
view-size series are read at scrape from ``WATCHED``; the outputs must
be identical.

Latency quantiles are read off histogram buckets since the dashboard and
the SLO tracker stopped keeping samples of their own.  That re-captured
four things and nothing else: the ``repro_maintenance_seconds`` bucket
bounds (finer below 0.5 ms), the new ``repro_warehouse_seconds``
histogram (54 families again) that the ``apply`` and ``flush`` lanes
read, the dashboard's p50/p95 columns and the SLO latency quantiles.

Since a failed view is quarantined at its first failure, nothing is
retried: ``repro_view_retries_total`` (53 families) and ``view.retry``
(15 event kinds) left the capture with the ``retries`` field of
``reliability()``, and two help strings were corrected —
``repro_view_quarantined_total`` no longer speaks of a retry budget, and
``repro_slo_latency_seconds`` covers every observation since the
telemetry was built, not a retained window.

Since a snapshot publish copies nothing (it links an undo log),
``repro_snapshot_captured_rows_total`` and
``repro_snapshot_full_captures_total`` left the capture (51 families).
"""

import ast
import gc
import json
import os
import pathlib
import re
import sys
import threading
import types

import pytest

from repro.obs import DUMP_TRIGGERS, EVENT_KINDS, Telemetry
from repro.obs.__main__ import REFERENCE_BEGIN, REFERENCE_END, reference_markdown
from repro.obs.events import (
    EVENTS_TOTAL,
    FAMILIES,
    FLIGHT_DUMPS,
    OCCURRENCES,
    PLAN_CACHE_REQUESTS,
    VIEW_ROWS,
)

HERE = pathlib.Path(__file__).parent
ROOT = HERE.parent.parent
SRC = ROOT / "src" / "repro"
GOLDEN = json.loads((HERE / "golden_exposition.json").read_text())


def report(
    view="v3",
    table="lineitem",
    operation="insert",
    changes=10,
    base=5,
    skipped=False,
    seconds=0.010,
    strategies=None,
):
    return types.SimpleNamespace(
        view=view,
        table=table,
        operation=operation,
        total_view_changes=changes,
        base_rows=base,
        primary_skipped=skipped,
        elapsed_seconds=seconds,
        secondary_strategy_used=strategies or {},
    )


class Watched:
    """What :meth:`Telemetry.watch` reads of a maintainer, at fixed values."""

    def __init__(self, view="v3", hits=1, misses=1, rows=42):
        self.definition = types.SimpleNamespace(name=view)
        self.plan_cache = types.SimpleNamespace(hits=hits, misses=misses)
        self.view = range(rows)


#: the scrape sources of the golden scenario: one hit, one miss, 42 rows
WATCHED = [Watched()]

CLEAN = {
    "replayed": 2,
    "corruption_detected": False,
    "quarantined_segments": [],
    "recomputed_views": [],
}
DEGRADED = {
    "replayed": 2,
    "corruption_detected": True,
    "quarantined_segments": ["s"],
    "recomputed_views": ["v3"],
}

SCENARIO = [
    ("maintenance.pass", {"report": report(changes=4, base=2, strategies={"{c}": "view", "{p}": "base"})}),
    ("maintenance.pass", {"report": report(operation="delete", changes=6, base=3, skipped=True, seconds=0.004)}),
    ("maintenance.pass", {"report": report(view="oj", table="orders", seconds=0.3)}),
    ("maintenance.error", {"view": "v3", "table": "lineitem", "operation": "insert"}),
    ("plan.compiled", {"view": "v3", "seconds": 0.002}),
    ("view.quarantined", {"view": "oj", "reason": "insert on 'orders' failed: boom"}),
    ("view.quarantined", {"view": "v3", "reason": "x"}),
    ("view.reinstated", {"view": "v3"}),
    ("scheduler.queue_depth", {"depth": 3}),
    ("shard.rows", {"shard": 0, "table": "lineitem", "rows": 7}),
    ("shard.rows", {"shard": 0, "table": "orders", "rows": 2}),
    ("shard.queue_depth", {"shard": 1, "depth": 4}),
    ("shard.skew", {"table": "lineitem", "skew": 1.5}),
    ("shard.change", {"shard": 0, "table": "lineitem"}),
    ("shard.query", {"outcome": "fastpath"}),
    ("shard.query", {"outcome": "fanout"}),
    ("shard.merge", {"seconds": 0.003}),
    ("shard.rebalance_hint", {"table": "lineitem"}),
    ("shard.dead", {"shard": 1, "reason": "exit"}),
    ("shard.reincarnated", {"shard": 1, "seconds": 0.2, "summary": {"replayed": 3}}),
    ("shard.flapping", {"shard": 0, "restarts": 5}),
    ("txn.indoubt.resolved", {"txn": "t-1", "outcome": "commit"}),
    ("wal.append", {"table": "lineitem"}),
    ("wal.fsync", {"seconds": 0.0002}),
    ("scheduler.load_shed", {"table": "orders"}),
    ("scheduler.queue_wait", {"seconds": 0.0007}),
    ("checkpoint.corrupt", {"name": "ckpt-3.json"}),
    ("wal.compaction", {"segments_deleted": 3}),
    ("wal.segment_quarantined", {"segment": "wal-000001.seg"}),
    ("fuzz.case", {"outcome": "mismatch", "mismatch_kinds": ["view-divergence", "outcome"]}),
    ("recovery", {"summary": CLEAN}),
    ("recovery", {"summary": DEGRADED}),
    ("snapshot.read", {"view": "v3", "seconds": 0.00003, "snapshot_age": 0.5, "lag": 2}),
    ("snapshot.published", {"lsn": 9, "retained": 2, "stale_views": 1}),
    ("snapshot.published", {"lsn": None, "retained": 3, "stale_views": 0}),
    ("fuzz.shrink", {"steps": 4}),
    ("failpoint.fired", {"name": "wal.fsync", "fires": 2}),
    ("warehouse.apply", {"seconds": 0.001}),
    ("warehouse.flush", {"seconds": 0.002}),
]


# ---------------------------------------------------------------------------
# (a) golden exposition
# ---------------------------------------------------------------------------
class TestGoldenExposition:
    def test_families_are_what_the_parent_exposed(self):
        telemetry = Telemetry()
        telemetry.openmetrics_text()  # registers the three SLO gauges
        exposed = [
            {
                "name": m.name,
                "type": m.kind,
                "help": m.help,
                "labels": list(m.labelnames),
                "buckets": list(getattr(m, "buckets", ())) or None,
            }
            for m in telemetry.metrics.metrics()
        ]
        assert len(exposed) == 51
        assert exposed == GOLDEN["families"]

    def test_event_kinds_severities_and_dump_triggers(self):
        assert len(EVENT_KINDS) == 15
        severities = {kind: entry[0] for kind, entry in EVENT_KINDS.items()}
        assert severities == GOLDEN["events"]
        assert sorted(DUMP_TRIGGERS) == GOLDEN["dump_triggers"]

    def test_scenario_reads_back_byte_for_byte(self):
        telemetry = Telemetry()
        for source in WATCHED:
            telemetry.watch(source)
        for kind, attrs in SCENARIO:
            telemetry.emit(kind, **attrs)
        golden = GOLDEN["scenario"]
        assert telemetry.metrics_text() == golden["metrics_text"]
        assert telemetry.dashboard() == golden["dashboard"]
        events = [
            [e.kind, e.severity, e.message, e.to_dict().get("attrs", {})]
            for e in telemetry.recorder.events
        ]
        assert json.loads(json.dumps(events)) == golden["events"]
        health = telemetry.health
        assert telemetry.totals() == golden["totals"]
        assert health.durability() == golden["durability"]
        assert health.reliability() == golden["reliability"]
        assert health.quarantined() == golden["quarantined"]
        slo = telemetry.slo.snapshot()
        assert slo["latency"] == golden["slo"]["latency"]
        assert slo["views"] == golden["slo"]["views"]
        # ints, not the registry's floats: /dashboard.json renders them
        counts = [n for row in telemetry.totals().values() for n in row.values()]
        assert counts and all(type(n) is int for n in counts)

    def test_checkpoint_written_reports_its_kind(self):
        # the parent's record_checkpoint passed kind= into record_event,
        # whose first parameter is also called kind: a TypeError on every
        # checkpoint of a warehouse with telemetry on
        telemetry = Telemetry()
        telemetry.emit("checkpoint.written", seconds=0.02, size_bytes=1234, kind="delta")
        total = telemetry.metrics.get("repro_checkpoint_total")
        assert total.value(outcome="written", kind="delta") == 1
        assert telemetry.metrics.get("repro_checkpoint_bytes").value() == 1234
        (event,) = telemetry.recorder.events
        assert event.kind == "checkpoint.written"
        assert event.attrs == {"seconds": 0.02, "size_bytes": 1234, "kind": "delta"}


# ---------------------------------------------------------------------------
# (b) the table is closed
# ---------------------------------------------------------------------------
def emitted_kinds():
    """kind -> files with an ``<x>.emit("<kind>", ...)`` call under src/repro."""
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                sites.setdefault(node.args[0].value, set()).add(path.name)
    return sites


class TestClosure:
    def test_every_emit_site_names_a_declared_occurrence(self):
        assert set(emitted_kinds()) - set(OCCURRENCES) == set()

    def test_every_declared_occurrence_has_an_emit_site(self):
        assert set(OCCURRENCES) - set(emitted_kinds()) == set()

    def test_scenario_covers_the_table(self):
        direct = {kind for kind, _ in SCENARIO}
        via_handlers = {"recovery.completed", "recovery.degraded", "fuzz.mismatch"}
        untested_here = {"checkpoint.written"}  # own tests
        assert direct | via_handlers | untested_here == set(OCCURRENCES)

    def test_every_family_is_written_by_an_occurrence(self):
        written = {EVENTS_TOTAL.name, FLIGHT_DUMPS.name}  # by every event kind
        written |= {PLAN_CACHE_REQUESTS.name, VIEW_ROWS.name}  # read at scrape
        for occurrence in OCCURRENCES.values():
            written.update(effect.family.name for effect in occurrence.effects)
            written.update(family.name for family in occurrence.writes)
        assert {family.name for family in FAMILIES} == written
        assert len(FAMILIES) == 48
        # OpenMetrics exposes a counter's samples as <family>_total
        assert all(f.name.endswith("_total") for f in FAMILIES if f.type == "counter")

    def test_each_family_name_is_spelled_once(self):
        text = "".join(
            path.read_text() for path in sorted((SRC / "obs").glob("*.py"))
        )
        for family in FAMILIES:
            assert len(re.findall(rf'"{family.name}"', text)) == 1, family.name
            assert len(re.findall(rf"\b{family.name}\b", text)) == 1, family.name

    def test_no_record_methods_outside_the_span_api(self):
        allowed = {
            "record_rows",  # Span
            "record_operator",  # Span / tracing module function
            "record_event",  # FlightRecorder
        }
        found = set()
        for path in SRC.rglob("*.py"):
            found.update(re.findall(r"\.(record_[a-z_]*)\(", path.read_text()))
        assert found <= allowed
        init = (SRC / "obs" / "__init__.py").read_text()
        assert "def record_" not in init

    def test_constructor_takes_two_deployment_paths(self):
        import inspect

        assert list(inspect.signature(Telemetry).parameters) == [
            "trace_path",
            "dump_dir",
        ]


# ---------------------------------------------------------------------------
# (c) no outer lock: concurrent emits lose nothing
# ---------------------------------------------------------------------------
def test_concurrent_emit_loses_no_increment():
    telemetry = Telemetry()
    threads, per_thread = 4, 1500
    start = threading.Barrier(threads)

    def work(worker):
        start.wait(timeout=10)
        for i in range(per_thread):
            telemetry.emit("wal.append", table="lineitem")
            telemetry.emit("shard.change", shard=worker, table="lineitem")
            telemetry.emit("maintenance.pass", report=report(view=f"v{worker % 2}"))
            telemetry.emit("snapshot.read", view="v3", seconds=1e-5, snapshot_age=0.0, lag=0)
            if i % 10 == 0:
                telemetry.emit("maintenance.error", view="v3", table="lineitem", operation="insert")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)

    total = threads * per_thread
    registry = telemetry.metrics
    assert registry.get("repro_wal_appends_total").value(table="lineitem") == total
    assert registry.get("repro_shard_changes_total").total() == total
    assert registry.get("repro_maintenance_passes_total").total() == total
    assert registry.get("repro_base_rows_total").total() == 5 * total
    read = registry.get("repro_read_seconds").labels(view="v3")
    assert read.count == total
    assert registry.get("repro_events_total").total() == threads * per_thread // 10
    totals = telemetry.totals()
    assert totals["v0"]["passes"] + totals["v1"]["passes"] == total
    assert telemetry.slo.snapshot()["views"]["v0"]["passes"] == min(total // 2, 8192)


# ---------------------------------------------------------------------------
# (d) the disabled singleton: one check and a return
# ---------------------------------------------------------------------------
class TestDisabledEmit:
    def test_unknown_kind_raises_nothing_and_touches_nothing(self):
        disabled = Telemetry.disabled()
        assert disabled.emit("no.such.kind", anything=object()) is None
        assert disabled.emit("view.quarantined", view="v", reason="r") is None
        assert disabled.emit("wal.append") is None  # attributes unchecked too
        assert all(not m._series for m in disabled.metrics.metrics())
        assert disabled.recorder.events == []
        assert disabled.health.totals() == {}
        assert disabled.slo.snapshot()["views"] == {}

    def test_holds_no_maintainer(self):
        disabled = Telemetry.disabled()
        disabled.watch(Watched())
        assert disabled._watched == {} and disabled.metrics_text() == ""

    def test_enabled_unknown_kind_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown occurrence kind"):
            Telemetry().emit("view.quarantine", view="v3")


@pytest.mark.parametrize("variable", ["REPRO_TRACE_FILE", "REPRO_FLIGHT_DIR", "REPRO_METRICS_FILE"])
def test_from_env_enables_on_any_of_its_variables(tmp_path, variable):
    """Each variable alone turns telemetry on and gets its output: the
    trace file, a quarantine's dump directory, or the metrics at flush."""
    target = str(tmp_path / "out")
    env = {variable: target}
    telemetry = Telemetry.from_env(env)
    assert telemetry.enabled
    with telemetry.tracer.span("change"):
        pass
    telemetry.emit("view.quarantined", view="v", reason="r")
    telemetry.flush(env)
    assert os.path.exists(target)
    assert Telemetry.from_env({}) is Telemetry.disabled()


# ---------------------------------------------------------------------------
# (e) state read at scrape: a watched maintainer's counts outlive it
# ---------------------------------------------------------------------------
def test_scraped_counts_never_decrease_and_sizes_leave_with_their_view():
    telemetry = Telemetry()
    requests = telemetry.metrics.get(PLAN_CACHE_REQUESTS.name)
    kept, dropped, collected = Watched(), Watched(hits=3), Watched(misses=4, rows=7)
    for source in (kept, dropped, collected):
        telemetry.watch(source)
    assert 'repro_view_rows{view="v3"} 7' in telemetry.metrics_text()  # newest wins
    assert requests.value(view="v3", outcome="hit") == 5
    assert requests.value(view="v3", outcome="miss") == 6
    telemetry.unwatch(dropped)
    del collected, source
    gc.collect()
    kept.plan_cache.hits += 1
    text = telemetry.metrics_text()
    assert requests.value(view="v3", outcome="hit") == 6
    assert requests.value(view="v3", outcome="miss") == 6
    assert 'repro_view_rows{view="v3"} 42' in text
    telemetry.unwatch(kept)
    assert "repro_view_rows{" not in telemetry.metrics_text()
    assert requests.value(view="v3", outcome="hit") == 6


def test_concurrent_watch_and_scrape_never_decrease():
    telemetry = Telemetry()
    stop, readings, errors = threading.Event(), [], []
    line = re.compile(r'repro_plan_cache_requests_total\{view="v3",outcome="hit"\} (\d+)')

    def churn(drop):
        try:
            while not stop.is_set():
                source = Watched()
                telemetry.watch(source)
                if drop:
                    telemetry.unwatch(source)  # else collected when replaced
        except Exception as exc:  # a lost update shows as a KeyError here
            errors.append(exc)

    def scrape():
        for _ in range(1000):
            found = line.search(telemetry.metrics_text())
            readings.append(int(found.group(1)) if found else 0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=churn, args=(n % 2,)) for n in range(3)]
        pool.append(threading.Thread(target=scrape))
        for thread in pool:
            thread.start()
        pool[-1].join(timeout=60)
        stop.set()
        for thread in pool:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(readings) == 1000 and readings[-1] > 0
    assert readings == sorted(readings)


# ---------------------------------------------------------------------------
# the generated reference tables in docs/OBSERVABILITY.md
# ---------------------------------------------------------------------------
def test_observability_doc_matches_the_table():
    doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    block = f"{REFERENCE_BEGIN}\n{reference_markdown()}\n{REFERENCE_END}"
    assert block in doc, "stale: paste the output of `python -m repro.obs reference`"
