"""Flight recorder: the event ring, dumps of the newest roots of the
tracer's span ring, dump numbering, rate limit and pruning."""

import json
import os
import sys
import threading
import types
from collections import deque

from repro.obs.events import Event
from repro.obs.recorder import (
    DUMP_MIN_INTERVAL_SECONDS,
    DUMP_SPANS,
    EVENT_CAPACITY,
    MAX_DUMPS,
    FlightRecorder,
)
from repro.obs.tracing import SPAN_CAPACITY, Tracer


def make_span(name="maintain", status="ok", children=(), **attrs):
    span = types.SimpleNamespace(
        name=name,
        status=status,
        children=list(children),
        attributes=attrs,
    )
    span.to_dict = lambda: {
        "name": name,
        "status": status,
        "children": [c.to_dict() for c in span.children],
    }
    return span


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRingBounds:
    def test_spans_bounded(self):
        ring = deque(make_span(name=f"s{i}") for i in range(DUMP_SPANS + 10))
        rec = FlightRecorder(ring)
        names = [span["name"] for span in rec.dump()["spans"]]
        assert len(names) == DUMP_SPANS
        assert names[0] == "s10" and names[-1] == f"s{DUMP_SPANS + 9}"
        ring.append(make_span(name="late"))  # a reference, not a copy
        assert rec.dump()["spans"][-1]["name"] == "late"

    def test_events_bounded(self):
        rec = FlightRecorder()
        for i in range(EVENT_CAPACITY + 3):
            rec.record_event(Event("maintenance.error", attrs={"i": i}))
        events = rec.events
        assert len(events) == EVENT_CAPACITY
        assert events[-1].attrs["i"] == EVENT_CAPACITY + 2


class TestDumps:
    def test_trigger_event_dumps_to_file(self, tmp_path):
        rec = FlightRecorder([make_span(name="maintain", status="error")], str(tmp_path))
        path = rec.record_event(
            Event("view.quarantined", "boom", {"view": "v3"})
        )
        assert path is not None and os.path.exists(path)
        dump = json.loads(open(path).read())
        assert dump["reason"] == "view.quarantined"
        assert dump["trigger"]["attrs"]["view"] == "v3"
        assert dump["spans"][0]["status"] == "error"
        assert rec.last_dump_path == path
        assert rec.dump_count == 1

    def test_info_event_does_not_dump(self, tmp_path):
        rec = FlightRecorder(dump_dir=str(tmp_path))
        assert rec.record_event(Event("checkpoint.written")) is None
        assert rec.dump_paths() == []

    def test_no_dump_dir_means_no_dump(self):
        rec = FlightRecorder()
        assert rec.record_event(Event("view.quarantined")) is None

    def test_rate_limit_suppresses_bursts(self, tmp_path):
        clock = FakeClock()
        rec = FlightRecorder(dump_dir=str(tmp_path), clock=clock)
        first = rec.record_event(Event("view.quarantined"))
        second = rec.record_event(Event("view.quarantined"))
        assert first is not None
        assert second is None  # same instant: suppressed
        clock.advance(DUMP_MIN_INTERVAL_SECONDS * 2)
        third = rec.record_event(Event("view.quarantined"))
        assert third is not None

    def test_max_dumps_prunes_oldest(self, tmp_path):
        clock = FakeClock()
        rec = FlightRecorder(dump_dir=str(tmp_path), clock=clock)
        for _ in range(MAX_DUMPS + 3):
            clock.advance(DUMP_MIN_INTERVAL_SECONDS * 10)
            rec.record_event(Event("view.quarantined"))
        paths = rec.dump_paths()
        assert len(paths) == MAX_DUMPS
        assert paths[-1] == rec.last_dump_path
        assert os.path.basename(paths[0]).startswith("flight-00004-")

    def test_manual_dump_ignores_rate_limit(self, tmp_path):
        rec = FlightRecorder(dump_dir=str(tmp_path))
        assert rec.dump_to_file() is not None
        assert rec.dump_to_file() is not None

    def test_second_recorder_numbers_on_from_the_first(self, tmp_path):
        """A restarted process dumping into the same directory keeps the
        earlier process's dumps, and the newest dump sorts last."""
        for view in ("first", "second"):
            rec = FlightRecorder(dump_dir=str(tmp_path))
            rec.record_event(Event("view.quarantined", attrs={"view": view}))
        paths = FlightRecorder(dump_dir=str(tmp_path)).dump_paths()
        assert [os.path.basename(p)[:12] for p in paths] == ["flight-00001", "flight-00002"]
        views = [json.loads(open(p).read())["trigger"]["attrs"]["view"] for p in paths]
        assert views == ["first", "second"]


def test_dumps_read_the_ring_while_workers_trace():
    """A dump reads the tracer's ring, unlocked, while worker threads
    append to it; it never fails and never holds more than DUMP_SPANS."""
    tracer = Tracer()
    rec = FlightRecorder(tracer.spans)
    errors = []

    def work(n):
        try:
            for _ in range(2000):
                with tracer.span(f"w{n}"):
                    pass
        except Exception as exc:  # reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            assert len(rec.dump()["spans"]) <= DUMP_SPANS
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert len(tracer.spans) == SPAN_CAPACITY
    assert len(rec.dump()["spans"]) == DUMP_SPANS
