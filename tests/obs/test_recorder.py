"""Flight recorder: ring bounds, adaptive sampling, triggered dumps."""

import json
import os
import types

from repro.obs.events import Event
from repro.obs.recorder import FlightRecorder, span_has_error


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
        rec = FlightRecorder(span_capacity=4, sample_target_hz=0)
        for i in range(10):
            rec.emit(make_span(name=f"s{i}"))
        kept = rec.spans
        assert len(kept) == 4
        assert kept[-1].name == "s9"

    def test_events_bounded(self):
        rec = FlightRecorder(event_capacity=3)
        for i in range(7):
            rec.record_event(Event("maintenance.error", attrs={"i": i}))
        events = rec.events
        assert len(events) == 3
        assert events[-1].attrs["i"] == 6

    def test_zero_span_capacity_disables_span_buffer(self):
        rec = FlightRecorder(span_capacity=0)
        rec.emit(make_span())
        assert rec.spans == []
        assert rec.spans_seen == 0


class TestSpanHasError:
    def test_root_error(self):
        assert span_has_error(make_span(status="error"))

    def test_nested_error(self):
        inner = make_span(name="primary_delta", status="error")
        root = make_span(name="maintain", children=[inner])
        assert span_has_error(root)

    def test_clean_tree(self):
        root = make_span(children=[make_span(name="classify")])
        assert not span_has_error(root)


class TestAdaptiveSampling:
    def test_stride_rises_above_target_rate(self):
        clock = FakeClock()
        rec = FlightRecorder(sample_target_hz=10.0, clock=clock)
        # 100 spans in ~1s => 100 Hz, 10x over target -> stride ~10
        for _ in range(100):
            clock.advance(0.01)
            rec.emit(make_span())
        assert rec.sample_stride >= 5
        before = rec.spans_sampled
        for _ in range(100):
            clock.advance(0.01)
            rec.emit(make_span())
        # decimated: far fewer than 100 retained in the second burst
        assert rec.spans_sampled - before <= 30

    def test_error_spans_always_retained(self):
        clock = FakeClock()
        rec = FlightRecorder(
            span_capacity=512, sample_target_hz=10.0, clock=clock
        )
        errors = 0
        for i in range(300):
            clock.advance(0.01)
            status = "error" if i % 50 == 0 else "ok"
            errors += status == "error"
            rec.emit(make_span(status=status))
        kept_errors = [s for s in rec.spans if s.status == "error"]
        assert len(kept_errors) == errors

    def test_slow_arrival_keeps_everything(self):
        clock = FakeClock()
        rec = FlightRecorder(sample_target_hz=10.0, clock=clock)
        for _ in range(20):
            clock.advance(0.5)  # 2 Hz, well under target
            rec.emit(make_span())
        assert rec.spans_sampled == 20


class TestDumps:
    def test_trigger_event_dumps_to_file(self, tmp_path):
        rec = FlightRecorder(dump_dir=str(tmp_path))
        rec.emit(make_span(name="maintain", status="error"))
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
        rec = FlightRecorder(
            dump_dir=str(tmp_path),
            dump_min_interval_seconds=1.0,
            clock=clock,
        )
        first = rec.record_event(Event("view.quarantined"))
        second = rec.record_event(Event("view.quarantined"))
        assert first is not None
        assert second is None  # same instant: suppressed
        clock.advance(2.0)
        third = rec.record_event(Event("view.quarantined"))
        assert third is not None

    def test_max_dumps_prunes_oldest(self, tmp_path):
        clock = FakeClock()
        rec = FlightRecorder(
            dump_dir=str(tmp_path), max_dumps=2, clock=clock
        )
        for _ in range(5):
            clock.advance(10.0)
            rec.record_event(Event("view.quarantined"))
        paths = rec.dump_paths()
        assert len(paths) == 2
        assert paths[-1] == rec.last_dump_path

    def test_manual_dump_ignores_rate_limit(self, tmp_path):
        rec = FlightRecorder(dump_dir=str(tmp_path))
        assert rec.dump_to_file() is not None
        assert rec.dump_to_file() is not None

    def test_dump_contains_sampling_counters(self):
        rec = FlightRecorder(sample_target_hz=0)
        rec.emit(make_span())
        dump = rec.dump(reason="manual")
        assert dump["spans_seen"] == 1
        assert dump["spans_sampled"] == 1
        assert dump["reason"] == "manual"
