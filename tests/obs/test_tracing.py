"""Tracing spans: nesting, ordering, the ring of finished roots, the
JSON-lines file, and the disabled fast path."""

import json

import pytest

from repro.engine.operators import select
from repro.obs.tracing import (
    NULL_SPAN,
    SPAN_CAPACITY,
    NullTracer,
    Tracer,
    current_span,
    load_jsonl,
)


@pytest.fixture
def tracer():
    return Tracer()


class TestNesting:
    def test_children_nest_and_keep_order(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("first"):
                pass
            with tracer.span("second") as second:
                with tracer.span("second.child"):
                    pass
            with tracer.span("third"):
                pass
        assert [c.name for c in root.children] == ["first", "second", "third"]
        assert [c.name for c in second.children] == ["second.child"]
        # only the finished root is emitted
        assert list(tracer.spans) == [root]

    def test_current_span_tracks_stack(self, tracer):
        assert current_span() is None
        with tracer.span("outer") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_child_durations_bounded_by_parent(self, tracer):
        with tracer.span("root") as root:
            for _ in range(3):
                with tracer.span("child"):
                    sum(range(1000))
        child_total = sum(c.duration_seconds for c in root.children)
        assert 0 < child_total <= root.duration_seconds

    def test_error_marks_span_and_still_emits(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("root"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        root = tracer.spans[0]
        assert root.status == "error"
        assert root.children[0].status == "error"
        assert "boom" in root.children[0].error
        assert current_span() is None  # stack unwound

    def test_rows_and_attributes(self, tracer):
        with tracer.span("s", table="lineitem") as span:
            span.record_rows(3)
            span.record_rows(4)
            span.set_attributes(strategy="view")
        assert span.rows == 7
        assert span.attributes == {"table": "lineitem", "strategy": "view"}


def small_table():
    from repro.engine.schema import Schema
    from repro.engine.table import Table

    return Table("t", Schema(["t.a"]), [(1,), (2,), (3,)])


class TestOperatorRecording:
    def test_record_operator_into_active_span(self, tracer):
        with tracer.span("phase") as span:
            current_span().record_operator("join:inner", 10, 0.5)
            current_span().record_operator("join:inner", 5, 0.25)
            select(small_table(), lambda row: row[0] > 2)  # reports itself
        assert span.operators["join:inner"] == [2, 15, 0.75]
        calls, rows, seconds = span.operators["select"]
        assert (calls, rows) == (1, 1) and seconds >= 0

    def test_record_operator_noop_without_span(self):
        assert current_span() is None
        assert len(select(small_table(), lambda row: True)) == 3  # untraced


class TestDisabledPath:
    def test_null_tracer_hands_out_null_span(self):
        tracer = NullTracer()
        span = tracer.span("anything", view="v")
        assert span is NULL_SPAN
        with span as s:
            assert s is NULL_SPAN
            assert current_span() is None  # never pushed
            s.set_attributes(k="v")
            s.record_rows(1)
            s.record_operator("select", 1, 0.0)
        assert span.duration_seconds == 0.0


class TestSinks:
    """Where finished roots go: the tracer's ring, and the trace file."""

    def test_in_memory_capacity(self, tracer):
        for i in range(SPAN_CAPACITY + 2):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == SPAN_CAPACITY
        assert tracer.spans[0].name == "s2"
        assert tracer.spans[-1].name == f"s{SPAN_CAPACITY + 1}"

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        with tracer.span("root", view="v3") as root:
            root.record_rows(2)
            with tracer.span("primary_delta") as child:
                child.record_operator("join:inner", 7, 0.001)
        tracer.close()  # the next root reopens the file
        with tracer.span("second_root"):
            pass

        loaded = load_jsonl(path)
        assert [d["name"] for d in loaded] == ["root", "second_root"]
        assert [s.name for s in tracer.spans] == ["root", "second_root"]
        tree = loaded[0]
        assert tree["rows"] == 2
        assert tree["attributes"] == {"view": "v3"}
        assert tree["children"][0]["name"] == "primary_delta"
        assert tree["children"][0]["operators"]["join:inner"]["rows"] == 7
        assert tree["duration_seconds"] >= tree["children"][0]["duration_seconds"]
        # every line is valid standalone JSON
        with open(path) as handle:
            for line in handle:
                json.loads(line)
