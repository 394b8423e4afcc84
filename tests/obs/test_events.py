"""Event taxonomy: severities, dump triggers, serialization."""

import json

from repro.obs.events import (
    DUMP_TRIGGERS,
    EVENT_KINDS,
    Event,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARN,
    severity_of,
)


class TestTaxonomy:
    def test_every_kind_has_severity_and_doc(self):
        for kind, (severity, doc) in EVENT_KINDS.items():
            assert severity in (
                SEVERITY_INFO,
                SEVERITY_WARN,
                SEVERITY_ERROR,
            ), kind
            assert doc, kind

    def test_error_kinds_all_trigger_dumps(self):
        for kind, (severity, _doc) in EVENT_KINDS.items():
            if severity == SEVERITY_ERROR:
                assert kind in DUMP_TRIGGERS

    def test_load_shed_triggers_despite_warn_severity(self):
        assert severity_of("scheduler.load_shed") == SEVERITY_WARN
        assert "scheduler.load_shed" in DUMP_TRIGGERS

    def test_info_kinds_never_trigger(self):
        for kind, (severity, _doc) in EVENT_KINDS.items():
            if severity == SEVERITY_INFO:
                assert kind not in DUMP_TRIGGERS, kind

    def test_unknown_kind_defaults_to_info(self):
        assert severity_of("not.a.kind") == SEVERITY_INFO


class TestEvent:
    def test_severity_derived_from_kind(self):
        assert Event("view.quarantined").severity == SEVERITY_ERROR
        assert Event("maintenance.error").severity == SEVERITY_WARN
        assert Event("checkpoint.written").severity == SEVERITY_INFO

    def test_timestamp_autofilled(self):
        event = Event("maintenance.error")
        assert event.ts is not None and event.ts > 0

    def test_explicit_fields_win(self):
        event = Event("maintenance.error", severity="error", ts=123.0)
        assert event.severity == "error"
        assert event.ts == 123.0

    def test_to_dict_shape(self):
        event = Event(
            "view.quarantined", "boom", {"view": "v3", "attempt": 3}
        )
        out = event.to_dict()
        assert out["kind"] == "view.quarantined"
        assert out["severity"] == SEVERITY_ERROR
        assert out["message"] == "boom"
        assert out["attrs"] == {"view": "v3", "attempt": 3}

    def test_empty_message_and_attrs_omitted(self):
        out = Event("maintenance.error").to_dict()
        assert "message" not in out
        assert "attrs" not in out

    def test_to_json_round_trips(self):
        event = Event("fuzz.mismatch", attrs={"kinds": ["rows"]})
        assert json.loads(event.to_json())["attrs"]["kinds"] == ["rows"]

    def test_unserializable_attrs_coerced(self):
        event = Event(
            "maintenance.error", attrs={"error": ValueError("nope")}
        )
        text = event.to_json()  # must not raise
        assert "nope" in text

    def test_nested_attrs_coerced(self):
        event = Event(
            "recovery.degraded",
            attrs={"segments": ("a", "b"), "meta": {1: {2, 3}}},
        )
        out = json.loads(event.to_json())
        assert out["attrs"]["segments"] == ["a", "b"]
        assert sorted(out["attrs"]["meta"]["1"]) == [2, 3]
