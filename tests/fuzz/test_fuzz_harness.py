"""The fuzz harness's own tests: determinism, oracle sensitivity to
seeded bugs (the mutation smoke set from the paper's correctness
surface), shrinking, corpus round-trips and the CLI."""

import random

import pytest

import repro.core.maintain as maintain
import repro.core.primary as primary
import repro.runtime.checkpoint as checkpointmod
import repro.runtime.snapshots as snapshotsmod
import repro.runtime.wal as walmod
from repro.algebra.expr import FULL, INNER
from repro.fuzz import (
    GeneratorProfile,
    Scenario,
    generate_scenario,
    load_case,
    make_still_fails,
    run_case,
    run_fuzz,
    save_case,
    shrink,
)
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.matrix import configs_by_name
from repro.fuzz.oracle import _row_diff
from repro.obs import Telemetry

from .conftest import _scenario, clean_case


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------
def test_generation_is_deterministic():
    assert _scenario(11).to_dict() == _scenario(11).to_dict()
    assert _scenario(11).to_dict() != _scenario(12).to_dict()


def test_scenario_json_round_trip():
    for seed in range(6):
        scenario = _scenario(seed)
        again = Scenario.from_json(scenario.to_json())
        assert again.to_dict() == scenario.to_dict()
        # a rebuilt database carries the same rows as the spec
        db = again.build_database()
        for name, spec in again.tables.items():
            assert sorted(db.table(name).rows) == sorted(spec["rows"])


def test_generated_views_parse_and_evaluate():
    for seed in range(6):
        scenario = _scenario(seed)
        db = scenario.build_database()
        for defn in scenario.view_definitions(db):
            defn.evaluate(db)  # must not raise


def test_profile_bounds_are_respected():
    profile = GeneratorProfile(max_tables=2, max_rows=3, max_ops=2)
    for seed in range(10):
        scenario = generate_scenario(random.Random(seed), profile)
        assert len(scenario.tables) == 2
        assert len(scenario.ops) <= 2
        for spec in scenario.tables.values():
            assert len(spec["rows"]) <= 3


# ---------------------------------------------------------------------------
# oracle: clean code passes
# ---------------------------------------------------------------------------
def test_clean_seeds_agree_with_recompute():
    for seed in range(8):
        result = clean_case(seed)
        assert result.ok, f"seed {seed}:\n{result.summary()}"


def test_row_diff_orders_null_extended_rows():
    """Two differing rows that agree on a prefix and then hold NULL vs a
    value — what SPOJ views are made of — must print, not raise."""
    diff = _row_diff(frozenset({(1, None), (1, 3)}), frozenset({(2, None)}))
    assert "2 missing (e.g. [(1, None), (1, 3)])" in diff
    assert "1 extra (e.g. [(2, None)])" in diff
    assert _row_diff(frozenset({(1, None)}), frozenset({(1, None)})) is None


# ---------------------------------------------------------------------------
# oracle: seeded bugs are caught (the acceptance mutation set)
# ---------------------------------------------------------------------------
def _first_detection(max_seeds=15):
    for seed in range(max_seeds):
        scenario = _scenario(seed)
        result = run_case(scenario)
        if not result.ok:
            return scenario, result
    return None, None


def test_detects_flipped_join_kind_in_delta_rewrite(monkeypatch):
    # FULL→LEFT is the paper's step-2 conversion; FULL→INNER drops the
    # null-extended side of the delta
    monkeypatch.setitem(primary._CONVERTED_KIND, FULL, INNER)
    scenario, result = _first_detection()
    assert result is not None, "join-kind flip went undetected"
    assert "view-divergence" in result.kinds or "outcome" in result.kinds


def test_detects_skipped_secondary_delta(monkeypatch):
    monkeypatch.setattr(
        maintain.ViewMaintainer,
        "_apply_secondary",
        lambda self, *args, **kwargs: None,
    )
    scenario, result = _first_detection()
    assert result is not None, "skipped secondary delta went undetected"
    assert "view-divergence" in result.kinds


def test_detects_dropped_wal_ack(monkeypatch):
    monkeypatch.setattr(
        walmod.WriteAheadLog, "ack", lambda self, lsn: None
    )
    scenario, result = _first_detection(max_seeds=5)
    assert result is not None, "dropped WAL ack went undetected"
    assert "durability" in result.kinds


LINEAGE_CONFIGS = (
    "checkpoint-wal",
    "crash-checkpoint",
    "crash-compaction",
    "corrupt-torn",
    "corrupt-bitflip",
)


def test_durability_configs_really_go_through_deltas_and_folds():
    """Every case of the checkpointing configs restores from a lineage
    with delta files and a compaction in it, and the serving config reads
    slices that were overlaid and folded — not just full copies."""
    for seed in range(10):
        result = run_case(
            _scenario(seed), configs_by_name(LINEAGE_CONFIGS + ("serving",))
        )
        assert result.ok, f"seed {seed}:\n{result.summary()}"
        for name in LINEAGE_CONFIGS:
            seen = result.exercised[name]
            assert seen["delta_checkpoints"] >= 2, (seed, name, seen)
            assert seen["compactions"] >= 1, (seed, name, seen)
        assert result.exercised["serving"]["overlay_folds"] >= 1, seed


def test_detects_delta_checkpoint_that_forgets_removed_rows(monkeypatch):
    apply = checkpointmod.CheckpointData._apply

    def lossy(self, record, path, rolling):
        for change in record["tables"].values():
            change["-"] = []
        apply(self, record, path, rolling)

    monkeypatch.setattr(checkpointmod.CheckpointData, "_apply", lossy)
    found = [
        result
        for seed in range(6)
        for result in [
            run_case(_scenario(seed), configs_by_name(["checkpoint-wal"]))
        ]
        if not result.ok
    ]
    assert found, "a delta restore that resurrects deleted rows went undetected"
    assert {"db-divergence", "view-divergence"} & set(found[0].kinds)


def test_detects_overlay_that_forgets_removed_rows(monkeypatch):
    def lossy(self):
        merged = dict(self._base)
        for overlay in self._overlays:
            merged.update({k: r for k, r in overlay.items() if r is not None})
        return merged

    monkeypatch.setattr(snapshotsmod._Slice, "_merged", lossy)
    found = [
        result
        for seed in range(6)
        for result in [run_case(_scenario(seed), configs_by_name(["serving"]))]
        if not result.ok
    ]
    assert found, "a snapshot scan that resurrects deleted rows went undetected"
    assert "snapshot-divergence" in found[0].kinds


# ---------------------------------------------------------------------------
# shrinker
# ---------------------------------------------------------------------------
def test_shrinker_minimizes_and_preserves_failure(monkeypatch):
    monkeypatch.setattr(
        maintain.ViewMaintainer,
        "_apply_secondary",
        lambda self, *args, **kwargs: None,
    )
    scenario, result = _first_detection()
    assert result is not None
    report = shrink(
        scenario, make_still_fails(result, None), budget=200
    )
    assert report.scenario.size() < scenario.size()
    minimized = run_case(report.scenario)
    assert not minimized.ok
    # minimization should get small: a handful of ops at most
    assert len(report.scenario.ops) <= 2


def test_shrinker_rejects_variants_that_stop_failing():
    scenario = _scenario(3)
    report = shrink(scenario, lambda candidate: False, budget=50)
    # nothing accepted: the scenario is returned unchanged
    assert report.accepted_steps == 0
    assert report.scenario.to_dict() == scenario.to_dict()


# ---------------------------------------------------------------------------
# corpus round-trip + runner + CLI
# ---------------------------------------------------------------------------
def test_corpus_save_load_round_trip(tmp_path):
    scenario = _scenario(5)
    path = save_case(
        scenario, reason="unit test", corpus_dir=str(tmp_path), found="x"
    )
    loaded, meta = load_case(path)
    assert loaded.to_dict() == scenario.to_dict()
    assert meta["reason"] == "unit test"
    assert meta["found"] == "x"
    # saving the identical scenario is idempotent (same content hash)
    assert save_case(scenario, "again", corpus_dir=str(tmp_path)) == path


def test_run_fuzz_finds_minimizes_and_saves(tmp_path, monkeypatch):
    monkeypatch.setattr(
        maintain.ViewMaintainer,
        "_apply_secondary",
        lambda self, *args, **kwargs: None,
    )
    outcome = run_fuzz(
        budget=40, seed=0, corpus_dir=str(tmp_path), shrink_budget=150
    )
    assert outcome.found
    assert outcome.corpus_path is not None
    loaded, meta = load_case(outcome.corpus_path)
    assert not run_case(loaded).ok  # the saved case is the failing one


def test_clean_run_reports_no_mismatch(tmp_path):
    """Passing cases are counted as ``ok`` and are not incidents: no
    ``fuzz.mismatch`` event, no flight-recorder dump in the
    failure-artifact directory."""
    telemetry = Telemetry(dump_dir=str(tmp_path))
    outcome = run_fuzz(budget=3, seed=1, save=False, telemetry=telemetry)
    assert not outcome.found and outcome.cases_run == 3
    assert list(tmp_path.iterdir()) == []
    cases = telemetry.metrics.get("repro_fuzz_cases_total")
    assert cases.value(outcome="ok") == 3
    assert cases.total() == 3
    assert [e.kind for e in telemetry.recorder.events] == []
    assert telemetry.metrics.get("repro_events_total").total() == 0


def test_fuzz_outcome_vocabulary_is_closed(tmp_path):
    telemetry = Telemetry(dump_dir=str(tmp_path))
    with pytest.raises(ValueError, match="unknown fuzz outcome"):
        telemetry.emit("fuzz.case", outcome="pass")
    telemetry.emit(
        "fuzz.case", outcome="mismatch", mismatch_kinds=["view-divergence"]
    )
    assert [e.kind for e in telemetry.recorder.events] == ["fuzz.mismatch"]
    assert len(list(tmp_path.iterdir())) == 1  # a real mismatch does dump
    by_kind = telemetry.metrics.get("repro_fuzz_mismatches_total")
    assert by_kind.value(kind="view-divergence") == 1


def test_cli_clean_run_and_replay(tmp_path, capsys):
    assert (
        fuzz_main(["--budget", "3", "--seed", "1", "--no-save", "--quiet"])
        == 0
    )
    scenario = _scenario(5)
    save_case(scenario, reason="anchor", corpus_dir=str(tmp_path))
    assert fuzz_main(["--replay", str(tmp_path), "--quiet"]) == 0
    assert fuzz_main(["--configs", "definitely-not-a-config"]) == 2
    capsys.readouterr()
