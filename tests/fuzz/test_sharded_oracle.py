"""Sharded oracle configs: clean agreement, sensitivity to a seeded
merge-barrier bug, and the ``--shards`` CLI matrix hook."""

import repro.sharded as sharded_mod
from repro.fuzz import run_case
from repro.fuzz.matrix import configs_by_name, default_matrix
from repro.fuzz.__main__ import main as fuzz_main

from .conftest import _scenario


SHARDED = configs_by_name(["sharded", "sharded-wal"])


def test_matrix_includes_sharded_configs():
    by_name = {c.name: c for c in default_matrix()}
    assert by_name["sharded"].shards == 2
    assert by_name["sharded"].durability == "none"
    assert by_name["sharded-wal"].shards == 2
    assert by_name["sharded-wal"].wal
    assert by_name["sharded-wal"].checkpoints  # a checkpoint per op
    # the clean equivalence configs: nothing is injected
    assert not by_name["sharded"].faults and not by_name["sharded-wal"].faults


def test_clean_seeds_agree_under_sharding():
    for seed in range(6):
        result = run_case(_scenario(seed), configs=SHARDED)
        assert result.ok, f"seed {seed}:\n{result.summary()}"


def test_detects_broken_merge_barrier(monkeypatch):
    # drop the residue-intersection half of the merge: rows derived
    # purely from replicated tables vanish from every merged view
    real = sharded_mod.merge_view_rows

    def broken(plan, fragments):
        rows = real(plan, fragments)
        if plan.replicated_only:
            return rows
        positions = plan.witness_positions
        return [
            r for r in rows if any(r[p] is not None for p in positions)
        ]

    monkeypatch.setattr(sharded_mod, "merge_view_rows", broken)
    detected = None
    for seed in range(15):
        result = run_case(_scenario(seed), configs=SHARDED)
        if not result.ok:
            detected = result
            break
    assert detected is not None, "broken merge barrier went undetected"
    assert {"shard-vs-recompute", "cross-config", "shard-vs-unsharded"} & set(
        detected.kinds
    )


def test_cli_shards_flag_filters_and_overrides(capsys):
    assert (
        fuzz_main(
            ["--budget", "2", "--seed", "3", "--shards", "3",
             "--no-save", "--quiet"]
        )
        == 0
    )
    capsys.readouterr()
    # --shards with a selection holding no sharded config is an error ...
    assert fuzz_main(["--configs", "compiled-view", "--shards", "2"]) == 2
    assert "at least one sharded config" in capsys.readouterr().err
    # ... and a different one from naming a config that does not exist
    assert fuzz_main(["--configs", "interpreted", "--shards", "2"]) == 2
    assert "unknown oracle config(s) ['interpreted']" in capsys.readouterr().err
    assert fuzz_main(["--shards", "0"]) == 2
    assert "--shards must be >= 1" in capsys.readouterr().err
