"""Chaos oracle configs: clean agreement under injected worker faults,
the fault plan actually firing, sensitivity to a seeded recovery bug,
and the CLI matrix hook excluding chaos from ``--shards`` sweeps."""

from repro.fuzz import run_case
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.matrix import configs_by_name, default_matrix
from repro.runtime import FAILPOINTS

from .conftest import _scenario


CHAOS = configs_by_name(["chaos-shard", "chaos-2pc"])
_CHAOS_FAULTS = [site for fault in CHAOS[0].faults for site in fault.sites]


def test_matrix_includes_chaos_configs():
    by_name = {c.name: c for c in default_matrix()}
    shard, twopc = by_name["chaos-shard"], by_name["chaos-2pc"]
    assert sorted(_CHAOS_FAULTS) == [
        "shard.pipe.drop", "shard.worker.kill", "shard.worker.stall"
    ]
    assert shard.shards == 2
    assert shard.wal
    # worker havoc: in-stream, lost work tolerated, consistency owed
    assert {(f.when, f.expect) for f in shard.faults} == {("stream", "survivors")}
    assert [f.sites for f in twopc.faults] == [
        ("txn.coordinator.prepared",),
        ("txn.coordinator.decided",),
        ("txn.coordinator.commit",),
        ("shard.worker.kill",),  # a participant dying after the decision
    ]
    assert twopc.shards == 2
    assert twopc.wal
    # coordinator crashes and a participant killed at its commit:
    # resolved by recover() inside the live facade; only the window
    # before the decision record may abort
    assert {f.restart for f in twopc.faults} == {"live"}
    assert [f.expect for f in twopc.faults] == [
        "refused", "reference", "reference", "reference"
    ]


def test_clean_seeds_survive_chaos():
    fired_before = sum(FAILPOINTS.fired(n) for n in _CHAOS_FAULTS)
    for seed in range(4):
        result = run_case(_scenario(seed), configs=CHAOS)
        assert result.ok, f"seed {seed}:\n{result.summary()}"
    fired_after = sum(FAILPOINTS.fired(n) for n in _CHAOS_FAULTS)
    # the havoc is real: at least one worker fault landed across seeds
    assert fired_after > fired_before


def test_chaos_2pc_detects_ignored_decision_log(monkeypatch):
    """Seeded bug: workers presume-abort every in-doubt transaction,
    ignoring the coordinator's durable commit decisions.  Replaying the
    2PC anchor case (coordinator crash at the decided window) must flag
    the divergence — the oracle's reference applies exactly the
    transactions the decision log committed."""
    import os

    from repro.fuzz import default_corpus_dir, load_case
    from repro.runtime.shardproc import ShardServer

    real = ShardServer.cmd_txn_resolve

    def presumed_abort_everything(self, commits, **kwargs):
        return real(self, [], **kwargs)

    monkeypatch.setattr(
        ShardServer, "cmd_txn_resolve", presumed_abort_everything
    )
    scenario, meta = load_case(
        os.path.join(
            default_corpus_dir(), "case-b159aee53609385b.json"
        )
    )
    assert "[chaos-2pc]" in meta["reason"]
    result = run_case(scenario, configs=configs_by_name(["chaos-2pc"]))
    assert not result.ok, "ignored decision log went undetected"
    assert "chaos-divergence" in result.kinds


def test_cli_shards_flag_excludes_chaos_configs():
    # the matrix hook re-runs *clean* sharded equivalence at N shards;
    # chaos configs choreograph faults around their fixed shard count
    assert (
        fuzz_main(
            ["--configs", "chaos-shard,chaos-2pc", "--shards", "3"]
        )
        == 2
    )
    pool = default_matrix()
    survivors = [c.name for c in pool if c.shards and not c.faults]
    assert "chaos-shard" not in survivors
    assert "chaos-2pc" not in survivors
    assert survivors, "no clean sharded configs left for --shards"
