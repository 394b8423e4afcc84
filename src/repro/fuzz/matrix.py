"""The oracle's two tables: fault rows and the config matrix.

Nothing here runs anything.  A :class:`Fault` says where a stream is
cut, what is injected and what the system must end in; an
:class:`OracleConfig` is a point on five axes plus the fault rows staged
on it.  :mod:`repro.fuzz.oracle` interprets both and explains the
outcome classes; a new fault window or config is one row below
(``docs/FUZZING.md`` mirrors the tables and a test keeps them in step).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.maintain import MaintenanceOptions

__all__ = [
    "Arm",
    "Mangle",
    "Fault",
    "FAULTS",
    "OracleConfig",
    "default_matrix",
    "config_names",
    "configs_by_name",
]


# ---------------------------------------------------------------------------
# faults are rows
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Arm:
    """Arm failpoint *site* around one named call: the victim ``"op"``,
    a transaction's ``"commit"`` alone, or a final ``"checkpoint"``."""

    site: str
    around: str = "op"
    shard: bool = False  # match one shard only (scenario-seeded pick)
    how: Dict[str, object] = field(default_factory=dict, hash=False)  # arm() keywords


@dataclass(frozen=True)
class Mangle:
    """Byte-damage a closed directory."""

    target: str  # wal | checkpoint
    mode: str  # torn | bitflip


@dataclass(frozen=True)
class Fault:
    """One fault window and what it must end in.

    A *staged* row (``restart`` ``"genesis"``) runs on a warehouse of
    its own: the stream is cut at fraction ``cut``, the prefix replayed
    up to a durable ``boundary``, the suffix replayed as ``suffix``
    says, ``inject`` applied, the process dropped, and a fresh one
    opened over the genesis database; its ``recover()`` is judged.  An
    *in-stream* row (``restart`` ``None``, or ``"live"`` for a
    ``recover()`` inside the running facade) is armed around single ops
    — those ``on`` selects — of the config's own replay."""

    name: str
    inject: Union[Arm, Mangle, None]
    on: str = "dml"  # victim ops: every | dml | txn | sample (3 seeded)
    cut: float = 0.5
    boundary: Optional[str] = None  # flush | lineage (oracle._grow_lineage)
    suffix: str = "acked"  # acked | unacked (wal.ack skipped) | checkpointed
    restart: Optional[str] = None  # genesis | live
    expect: str = "reference"  # | refused | survivors | reference-or-refusal
    replays: bool = True  # False: the crashed checkpoint was durable
    regrow: bool = False  # grow a lineage on the survivor, restart again

    @property
    def when(self) -> str:
        return "staged" if self.restart == "genesis" else "stream"

    @property
    def sites(self) -> Tuple[str, ...]:
        """The failpoints this row arms."""
        armed = (self.inject.site,) if isinstance(self.inject, Arm) else ()
        return armed + (("wal.ack",) if self.suffix == "unacked" else ())


STALL_SECONDS = 1.3  # a stalled worker sleeps through both deadlines
_STALL = {"action": "call", "callback": lambda **_ctx: time.sleep(STALL_SECONDS)}
_LOST_ACKS = {"suffix": "unacked", "restart": "genesis"}
_LINEAGE = {"boundary": "lineage", "restart": "genesis"}
_DURABLE = {"cut": 1.0, "restart": "genesis", "replays": False}
_LOST = {"cut": 0.0, "suffix": "unacked", "restart": "genesis", "expect": "survivors"}
_ROT = {"suffix": "checkpointed", "expect": "reference-or-refusal", **_LINEAGE}
_HAVOC = {"on": "sample", "expect": "survivors"}
_COMMIT = {"on": "txn", "restart": "live"}

FAULTS: Tuple[Fault, ...] = (
    # staged: a process dies (or its files rot) and a fresh one recovers
    Fault("lost-acks", None, boundary="flush", **_LOST_ACKS),
    Fault("lost-acks@lineage", None, boundary="lineage", **_LOST_ACKS),
    Fault("crash@checkpoint.write", Arm("checkpoint.write", "checkpoint"), **_LINEAGE),
    Fault("crash@checkpoint.prune", Arm("checkpoint.prune", "checkpoint"), replays=False,
          **_LINEAGE),
    Fault("crash@scheduler.fanout", Arm("scheduler.fanout"), **_LINEAGE),
    Fault("crash@maintain.pass", Arm("maintain.pass", how={"times": None}), **_LINEAGE),
    Fault("crash@wal.compact", Arm("wal.compact", "checkpoint"), **_DURABLE),
    Fault("crash@wal.compact.unlink", Arm("wal.compact.unlink", "checkpoint"), regrow=True,
          **_DURABLE),
    Fault("torn@wal", Mangle("wal", "torn"), **_LOST),
    Fault("bitflip@wal", Mangle("wal", "bitflip"), **_LOST),
    Fault("torn@checkpoint", Mangle("checkpoint", "torn"), **_ROT),
    Fault("bitflip@checkpoint", Mangle("checkpoint", "bitflip"), **_ROT),
    # in-stream: the process lives on
    Fault("fail@wal.append", Arm("wal.append"), expect="refused"),
    Fault("fail@wal.fsync", Arm("wal.fsync"), expect="refused"),
    Fault("kill@shard.worker", Arm("shard.worker.kill", shard=True), **_HAVOC),
    Fault("stall@shard.worker", Arm("shard.worker.stall", shard=True, how=_STALL), **_HAVOC),
    Fault("drop@shard.pipe", Arm("shard.pipe.drop", shard=True, how={"action": "skip"}), **_HAVOC),
    Fault("crash@txn.prepared", Arm("txn.coordinator.prepared", "commit"), expect="refused",
          **_COMMIT),
    Fault("crash@txn.decided", Arm("txn.coordinator.decided", "commit"), **_COMMIT),
    Fault("crash@txn.commit", Arm("txn.coordinator.commit", "commit", shard=True), **_COMMIT),
    Fault("kill@txn.commit",
          Arm("shard.worker.kill", "commit", shard=True, how={"cmd": "txn_commit"}), **_COMMIT),
)


def _faults(*names: str) -> Tuple[Fault, ...]:
    by_name = {fault.name: fault for fault in FAULTS}
    return tuple(by_name[name] for name in names)


# ---------------------------------------------------------------------------
# the strategy matrix
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OracleConfig:
    """One way of running the maintenance machinery end to end: a point
    on five axes, plus the fault rows staged on it."""

    name: str
    secondary: str = "view"  # view (§5.2) | base (§5.3) | auto
    fk: bool = True  # foreign-key shortcuts
    durability: str = "none"  # none | wal | checkpoints (WAL + a checkpoint per
    #   op over 128-byte segments, so every compaction has files to delete)
    shards: int = 0  # > 0: a ShardedWarehouse over thread-backend workers
    scheduling: str = "inline"  # inline | queued (a dispatcher thread)
    #   | serving (queued, and a snapshot read checked after every op)
    faults: Tuple[Fault, ...] = ()

    @property
    def wal(self) -> bool:
        return self.durability != "none"

    @property
    def checkpoints(self) -> bool:
        return self.durability == "checkpoints"

    def options(self) -> MaintenanceOptions:
        return MaintenanceOptions(
            secondary_strategy=self.secondary, use_foreign_keys=self.fk
        )


def default_matrix() -> List[OracleConfig]:
    """The full strategy matrix, one row per config."""
    row, checkpoints = OracleConfig, "checkpoints"
    return [
        row("compiled-view"),
        row("compiled-base", secondary="base"),
        row("auto", secondary="auto"),
        row("no-fk", fk=False),
        row("serial-wal", durability="wal",
            faults=_faults("lost-acks", "fail@wal.append", "fail@wal.fsync")),
        row("parallel-wal", durability="wal", scheduling="queued", faults=_faults("lost-acks")),
        row("checkpoint-wal", durability=checkpoints, faults=_faults("lost-acks@lineage")),
        row("crash-checkpoint", durability=checkpoints, faults=_faults(
            "crash@checkpoint.write", "crash@checkpoint.prune",
            "crash@scheduler.fanout", "crash@maintain.pass")),
        row("crash-compaction", durability=checkpoints,
            faults=_faults("crash@wal.compact.unlink", "crash@wal.compact")),
        row("corrupt-torn", durability=checkpoints, faults=_faults("torn@wal", "torn@checkpoint")),
        row("corrupt-bitflip", durability=checkpoints,
            faults=_faults("bitflip@wal", "bitflip@checkpoint")),
        row("serving", durability="wal", scheduling="serving"),
        row("sharded", shards=2),
        row("sharded-wal", durability=checkpoints, shards=2),
        row("chaos-shard", durability=checkpoints, shards=2,
            faults=_faults("kill@shard.worker", "stall@shard.worker", "drop@shard.pipe")),
        row("chaos-2pc", durability="wal", shards=2, faults=_faults(
            "crash@txn.prepared", "crash@txn.decided", "crash@txn.commit", "kill@txn.commit")),
    ]


def config_names() -> List[str]:
    return [c.name for c in default_matrix()]


def configs_by_name(names) -> List[OracleConfig]:
    matrix = {c.name: c for c in default_matrix()}
    unknown = sorted(set(names) - set(matrix))
    if unknown:
        raise ValueError(
            f"unknown oracle config(s) {unknown}; known: {sorted(matrix)}"
        )
    return [matrix[n] for n in names]
