"""Durable, concurrent maintenance runtime.

Four pieces sit between the warehouse facade and the per-view
maintainers:

* :class:`WriteAheadLog` — a segmented, CRC-checksummed change log that
  records every base-table delta *before* any view is touched,
  so a crash mid-fan-out is recoverable by replaying every entry past
  the restore point (:meth:`~repro.warehouse.Warehouse.recover`).
  Segments whose records fail verification are quarantined to a
  ``corrupt/`` sidecar rather than aborting recovery;
* :class:`CheckpointManager` — atomically written, fsynced checkpoints
  of the base tables + last-applied LSN: a base file, then delta files
  holding only the rows the WAL says changed since.  Together with WAL
  compaction this bounds recovery cost by the checkpoint interval
  instead of total history;
* :class:`MaintenanceScheduler` — runs each change's per-view
  maintenance one view after another, inline or on a single dispatcher
  thread that serializes queued changes; a view whose one attempt fails
  is quarantined (stale, excluded from fan-out) rather than poisoning
  the change, and a bounded admission queue blocks or sheds on overflow;
* :class:`SnapshotStore` — MVCC-style published snapshots of base
  tables + views at consistent LSNs, read from the live containers
  through per-epoch undo logs (a publish copies nothing), giving
  readers torn-read-free, non-blocking access (see ``docs/SERVING.md``).

Both keep their files in the one durable record format of
:mod:`repro.runtime.records` (CRC-framed JSON, atomic file writes,
``corrupt/`` quarantine), as does the 2PC decision log below.  See
``docs/DURABILITY.md`` for the durability and staleness contract.
A fifth piece, :mod:`repro.runtime.failpoints`, is the deterministic
fault-injection registry the crash-recovery tests and the differential
fuzz harness (:mod:`repro.fuzz`) drive these code paths with.

:mod:`repro.runtime.sharding` and :mod:`repro.runtime.shardproc` layer
horizontal sharding on top: partitioning specs and the view merge
barrier (pure logic), and the per-shard worker processes that each run
the full stack above over one partition.  :mod:`repro.sharded` is the
facade; ``docs/SHARDING.md`` the contract.

:mod:`repro.runtime.supervisor` and :mod:`repro.runtime.txnlog` make
that tier self-healing: the :class:`ShardSupervisor` detects dead or
hung workers (pipe EOF, call deadlines + a ping probe), fails
their outstanding calls fast, and reincarnates them from their
WAL/checkpoint lineage under a bounded restart budget; the
:class:`TxnDecisionLog` makes cross-shard commit decisions durable so
a coordinator crash mid-2PC resolves deterministically.
"""

from .checkpoint import CheckpointData, CheckpointManager
from .failpoints import FAILPOINTS, Failpoints, InjectedFault
from .scheduler import ChangeTicket, FanOutResult, MaintenanceScheduler, Task
from .sharding import (
    ShardingSpec,
    ShardRouter,
    ViewShardPlan,
    merge_view_rows,
    plan_view,
    shard_hash,
)
from .shardproc import ShardHandle, ShardServer
from .snapshots import Snapshot, SnapshotStore, TableSlice, ViewSlice
from .supervisor import ShardSupervisor
from .txnlog import DecisionRecord, TxnDecisionLog
from .wal import DEFAULT_SEGMENT_BYTES, WalEntry, WriteAheadLog

__all__ = [
    "ShardingSpec",
    "ShardRouter",
    "ViewShardPlan",
    "plan_view",
    "merge_view_rows",
    "shard_hash",
    "ShardServer",
    "ShardHandle",
    "ShardSupervisor",
    "TxnDecisionLog",
    "DecisionRecord",
    "Snapshot",
    "SnapshotStore",
    "TableSlice",
    "ViewSlice",
    "FAILPOINTS",
    "Failpoints",
    "InjectedFault",
    "WriteAheadLog",
    "WalEntry",
    "DEFAULT_SEGMENT_BYTES",
    "CheckpointManager",
    "CheckpointData",
    "MaintenanceScheduler",
    "Task",
    "FanOutResult",
    "ChangeTicket",
]
