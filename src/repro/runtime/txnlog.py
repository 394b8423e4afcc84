"""Coordinator decision log for cross-shard two-phase commit.

The sharded facade's transaction protocol (``docs/SHARDING.md``) runs a
prepare round on every touched shard and then broadcasts the commit.
Without a durable record of the *decision*, a coordinator crash between
those two phases leaves the outcome ambiguous: some shards may have
committed while others still hold the prepared transaction open — the
classic in-doubt window.

:class:`TxnDecisionLog` closes that window.  The coordinator writes one
record per transaction **after** every prepare acknowledgement and
**before** the first commit message:

* the record is a file ``txn-<id>.json`` holding one framed record
  (``{"txn_id": ..., "shards": [...]}`` behind its CRC), written
  atomically — the same format and write as a checkpoint file
  (:mod:`repro.runtime.records`);
* presence of a record that verifies means **commit**; absence means
  **abort** — presumed abort, the standard 2PC resolution.  A record
  whose CRC fails, that does not parse, or whose id is not the one its
  file name carries is moved to a ``corrupt/`` sidecar and counts as
  absent;
* once every shard has acknowledged the commit the record is
  :meth:`forget`-ten, so the log stays empty in steady state and
  :meth:`pending` enumerates exactly the in-doubt transactions.

``ShardedWarehouse.recover()`` and shard reincarnation read
:meth:`pending` and broadcast ``txn_resolve`` so every worker lands on
the same side of the decision (see ``ShardServer.cmd_txn_resolve``).

With no directory (a sharded warehouse built without ``wal_path``),
the log degrades to a volatile in-memory dict: the protocol still runs
and in-process recovery still resolves, but a real coordinator restart
loses the decisions — matching the durability the rest of such a
warehouse has (none).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, NamedTuple, Optional

from .records import CORRUPT_DIR, frame, quarantine, read_file, remove_file, sweep, write_file

_PREFIX = "txn-"
_SUFFIX = ".json"


class DecisionRecord(NamedTuple):
    """One durable commit decision and the shards it was addressed to."""

    txn_id: str
    shards: List[int]


class TxnDecisionLog:
    """Durable (or volatile, when ``directory`` is None) decision log."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._volatile: Dict[str, DecisionRecord] = {}
        self.quarantined: List[str] = []
        if directory:
            os.makedirs(os.path.join(directory, CORRUPT_DIR), exist_ok=True)
            sweep(directory)  # a crash can strand a .tmp orphan: never a decision

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def decide(self, txn_id: str, shards: List[int]) -> DecisionRecord:
        """Durably record the commit decision for ``txn_id``.

        Returns only after the record (and the directory entry) are
        fsynced: once this returns, every future :meth:`pending` — in
        this process or after a coordinator restart — resolves the
        transaction as committed.  (A crash before that leaves at most a
        ``.tmp`` orphan: no decision, presumed abort.)
        """
        record = DecisionRecord(txn_id, list(shards))
        if self.directory is None:
            self._volatile[txn_id] = record
        else:
            payload = json.dumps(record._asdict(), separators=(",", ":"))
            write_file(self._path(txn_id), frame(payload.encode("utf-8")))
        return record

    def forget(self, txn_id: str) -> None:
        """Drop the record once every shard acknowledged the commit."""
        self._volatile.pop(txn_id, None)
        if self.directory is not None:
            remove_file(self._path(txn_id), durable=True)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def pending(self) -> List[DecisionRecord]:
        """All decided-but-unacknowledged transactions, oldest first.

        A record that fails verification (torn write under a crashed
        filesystem, bit rot, manual tampering) is moved to the
        ``corrupt/`` sidecar and **not** returned: with no readable
        decision the transaction resolves as aborted, which is always
        safe because the decision is written before any commit message
        is sent.
        """
        if self.directory is None:
            return list(self._volatile.values())
        if not os.path.isdir(self.directory):
            # The log directory can vanish mid-teardown (temp dir
            # removed while a background revive drains) — with no
            # readable decisions everything resolves presumed-abort.
            return []
        records = []
        for name in sorted(os.listdir(self.directory)):
            if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
                continue
            path = os.path.join(self.directory, name)
            record = read_file(path) or {}
            txn_id, shards = record.get("txn_id"), record.get("shards")
            if not (
                isinstance(txn_id, str)
                and self._path(txn_id) == path
                and isinstance(shards, list)
            ):
                quarantine(path)
                self.quarantined.append(name)
                continue
            records.append(DecisionRecord(txn_id, shards))
        return records

    def _path(self, txn_id: str) -> str:
        return os.path.join(self.directory, f"{_PREFIX}{txn_id}{_SUFFIX}")
