"""Durable checkpoints: base tables + last-applied LSN.

A checkpoint is the second half of the bounded-recovery contract (the
first is WAL compaction, :meth:`WriteAheadLog.compact`): restart cost is
*restore the newest restore point, then replay the WAL suffix past its
LSN* — proportional to the checkpoint interval, not the total history.

Checkpoints form **lineages**: a *base* file holds every base table,
each *delta* file after it holds only the rows every table gained and
lost since the file before it::

    checkpoints/
      ckpt-00000001.json          <- base
      ckpt-00000002.delta.json    <- base 1 + this  = state at its lsn
      ckpt-00000003.delta.json    <- ... + this     <- newest wins
      corrupt/                    <- files that failed verification

    # every file is a single framed record, like a WAL line:
    9bb17ea3 {"lsn":412,"seq":1,"schema":{...},"tables":{...}}
    5e02ab1f {"lsn":518,"seq":2,"base_seq":1,
              "tables":{"lineitem":{"+":[...],"-":[...]}}}

* ``lsn`` — the highest WAL LSN whose effects the captured state
  includes.  :meth:`CheckpointManager.write` must therefore be called at
  a quiescent point (:meth:`Warehouse.flush` provides one).
* ``schema`` (base only) — the database's DDL in the shard wire's form
  (:func:`repro.planner.wire.encode_schema`: columns, keys, not-null,
  secondary indexes, foreign keys).
* ``tables`` — base: every row of every base table, by name; delta:
  the rows added (``+``) and removed (``-``) per table.  A delta names
  every table the state holds, so one dropped since the base
  disappears on restore.

No view is stored: a view is a function of the base tables, and restore
rebuilds every one from the restored tables.  (A file written when
bases and deltas still carried a ``views`` member restores the same
way; that member is never read.)

Every file is one **restore point**: its base plus the deltas up to it.
A delta is the WAL entries past the newest file's LSN, netted per table
(:meth:`CheckpointManager._net`); a base is written when those cannot
stand for the change, and when the deltas since the base together
exceed half its bytes (compaction) — restore cost stays bounded by data
size.  *keep* restore points are retained, with every file they need,
and :meth:`compactable_lsn` tells the WAL how far the oldest has reached.

Every file is written atomically (:mod:`repro.runtime.records`): a crash
mid-checkpoint leaves the previous files intact plus at most a ``.tmp``
orphan.  A file that fails verification moves to the ``corrupt/``
sidecar with the deltas that depended on it, and :meth:`latest` falls
back to the restore point before it (the chain prefix, then the previous
lineage, then ``None``).  See ``docs/DURABILITY.md``.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional

from ..engine.catalog import Database
from ..obs import Telemetry
from ..planner import wire
from .failpoints import FAILPOINTS
from .records import CORRUPT_DIR, frame, quarantine, read_file, remove_file, sweep, write_file
from .wal import WriteAheadLog

__all__ = ["CheckpointData", "CheckpointManager"]

_FILE = re.compile(r"^ckpt-(\d+)(\.delta)?\.json$")


class _File(NamedTuple):
    seq: int
    delta: bool
    name: str


def _checkpoint_name(seq: int, delta: bool = False) -> str:
    return f"ckpt-{seq:08d}{'.delta' if delta else ''}.json"


@dataclass
class CheckpointData:
    """One verified restore point, decoded (base with its deltas applied)."""

    lsn: int
    seq: int
    schema: Dict  # wire.encode_schema form
    tables: Dict[str, List] = field(default_factory=dict)  # name -> rows
    path: str = ""  # the newest file applied

    def build_database(self) -> Database:
        """A fresh :class:`Database` at the checkpointed state."""
        return wire.build_database(self.schema, self.tables)

    def _apply(self, record: Dict, path: str, rolling: Dict) -> None:
        """Roll this state forward through one delta record.  *rolling*
        holds the row sets of the tables deltas have touched so far
        (``name -> {row: None}``), so each is re-keyed once per restore;
        :meth:`_settle` writes them back."""
        held, changes = self.tables, record["tables"]
        for name in set(held) - set(changes):
            del held[name]  # dropped since the base
            rolling.pop(name, None)
        for name, change in changes.items():
            if not (change["+"] or change["-"]):
                continue
            rows = rolling.get(name)
            if rows is None:
                rows = rolling[name] = dict.fromkeys(map(tuple, held[name]))
            for row in change["-"]:
                del rows[tuple(row)]
            rows.update(dict.fromkeys(map(tuple, change["+"])))
        self.lsn, self.seq, self.path = record["lsn"], record["seq"], path

    def _settle(self, rolling: Dict) -> None:
        for name, rows in rolling.items():
            self.tables[name] = list(rows)


class CheckpointManager:
    """Writes, lists and restores checkpoints under one directory."""

    def __init__(
        self,
        directory: str,
        telemetry: Optional[Telemetry] = None,
        keep: int = 2,
    ):
        self.directory = directory
        self.telemetry = telemetry or Telemetry.disabled()
        self.keep = max(1, int(keep))
        os.makedirs(os.path.join(directory, CORRUPT_DIR), exist_ok=True)
        # The newest restore point this manager wrote or verified (its
        # file name and the tables it holds); a delta is only ever
        # written on top of it.
        self._tip: Optional[str] = None
        self._tip_tables: FrozenSet[str] = frozenset()
        self._base_seq = 0
        self._base_bytes = 0
        self._delta_bytes = 0  # of the deltas since that base
        self._lsns: Dict[str, int] = {}  # file name -> lsn, as far as known

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def write(
        self,
        db: Database,
        lsn: int = 0,
        wal: Optional[WriteAheadLog] = None,
    ) -> str:
        """Atomically write one checkpoint; returns its path.

        A delta file holds *wal*'s entries past the newest restore
        point's LSN, netted per table (:meth:`_net`); a base file every
        table of *db*.  The caller is responsible for quiescence: *lsn*
        is the highest WAL LSN applied to *db*, and *db* is the newest
        restore point's state plus exactly those entries — true after a
        :meth:`write` and after a recovery that restored :meth:`latest`.
        """
        started = time.perf_counter()
        seq = max((f.seq for f in self._files()), default=0) + 1
        tables = self._net(db, wal)
        if tables is not None:
            record = {"lsn": lsn, "seq": seq, "base_seq": self._base_seq, "tables": tables}
        else:
            record = {
                "lsn": lsn,
                "seq": seq,
                "schema": wire.encode_schema(db),
                # tuples encode as arrays
                "tables": {name: table.rows for name, table in sorted(db.tables.items())},
            }
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        del record
        name = _checkpoint_name(seq, tables is not None)
        final = os.path.join(self.directory, name)
        # Crash window: the payload is durable under the .tmp name but
        # was never published; latest() ignores it and falls back.
        write_file(
            final,
            frame(payload),
            lambda: FAILPOINTS.hit("checkpoint.write", seq=seq, lsn=lsn),
        )
        self._tip, self._tip_tables = final, frozenset(db.tables)
        self._lsns[name] = lsn
        if tables is not None:
            self._delta_bytes += len(payload)
        else:
            self._base_seq, self._base_bytes = seq, len(payload)
            self._delta_bytes = 0
        # Crash window: the new restore point is durable, the lineage it
        # makes redundant is still there; the next write prunes it.
        FAILPOINTS.hit("checkpoint.prune", seq=seq, lsn=lsn)
        self._prune()
        self.telemetry.emit(
            "checkpoint.written",
            seconds=time.perf_counter() - started,
            size_bytes=len(payload),
            kind="base" if tables is None else "delta",
        )
        return final

    def _net(
        self, db: Database, wal: Optional[WriteAheadLog]
    ) -> Optional[Dict[str, Dict[str, List]]]:
        """The WAL entries past the newest restore point, netted into the
        rows each table of *db* gained (``+``) and lost (``-``) — or
        ``None`` when a base is due: nothing to net from, a WAL that lost
        records or entries past that point, a table created since, or
        compaction."""
        if (
            self._tip is None
            or wal is None
            or wal.corruption_detected
            or set(db.tables) != self._tip_tables
            or 2 * self._delta_bytes > self._base_bytes
        ):
            return None
        since = self._lsns[os.path.basename(self._tip)]
        if wal.compacted_through > since:
            return None
        net = {name: ({}, {}) for name in sorted(db.tables)}
        for entry in wal.entries_after(since):
            added, removed = net[entry.table]
            gain, lose = (added, removed) if entry.operation == "insert" else (removed, added)
            for row in entry.rows:
                if row in lose:
                    del lose[row]
                else:
                    gain[row] = None
        return {name: {"+": list(added), "-": list(removed)} for name, (added, removed) in net.items()}

    def _prune(self) -> None:
        """Delete what no retained restore point needs — everything
        older than the lineage of the *keep*-th newest file — and the
        ``.tmp`` orphans of crashed writes."""
        files = self._files()
        start = max(0, len(files) - self.keep)
        while start > 0 and files[start].delta:
            start -= 1  # the oldest one kept needs its base and the deltas between
        for file in files[:start]:
            remove_file(os.path.join(self.directory, file.name))
            self._lsns.pop(file.name, None)
        sweep(self.directory)

    def compactable_lsn(self) -> Optional[int]:
        """The LSN the oldest retained restore point (the *keep*-th
        newest file) has reached: every retained one can be rolled
        forward without the WAL prefix through it.  ``None`` when that
        file's LSN is not known to this manager (it predates it and
        :meth:`latest` never read it) — compacting past an unknown
        restore point could strand it."""
        files = self._files()
        if not files:
            return None
        return self._lsns.get(files[max(0, len(files) - self.keep)].name)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _files(self) -> List[_File]:
        """Checkpoint files, oldest first."""
        matches = ((_FILE.match(n), n) for n in os.listdir(self.directory))
        return sorted(
            _File(int(m.group(1)), bool(m.group(2)), name)
            for m, name in matches
            if m is not None
        )

    def checkpoint_paths(self) -> List[str]:
        """Existing checkpoint files (bases and deltas), oldest first."""
        return [
            os.path.join(self.directory, file.name) for file in self._files()
        ]

    def latest(self) -> Optional[CheckpointData]:
        """The newest restore point that verifies, or ``None``.

        The newest lineage's base is read and its deltas applied in
        order.  A file whose CRC or structure fails verification moves to
        the ``corrupt/`` sidecar along with the deltas after it (they
        cannot be applied without it), and restore stops at the chain
        prefix before it — or, when the base itself failed, starts over
        on the previous lineage: an older consistent state plus a longer
        WAL replay rather than a refusal to start.
        """
        files = self._files()
        while files:
            start = len(files) - 1
            while start > 0 and files[start].delta:
                start -= 1
            base, deltas = files[start], files[start + 1 :]
            files = files[:start]
            data = None if base.delta else self._read_base(base)
            if data is None:
                self._quarantine([base, *deltas])
                continue
            size = 0
            rolling: Dict = {}
            for position, file in enumerate(deltas):
                record = self._read(file)
                if (
                    record is None
                    or record.get("base_seq") != base.seq
                    or file.seq != data.seq + 1
                ):
                    self._quarantine(deltas[position:])
                    break
                try:
                    data._apply(
                        record, os.path.join(self.directory, file.name), rolling
                    )
                except (KeyError, TypeError):
                    # verified, but not a delta of this state: it may be
                    # half applied, so start over without it
                    self._quarantine(deltas[position:])
                    return self.latest()
                self._lsns[file.name] = data.lsn
                size += os.path.getsize(data.path)
            data._settle(rolling)
            self._tip, self._tip_tables = data.path, frozenset(data.tables)
            self._base_seq = base.seq
            self._base_bytes = os.path.getsize(
                os.path.join(self.directory, base.name)
            )
            self._delta_bytes = size
            return data
        return None

    def _quarantine(self, files: List[_File]) -> None:
        for file in files:
            quarantine(os.path.join(self.directory, file.name))
            self._lsns.pop(file.name, None)
            self.telemetry.emit("checkpoint.corrupt", name=file.name)
        self._tip = None

    def _read(self, file: _File) -> Optional[Dict]:
        """The verified record in *file*, or ``None``."""
        record = read_file(os.path.join(self.directory, file.name))
        if (
            record is None
            or not isinstance(record.get("lsn"), int)
            or not isinstance(record.get("tables"), dict)
        ):
            return None
        return record

    def _read_base(self, file: _File) -> Optional[CheckpointData]:
        record = self._read(file)
        if record is None or not isinstance(record.get("schema"), dict):
            return None
        self._lsns[file.name] = record["lsn"]
        return CheckpointData(
            lsn=record["lsn"],
            seq=file.seq,
            schema=record["schema"],
            tables=record["tables"],
            path=os.path.join(self.directory, file.name),
        )
