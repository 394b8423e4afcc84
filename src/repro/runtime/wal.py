"""Write-ahead change log for durable warehouse maintenance.

:class:`WriteAheadLog` durably records every base-table delta a
warehouse applies **before any view is touched**, so that a crash in the
middle of a multi-view fan-out loses no maintenance work: on restart,
:meth:`~repro.warehouse.Warehouse.recover` re-drives every entry past
its restore point (:meth:`WriteAheadLog.entries_after`), acknowledged
or not, through the registered maintainers.

Format (v2) — a *directory* of segment files, each a sequence of
checksummed JSON lines::

    wal/
      seg-00000001.wal
      seg-00000002.wal          <- active (highest sequence number)
      corrupt/                  <- quarantined segments, if any

    # one record per line, framed as every durable record is
    # (repro.runtime.records): CRC32 of the payload, a space, the payload
    1c291ca3 {"kind":"change","lsn":7,"table":"lineitem","op":"insert",
              "fk_allowed":true,"rows":[[1,1,5.0]]}
    9bb17ea3 {"kind":"ack","lsn":7}
    0d5c7e21 {"kind":"txn","changes":[{"kind":"change","lsn":8,...},
                                      {"kind":"change","lsn":9,...}]}
    77a01c3e {"kind":"txn","id":"t4-9f2c","changes":[{"kind":"change",...}]}
    41d0e9b2 {"kind":"resolve","id":"t4-9f2c"}
    5e02ab1f {"kind":"compact","through":7}

* LSNs are monotonically increasing and assigned by the log.
* A ``change`` records the delta rows exactly as applied to the base
  table (values must be JSON-representable: str/int/float/bool/None,
  which covers everything the engine stores).
* A ``txn`` holds a committed transaction's changes (consecutive LSNs)
  in one frame (:meth:`WriteAheadLog.journal`): it loads as those
  changes, or — torn or withdrawn — as none of them.  A ``txn`` tagged
  with an ``id`` is a shard's *prepared* part of a cross-shard
  transaction: until an ack of one of its LSNs (commit) or a
  ``resolve`` marker with its id (abort, which drops its changes) it is
  **in doubt** — its changes still replay in LSN order, and
  :meth:`~WriteAheadLog.in_doubt` names the transaction they reopen.
* An ``ack`` marks the change as fully applied to every non-quarantined
  view.  It is advisory (recovery replays acked entries too), so it is
  written and flushed but not fsynced: the next fsync makes it durable.
* A ``compact`` marker records that every LSN ≤ ``through`` is covered
  by a durable checkpoint; segments wholly below the marker are deleted
  (:meth:`compact`) and acks for compacted LSNs become no-ops.

The active segment rotates once it exceeds ``segment_bytes``; rotation
plus compaction is what keeps the on-disk footprint proportional to the
checkpoint interval instead of the total history.

Durability — group commit: every record is written and flushed to the OS
immediately, but ``fsync`` runs only every *fsync_batch* records (1 =
every record is durable before ``append`` returns).  :meth:`sync` forces
an fsync; :meth:`~repro.warehouse.Warehouse.flush` calls it so that a
flush boundary is always a consistent point to snapshot base tables at.
Fsync latency feeds the ``repro_wal_fsync_seconds`` histogram.

Crash and corruption tolerance — on open, every segment is verified
record by record against its CRCs:

* a trailing record of the *final* segment that does not verify is a
  torn write from a crash mid-append; it is truncated away and
  :attr:`torn_tail_dropped` is set;
* any other CRC or parse failure quarantines the **whole** containing
  segment: the file is moved to the ``corrupt/`` sidecar directory,
  none of its records are ingested, :attr:`corruption_detected` is set
  and the segment path is appended to :attr:`quarantined_segments`.
  The open then writes a durable ``lost`` marker: records at or below
  the highest LSN it read may be missing.  A later open that reads the
  marker sets :attr:`corruption_detected` again, until compaction has
  passed that LSN — the segment itself is gone from the log by then.
  Opening never raises for disk rot — the caller
  (:meth:`Warehouse.recover`) rebuilds the views over what survived.

*path* must be a directory (or not exist yet); a regular file there
raises :class:`~repro.errors.WalError`.  See ``docs/DURABILITY.md`` for
the recovery contract.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..engine.table import Row
from ..errors import WalError
from ..obs import Telemetry
from .failpoints import FAILPOINTS
from .records import CORRUPT_DIR, frame, quarantine, remove_file, unframe

__all__ = ["WalEntry", "WriteAheadLog", "DEFAULT_SEGMENT_BYTES"]

#: Rotation threshold for the active segment.  Small enough that a
#: steady workload spreads across several segments (so compaction has
#: whole files to delete), large enough that rotation is rare.
DEFAULT_SEGMENT_BYTES = 256 * 1024

_SEGMENT = re.compile(r"^seg-(\d+)\.wal$")
_KINDS = ("change", "txn", "ack", "resolve", "compact", "lost")


@dataclass(frozen=True)
class WalEntry:
    """One logged base-table change (its delta as applied)."""

    lsn: int
    table: str
    operation: str  # "insert" | "delete"
    rows: Tuple[Row, ...]
    fk_allowed: bool = True

    def to_record(self) -> Dict:
        return {
            "kind": "change",
            "lsn": self.lsn,
            "table": self.table,
            "op": self.operation,
            "fk_allowed": self.fk_allowed,
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_record(cls, record: Dict) -> "WalEntry":
        return cls(
            lsn=record["lsn"],
            table=record["table"],
            operation=record["op"],
            rows=tuple(tuple(row) for row in record["rows"]),
            fk_allowed=record.get("fk_allowed", True),
        )


@dataclass
class _ParsedSegment:
    """One segment's verified contents (or its verdict)."""

    seq: int
    path: str
    records: List[Dict]
    keep_bytes: int  # prefix length ending at the last intact record
    total_bytes: int
    torn_tail: bool  # final record fails verification
    corrupt: bool  # a NON-final record fails verification


class WriteAheadLog:
    """A segmented, checksummed, append-only change log (group commit).

    Thread-safe: the warehouse appends from its dispatcher thread while
    acks arrive from the caller's ``flush``.  Usable as a context
    manager; :meth:`close` is idempotent.
    """

    def __init__(
        self,
        path: str,
        fsync_batch: int = 1,
        telemetry: Optional[Telemetry] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        self.path = path
        self.fsync_batch = max(1, int(fsync_batch))
        # floor of 64: a segment must be able to hold at least one
        # record, but tests (and the fuzzer's corruption configs) use
        # tiny thresholds to force rotation on every few records
        self.segment_bytes = max(64, int(segment_bytes))
        self.telemetry = telemetry or Telemetry.disabled()
        self._lock = threading.RLock()
        self._entries: Dict[int, WalEntry] = {}
        self._acked: Set[int] = set()
        self._doubt: Dict[int, str] = {}  # LSN -> id of its unresolved txn
        self._next_lsn = 1
        self._unsynced = 0
        self._closed = False
        self.torn_tail_dropped = False
        self.corruption_detected = False
        self.quarantined_segments: List[str] = []
        self.compacted_through = 0
        # records at or below this LSN may be lost (``lost`` markers)
        self._lost_through = 0
        # segment sequence -> highest change LSN it holds (0 if none)
        self._segment_max_lsn: Dict[int, int] = {}
        self._active_seq = 0
        self._active_size = 0
        self._handle = None
        self._open_directory()

    # ------------------------------------------------------------------
    # open / load
    # ------------------------------------------------------------------
    def _open_directory(self) -> None:
        if os.path.isfile(self.path):
            raise WalError(
                f"WAL path {self.path!r} is a regular file; expected a "
                "segment directory"
            )
        os.makedirs(os.path.join(self.path, CORRUPT_DIR), exist_ok=True)
        matches = map(_SEGMENT.match, os.listdir(self.path))
        seqs = sorted(int(m.group(1)) for m in matches if m is not None)
        for position, seq in enumerate(seqs):
            self._load_segment(seq, final=position == len(seqs) - 1)
        self._next_lsn = max(self._next_lsn, self.compacted_through + 1)
        # forget whatever a compaction marker says is durable elsewhere
        for lsn in [n for n in self._entries if n <= self.compacted_through]:
            del self._entries[lsn]
        self._acked = {n for n in self._acked if n > self.compacted_through}
        # finish an interrupted compaction: drop fully-covered segments
        if self.compacted_through:
            self._delete_covered_segments(self.compacted_through)
        self._active_seq = max(self._segment_max_lsn, default=0)
        if self._active_seq == 0:
            self._active_seq = 1
            self._segment_max_lsn[1] = 0
        active = self._segment_path(self._active_seq)
        self._handle = open(active, "ab")
        self._active_size = os.path.getsize(active)
        if self.quarantined_segments:
            # a later open no longer sees the segments moved aside: say
            # durably which LSNs a replay may find missing
            record = {"kind": "lost", "through": self._next_lsn - 1}
            self._write(json.dumps(record))
            if self._unsynced:
                self._fsync()
            active_max = self._segment_max_lsn[self._active_seq]
            self._segment_max_lsn[self._active_seq] = max(active_max, self._ingest(record))
        if self._lost_through > self.compacted_through:
            self.corruption_detected = True

    def _segment_path(self, seq: int) -> str:
        return os.path.join(self.path, f"seg-{seq:08d}.wal")

    def _parse_segment(self, seq: int) -> _ParsedSegment:
        path = self._segment_path(seq)
        with open(path, "rb") as handle:
            raw = handle.read()
        records: List[Dict] = []
        offset = 0
        keep = 0
        torn = corrupt = False
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            line = raw[offset:] if newline < 0 else raw[offset:newline]
            end = len(raw) if newline < 0 else newline + 1
            record = unframe(line)
            if record is None or record.get("kind") not in _KINDS:
                if end >= len(raw):
                    torn = True
                else:
                    corrupt = True
                break
            records.append(record)
            keep = end
            offset = end
        return _ParsedSegment(
            seq, path, records, keep, len(raw), torn, corrupt
        )

    def _load_segment(self, seq: int, final: bool) -> None:
        parsed = self._parse_segment(seq)
        if parsed.corrupt or (parsed.torn_tail and not final):
            self._quarantine_segment(parsed)
            return
        if parsed.torn_tail:
            # a crash mid-append can only tear the final record of the
            # final segment; drop the torn bytes so appends stay clean
            with open(parsed.path, "ab") as handle:
                handle.truncate(parsed.keep_bytes)
            self.torn_tail_dropped = True
        self._segment_max_lsn[seq] = max(
            map(self._ingest, parsed.records), default=0
        )

    def _quarantine_segment(self, parsed: _ParsedSegment) -> None:
        """Move an unreadable segment aside; ingest none of it."""
        sidecar = quarantine(parsed.path)
        self.corruption_detected = True
        self.quarantined_segments.append(sidecar)
        self.telemetry.emit(
            "wal.segment_quarantined",
            segment=os.path.basename(parsed.path),
        )

    def _ingest(self, record: Dict) -> int:
        """Load one verified record; returns the highest change LSN it
        holds (0 for an ack or compact marker; a ``lost`` marker's LSN, so
        its segment stays until compaction passes it)."""
        kind = record["kind"]
        if kind == "txn":
            # a journaled transaction expands to its consecutive changes
            if "id" in record:  # a prepare: in doubt until an ack or a resolve
                for change in record["changes"]:
                    self._doubt[change["lsn"]] = record["id"]
            return max(map(self._ingest, record["changes"]), default=0)
        if kind == "change":
            entry = WalEntry.from_record(record)
            self._entries[entry.lsn] = entry
            self._next_lsn = max(self._next_lsn, entry.lsn + 1)
            return entry.lsn
        if kind == "ack":
            self._acked.add(record["lsn"])
            if record["lsn"] in self._doubt:
                self._settle(self._doubt[record["lsn"]], drop=False)
        elif kind == "resolve":
            self._settle(record["id"], drop=True)
        elif kind == "lost":
            # the segment holding the marker stays until compaction passes it
            self._lost_through = max(self._lost_through, record["through"])
            return record["through"]
        else:  # "compact" (the only other kind in _KINDS)
            self.compacted_through = max(
                self.compacted_through, record["through"]
            )
        return 0

    # ------------------------------------------------------------------
    # recovery-time reading
    # ------------------------------------------------------------------
    def pending(self) -> List[WalEntry]:
        """Change entries appended but never acknowledged, in LSN order
        (a health count: recovery replays acked entries too)."""
        with self._lock:
            return [
                self._entries[lsn]
                for lsn in sorted(self._entries)
                if lsn not in self._acked
            ]

    def entries_after(self, lsn: int) -> List[WalEntry]:
        """Every change entry with LSN > *lsn*, acked or not, in order —
        the replay suffix when base tables were restored from a
        checkpoint taken at *lsn* (an acked entry's effects are part of
        the pre-crash state, not the checkpoint, so it must be
        re-applied too)."""
        with self._lock:
            return [
                self._entries[n] for n in sorted(self._entries) if n > lsn
            ]

    def in_doubt(self) -> Dict[int, str]:
        """The entries of prepared transactions neither committed nor
        aborted yet: ``{LSN: transaction id}``.  Recovery replays them in
        their log position, through the reopened transaction."""
        with self._lock:
            return dict(self._doubt)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(
        self,
        table: str,
        operation: str,
        rows,
        fk_allowed: bool = True,
    ) -> int:
        """Durably record one base-table delta; returns its LSN."""
        return self.journal([(table, operation, rows, fk_allowed)])[0]

    def journal(
        self,
        changes: Sequence[Tuple[str, str, Iterable[Row], bool]],
        txn_id: Optional[str] = None,
    ) -> List[int]:
        """Durably record ``(table, operation, rows, fk_allowed)`` deltas
        as **one** framed record; returns their consecutive LSNs.  A
        committed transaction journals its statements this way, so they
        are logged together or not at all.  With *txn_id* the record is
        a prepare: in doubt until :meth:`ack` or :meth:`resolve`.

        All or nothing: when the write or its fsync fails, the record is
        withdrawn — cut back out of the active segment, its LSNs never
        handed out — before the error surfaces, so a caller that is told
        the append failed never sees any of those changes replayed."""
        for table, operation, _, _ in changes:
            # Crash window: the base table is updated but the change
            # never reaches the log (see runtime/failpoints.py).
            FAILPOINTS.hit("wal.append", table=table, operation=operation)
        with self._lock:
            entries = [
                WalEntry(self._next_lsn + offset, table, operation, tuple(map(tuple, rows)), fk)
                for offset, (table, operation, rows, fk) in enumerate(changes)
            ]
            records = [entry.to_record() for entry in entries]
            record = records[0] if len(records) == 1 else {"kind": "txn", "changes": records}
            if txn_id is not None:
                record = {"kind": "txn", "id": txn_id, "changes": records}
            seq, size = self._active_seq, self._active_size
            try:
                self._write(json.dumps(record, separators=(",", ":")))
            except BaseException:
                # a segment rotated into by this write held nothing yet
                self._active_size = size if self._active_seq == seq else 0
                self._handle.truncate(self._active_size)
                raise
            for entry in entries:
                self._entries[entry.lsn] = entry
                if txn_id is not None:
                    self._doubt[entry.lsn] = txn_id
                self.telemetry.emit("wal.append", table=entry.table)
            self._next_lsn += len(entries)
            self._segment_max_lsn[self._active_seq] = self._next_lsn - 1
            return [entry.lsn for entry in entries]

    def ack(self, lsn: int) -> None:
        """Mark *lsn* as applied to every non-quarantined view.

        An ack at or below :attr:`compacted_through` is a no-op: the
        change lives in a segment a checkpoint already covered (and
        compaction may have deleted), so there is nothing to record.
        Acking an in-doubt entry commits its whole transaction.
        """
        # Crash window: the fan-out completed but its acknowledgement
        # never became durable — recovery must replay and converge.
        if FAILPOINTS.hit("wal.ack", lsn=lsn):
            return
        with self._lock:
            if lsn <= self.compacted_through:
                return
            if lsn not in self._entries:
                raise WalError(f"cannot ack unknown LSN {lsn}")
            if lsn in self._acked:
                return
            self._acked.add(lsn)
            self._write(json.dumps({"kind": "ack", "lsn": lsn}), durable=False)
            if lsn in self._doubt:
                self._settle(self._doubt[lsn], drop=False)

    def resolve(self, txn_id: str) -> None:
        """Abort the prepared transaction *txn_id*: one marker, after
        which its changes never load again.  (Lost to a crash, the
        marker is not missed: the transaction reopens in doubt and,
        with no commit decision anywhere, aborts again.)"""
        with self._lock:
            self._write(json.dumps({"kind": "resolve", "id": txn_id}))
            self._settle(txn_id, drop=True)

    def _settle(self, txn_id: str, drop: bool) -> None:
        # caller holds the lock (or is loading): *txn_id* is no longer
        # in doubt, and with *drop* its changes are gone
        for lsn in [n for n, owner in self._doubt.items() if owner == txn_id]:
            del self._doubt[lsn]
            if drop:
                self._entries.pop(lsn, None)

    def compact(self, through: int) -> int:
        """Delete segments wholly covered by a checkpoint at *through*.

        Writes a durable ``compact`` marker first, so a crash between
        the marker and the deletions is healed on the next open (the
        marker survives; covered segments are re-deleted).  Returns the
        number of segment files removed.
        """
        FAILPOINTS.hit("wal.compact", through=through)
        with self._lock:
            if through <= self.compacted_through:
                return 0
            self._write(
                json.dumps({"kind": "compact", "through": through})
            )
            self._fsync()  # the marker must be durable before deletions
            self.compacted_through = through
            for lsn in [n for n in self._entries if n <= through]:
                del self._entries[lsn]
            self._acked = {n for n in self._acked if n > through}
            deleted = self._delete_covered_segments(through)
        if deleted:
            self.telemetry.emit("wal.compaction", segments_deleted=deleted)
        return deleted

    def _delete_covered_segments(self, through: int) -> int:
        deleted = 0
        active = max(self._segment_max_lsn, default=0)
        for seq in sorted(self._segment_max_lsn):
            if seq == active:
                continue  # never delete the active segment
            if self._segment_max_lsn[seq] <= through:
                # Crash window: the marker is durable but this covered
                # segment still exists; reopening self-heals.
                FAILPOINTS.hit("wal.compact.unlink", seq=seq)
                remove_file(self._segment_path(seq))
                del self._segment_max_lsn[seq]
                deleted += 1
        return deleted

    def _rotate(self) -> None:
        # caller holds the lock; current segment is full
        self._handle.flush()
        self._fsync()
        self._handle.close()
        self._active_seq += 1
        self._segment_max_lsn.setdefault(self._active_seq, 0)
        self._handle = open(self._segment_path(self._active_seq), "ab")
        self._active_size = 0

    def _write(self, payload: str, durable: bool = True) -> None:
        # caller holds the lock; a record that is not *durable* (an
        # ack) never triggers the group commit: the next fsync covers it
        if self._active_size >= self.segment_bytes:
            self._rotate()
        line = frame(payload.encode("utf-8")) + b"\n"
        self._handle.write(line)
        self._handle.flush()
        self._active_size += len(line)
        self._unsynced += 1
        if durable and self._unsynced >= self.fsync_batch:
            self._fsync()

    def _fsync(self) -> None:
        # Failure window: the OS accepted the write but stable storage
        # did not confirm it (see runtime/failpoints.py).
        FAILPOINTS.hit("wal.fsync", segment=self._active_seq)
        started = time.perf_counter()
        os.fsync(self._handle.fileno())
        self.telemetry.emit(
            "wal.fsync", seconds=time.perf_counter() - started
        )
        self._unsynced = 0

    def sync(self) -> None:
        """Force the group commit: flush and fsync outstanding records."""
        with self._lock:
            if not self._closed:
                self._handle.flush()
                self._fsync()

    def close(self) -> None:
        """Flush, fsync and close the active segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.flush()
            if self._unsynced:
                self._fsync()
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """The highest LSN assigned so far (0 when the log is empty)."""
        with self._lock:
            return self._next_lsn - 1

    def is_acked(self, lsn: int) -> bool:
        with self._lock:
            return lsn in self._acked or lsn <= self.compacted_through

    def segment_paths(self) -> List[str]:
        """Current (non-quarantined) segment files, oldest first."""
        with self._lock:
            return [
                self._segment_path(seq)
                for seq in sorted(self._segment_max_lsn)
                if os.path.exists(self._segment_path(seq))
            ]

    def disk_bytes(self) -> int:
        """Total size of the live segment files (the WAL footprint)."""
        with self._lock:
            return sum(
                os.path.getsize(path) for path in self.segment_paths()
            )
