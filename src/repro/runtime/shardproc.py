"""Shard workers: one warehouse per shard, driven over a command pipe.

A sharded warehouse (:mod:`repro.sharded`) owns no table data itself —
each shard's partition lives inside a **worker** running a private,
fully ordinary :class:`~repro.warehouse.Warehouse` (its own WAL segment
directory, checkpoint lineage, scheduler, snapshot store and plan
cache).  The parent talks to workers through a small command protocol
whose messages are plain picklable data built with
:mod:`repro.planner.wire`; replies come back in FIFO order, so the
parent can pipeline many commands per shard and only block at merge
barriers.

Two interchangeable backends run the same :class:`ShardServer` loop:

* :class:`ProcessShardHandle` — a ``multiprocessing`` child started
  with the **spawn** method (no interpreter state is inherited; the
  init blob and every command crosses the pipe by pickle).  This is the
  production backend: per-shard maintenance runs on separate cores,
  outside the parent's GIL.
* :class:`ThreadShardHandle` — the server on a daemon thread, with
  every command and reply still round-tripped through ``pickle`` so the
  wire contract stays honest.  Deterministic and cheap to start; the
  fuzz oracle uses it (and it shares the parent's
  :data:`~repro.runtime.failpoints.FAILPOINTS`, so fault injection
  reaches into every shard).

Protocol sketch (``{"cmd": ..., **payload} -> {"ok": True, ...}`` or
``{"ok": False, "error": <ReproError subclass name>, "message": ...}``)::

    create_view {view, options}          change {table, operation, rows,
    flush                                        fk_allowed, check}
    checkpoint / recover {from_origin}   txn_stmt {txn_id, table, operation,
    snapshot_pin / snapshot_release        rows, join, prepare, fk_allowed,
    query {view, equalities, seq}          check} / txn_prepare {txn_id} /
    dump / stats / check                   txn_commit / txn_abort {txn_id} /
    repair_view {view}                     txn_resolve {commits, keep}
    ping                                 crash_hard / restart / close

Partial-failure plumbing (see ``docs/SHARDING.md``, "Partial failure
runbook"): ``ping`` is the supervisor's liveness probe; a worker holds
its open transactions by id, and a prepare is durable (a tagged WAL
record), so a worker that dies prepared comes back with the transaction
*in doubt*; ``txn_resolve`` lands in-doubt transactions on the side the
coordinator's decision log (:mod:`repro.runtime.txnlog`) recorded;
``recover {from_origin: true}`` replays the *whole* WAL against the
initial partition rows, the cold-start path a reincarnated worker
uses when no checkpoint exists.  The thread backend's serve loop is
instrumented with three chaos failpoints — ``shard.worker.kill``
(abrupt death before the command runs), ``shard.worker.stall``
(``action="call"`` sleep before the command runs) and
``shard.pipe.drop`` (the command runs but its reply is lost and the
connection dies) — which the ``chaos-shard`` fuzz config drives.
"""

from __future__ import annotations

import pickle
import queue
import threading
from collections import deque
from typing import Dict, List, Optional

from .. import errors as _errors
from ..errors import ReproError, ShardingError, ShardUnavailableError
from .failpoints import FAILPOINTS, InjectedFault

__all__ = [
    "ShardServer",
    "ProcessShardHandle",
    "ThreadShardHandle",
    "make_handle",
    "raise_shard_error",
]


# ---------------------------------------------------------------------------
# the per-shard server (runs inside the worker)
# ---------------------------------------------------------------------------
class ShardServer:
    """One shard's warehouse plus the command dispatch around it.

    *init* is the plain-data blob the parent built: database schema and
    this shard's rows (:func:`repro.planner.wire.encode_schema` form),
    the runtime directories, and the views to create.
    """

    def __init__(self, shard_id: int, init: Dict):
        from ..planner import wire
        from ..warehouse import Warehouse

        self._wire = wire
        self._Warehouse = Warehouse
        self.shard_id = shard_id
        self._init = init
        self._views: List[Dict] = []
        self._txns: Dict[str, object] = {}  # open transactions by id
        self._pinned: Dict[int, object] = {}
        self.wh = self._build_warehouse(
            wire.build_database(init["schema"], init.get("rows") or {})
        )
        for blob in init.get("views") or []:
            self._create_view(blob)

    # ------------------------------------------------------------------
    def _build_warehouse(self, db):
        init = self._init
        kwargs: Dict = {
            "workers": init.get("workers", 0),
            "snapshot_retain": init.get("snapshot_retain", 8),
        }
        if init.get("wal_dir"):
            kwargs["wal_path"] = init["wal_dir"]
        if init.get("checkpoint_dir"):
            kwargs["checkpoint_dir"] = init["checkpoint_dir"]
            if init.get("checkpoint_interval"):
                kwargs["checkpoint_interval"] = init["checkpoint_interval"]
        if init.get("segment_bytes"):
            kwargs["segment_bytes"] = init["segment_bytes"]
        if init.get("retry"):
            from .scheduler import RetryPolicy

            kwargs["retry"] = RetryPolicy(**init["retry"])
        return self._Warehouse(db, **kwargs)

    def _create_view(self, blob: Dict) -> None:
        definition = self._wire.decode_view(self.wh.db, blob["view"])
        self.wh.create_view(
            definition.name,
            definition,
            options=self._wire.decode_options(blob.get("options")),
        )
        if blob not in self._views:
            self._views.append(blob)

    # ------------------------------------------------------------------
    def handle(self, msg: Dict) -> Dict:
        command = msg.get("cmd")
        method = getattr(self, f"cmd_{command}", None)
        if method is None:
            return {
                "ok": False,
                "error": "ShardingError",
                "message": f"unknown shard command {command!r}",
            }
        try:
            out = method(**{k: v for k, v in msg.items() if k != "cmd"})
            reply = {"ok": True}
            reply.update(out or {})
            return reply
        except ReproError as exc:
            return {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        except Exception as exc:  # pragma: no cover - worker bug surface
            return {
                "ok": False,
                "error": "ShardingError",
                "message": f"{type(exc).__name__}: {exc}",
            }

    # -- DDL ------------------------------------------------------------
    def cmd_create_view(self, view: Dict, options: Optional[Dict] = None):
        self._create_view({"view": view, "options": options})

    def cmd_repair_view(self, view: str):
        self.wh.repair_view(view)

    # -- DML ------------------------------------------------------------
    def cmd_change(
        self,
        table: str,
        operation: str,
        rows: List,
        fk_allowed: bool = True,
        check: bool = True,
    ):
        reports = self.wh._change(
            table,
            operation,
            self._wire.decode_rows(rows),
            fk_allowed=fk_allowed,
            check=check,
        )
        return {"reports": self._encode_reports(reports)}

    def _encode_reports(self, reports: Dict) -> Dict[str, Dict]:
        return {
            name: self._wire.encode_report(report)
            for name, report in reports.items()
        }

    def cmd_flush(self):
        self.wh.flush()
        return {"pending": self._pending_count()}

    # -- transactions: open ones by id; a shard joins with its first
    # statement, and its prepare is durable (a tagged WAL record) -------
    def _begin(self, txn_id: str):
        txn = self._txns[txn_id] = self.wh.transaction()
        txn.txn_id = txn_id
        return txn

    def _txn(self, txn_id: str):
        try:
            return self._txns[txn_id]
        except KeyError:
            raise ShardingError(
                f"shard {self.shard_id}: transaction {txn_id} is not open "
                "here (lost with a worker that died before preparing it)"
            ) from None

    def cmd_txn_stmt(
        self, txn_id: str, table: str, operation: str, rows: List,
        join: bool = False, prepare: bool = False, **flags,
    ):
        """One statement of *txn_id*: ``join`` (its first here) opens
        the worker-local transaction, and ``prepare`` also prepares it —
        a multi-shard statement's one message before the decision."""
        txn = self._begin(txn_id) if join else self._txn(txn_id)
        reports = txn._statement(
            table, operation, self._wire.decode_rows(rows), **flags
        )
        if prepare:
            txn.prepare()
        return {"reports": self._encode_reports(reports)}

    def cmd_txn_prepare(self, txn_id: str):
        """Phase one of the cross-shard commit: deferred-FK checks, then
        the statements journaled as one tagged WAL record.  The
        transaction stays open either way, so the parent can still roll
        every shard back when a sibling's prepare fails."""
        self._txn(txn_id).prepare()

    def cmd_txn_commit(self, txn_id: str):
        """Commit *txn_id*; a no-op where it is no longer open (a
        reincarnated worker may have resolved it already).  A commit
        that fails before its commit point rolls back."""
        txn = self._txns.pop(txn_id, None)
        if txn is not None:
            try:
                txn.commit()
            except Exception:
                txn.rollback()
                raise

    def cmd_txn_abort(self, txn_id: str):
        """Roll *txn_id* back by its inverses; a no-op where it is gone."""
        txn = self._txns.pop(txn_id, None)
        if txn is not None:
            txn.rollback()

    def cmd_txn_resolve(self, commits: List[str], keep: List[str] = ()):
        """Land in-doubt transactions on the coordinator's side.

        ``commits`` are the ids the coordinator's decision log
        (:mod:`repro.runtime.txnlog`) durably decided to commit; ``keep``
        the ids whose decision the coordinator is still making, which
        stay open for its own commit or abort.  Every other open
        transaction commits if its id is in ``commits`` and aborts
        otherwise (presumed abort).  Idempotent, so the parent can send
        it freely during ``recover()`` and shard reincarnation."""
        resolved = []
        for txn_id in [t for t in self._txns if t not in keep]:
            commit = txn_id in commits
            (self.cmd_txn_commit if commit else self.cmd_txn_abort)(txn_id)
            resolved.append(
                {"txn_id": txn_id, "outcome": "commit" if commit else "abort"}
            )
        return {"resolved": resolved}

    # -- durability -----------------------------------------------------
    def cmd_checkpoint(self):
        return {"path": self.wh.checkpoint()}

    def cmd_recover(self, from_origin: bool = False):
        """Recover, holding the prepared transactions the replay
        reopened in doubt until a commit, abort or ``txn_resolve``
        lands them."""
        self.wh.recover(from_origin=from_origin)
        self._txns.update(self.wh._in_doubt)
        return {"summary": self.wh.last_recovery}

    def cmd_crash_hard(self):
        """Die without acknowledging: drop in-memory state, reopen over
        the same WAL/checkpoint directories from the initial partition
        rows, and recover.  Mirrors the oracle's crash contract."""
        # open transactions die with the crash; prepared ones come back
        # in doubt from the WAL
        self._txns.clear()
        return self._reopen(
            self._wire.build_database(
                self._init["schema"], self._init.get("rows") or {}
            )
        )

    def cmd_restart(self):
        """Orderly restart (flush first), reopening over the same
        directories — the WAL-enabled replay loop's ``crash`` op.  With
        checkpoints, recovery rebuilds from the initial partition rows
        (a restore point, or the whole WAL when none exists yet)."""
        for txn_id in list(self._txns):  # orderly: abort while it can
            self.cmd_txn_abort(txn_id)
        self.wh.flush()
        if self.wh.checkpoints is not None:
            return self.cmd_crash_hard()
        return self._reopen(self.wh.db)

    def _reopen(self, db):
        """Stop the warehouse (its queue drains, its WAL syncs and
        closes), rebuild it over *db* and the same WAL and checkpoint
        directories with every view re-created, and recover."""
        self.wh._shutdown()
        self._pinned.clear()
        self.wh = self._build_warehouse(db)
        for blob in self._views:
            self._create_view(blob)
        if self.wh.wal is not None:
            return self.cmd_recover()
        return {"summary": self.wh.last_recovery}

    # -- reads ----------------------------------------------------------
    def cmd_snapshot_pin(self):
        snapshot = self.wh.snapshot()
        self._pinned[snapshot.seq] = snapshot
        return {
            "seq": snapshot.seq,
            "lsn": snapshot.lsn,
            "stale": sorted(snapshot.stale_views),
        }

    def cmd_snapshot_release(self, seq: int):
        self._pinned.pop(seq, None)

    def cmd_query(
        self,
        view: str,
        equalities: Optional[Dict] = None,
        limit: Optional[int] = None,
        seq: Optional[int] = None,
    ):
        if seq is not None:
            try:
                snapshot = self._pinned[seq]
            except KeyError:
                raise ShardingError(
                    f"shard {self.shard_id}: snapshot seq {seq} not pinned"
                ) from None
        else:
            snapshot = self.wh.snapshot()
        rows = snapshot.query(view, limit=limit, **(equalities or {}))
        return {"rows": self._wire.encode_rows(rows)}

    def cmd_dump(self):
        self.wh.scheduler.drain()
        return {
            "tables": {
                name: self._wire.encode_rows(table.rows)
                for name, table in self.wh.db.tables.items()
            },
            "views": {
                name: self._wire.encode_rows(
                    self.wh.maintainer(name).view.rows()
                )
                for name in self.wh.view_names
            },
        }

    # -- health ---------------------------------------------------------
    def _pending_count(self) -> int:
        if self.wh.wal is None:
            return 0
        return len(self.wh.wal.pending())

    def cmd_stats(self):
        wh = self.wh
        return {
            "table_rows": {
                name: len(table.rows) for name, table in wh.db.tables.items()
            },
            "view_rows": {
                name: len(wh.maintainer(name).view) for name in wh.view_names
            },
            "quarantined": list(wh.quarantined_views),
            "wal_pending": self._pending_count(),
            "wal_corruption": (
                bool(wh.wal.corruption_detected) if wh.wal else False
            ),
            "last_recovery": wh.last_recovery,
        }

    def cmd_check(self):
        """Shard-local recompute oracle: every view against its own
        partition (raises through the error envelope on divergence)."""
        self.wh.check_consistency()

    def cmd_ping(self):
        """Supervisor liveness probe: answers iff the serve loop is
        draining its inbox (a stalled or dead worker never replies)."""
        return {"shard": self.shard_id}

    def cmd_close(self):
        for txn_id in list(self._txns):
            self.cmd_txn_abort(txn_id)
        self._pinned.clear()
        self.wh.close()
        return {"bye": True}


def _shard_worker_main(conn, shard_id: int, init: Dict) -> None:
    """Entry point of a spawned shard process: serve until ``close``."""
    try:
        server = ShardServer(shard_id, init)
    except Exception as exc:  # constructor failure must reach the parent
        conn.send(
            {
                "ok": False,
                "error": "ShardingError",
                "message": f"shard {shard_id} failed to start: "
                f"{type(exc).__name__}: {exc}",
            }
        )
        conn.close()
        return
    conn.send({"ok": True, "shard": shard_id})  # readiness handshake
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        reply = server.handle(msg)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        if msg.get("cmd") == "close":
            break
    conn.close()


# ---------------------------------------------------------------------------
# parent-side handles
# ---------------------------------------------------------------------------
class _Reply:
    """A pending FIFO reply from one shard."""

    __slots__ = ("_event", "_response")

    def __init__(self):
        self._event = threading.Event()
        self._response: Optional[Dict] = None

    def resolve(self, response: Dict) -> None:
        self._response = response
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> Dict:
        if not self._event.wait(timeout):
            # typed so callers (and the supervisor) can distinguish a
            # hung/dead worker from an ordinary shard error
            raise ShardUnavailableError(
                f"timed out after {timeout}s waiting for a shard reply"
            )
        assert self._response is not None
        return self._response


def _unavailable(message: str) -> Dict:
    return {"ok": False, "error": "ShardUnavailableError", "message": message}


def raise_shard_error(response: Dict) -> Dict:
    """Return *response* if ok, else re-raise the worker's error under
    its original :class:`~repro.errors.ReproError` subclass."""
    if response.get("ok"):
        return response
    name = response.get("error", "ShardingError")
    cls = getattr(_errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ShardingError
    raise cls(response.get("message", "shard command failed"))


class _HandleBase:
    """FIFO submit/wait plumbing shared by both backends."""

    shard_id: int

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self._pending: deque = deque()
        self._lock = threading.Lock()
        self._closed = False
        # the supervisor installs this: called (once, off the caller's
        # thread) when the worker dies without being close()-d first
        self.on_death: Optional[callable] = None
        self._death_reported = False

    def _report_death(self, reason: str) -> None:
        """Notify the supervisor and fail all outstanding replies —
        exactly once, and never for an orderly close.  The hook runs
        *first* so the supervisor is visibly busy before any waiter
        wakes up (its revive fails the outstanding replies itself when
        it terminates this handle); the explicit `_fail_outstanding`
        after it covers handles with no supervisor attached."""
        with self._lock:
            if self._death_reported:
                return
            self._death_reported = True
            closed = self._closed
        hook = self.on_death
        if hook is not None and not closed:
            hook(self, reason)
        self._fail_outstanding(reason)

    # ------------------------------------------------------------------
    def submit(self, cmd: str, **payload) -> _Reply:
        reply = _Reply()
        message = {"cmd": cmd}
        message.update(payload)
        with self._lock:
            if self._closed:
                # closed, or terminated by a reincarnation in progress:
                # the same typed envelope a dying worker's replies get
                reply.resolve(_unavailable(f"shard {self.shard_id} handle is closed"))
                return reply
            self._pending.append(reply)
            try:
                self._send(message)
            except (OSError, ValueError) as exc:
                # a SIGKILLed worker can break the pipe before the
                # reader thread notices the death: surface it as the
                # typed unavailability envelope, never a raw
                # BrokenPipeError
                failure = exc
            else:
                failure = None
        if failure is not None:
            self._report_death(
                f"shard {self.shard_id} pipe write failed: {failure}"
            )
        return reply

    def call(self, cmd: str, timeout: Optional[float] = None, **payload) -> Dict:
        return raise_shard_error(self.submit(cmd, **payload).wait(timeout))

    @property
    def queue_depth(self) -> int:
        """Commands submitted but not yet answered."""
        return len(self._pending)

    def _resolve_next(self, response: Dict) -> None:
        try:
            reply = self._pending.popleft()
        except IndexError:  # pragma: no cover - protocol violation
            return
        reply.resolve(response)

    def _fail_outstanding(self, message: str) -> None:
        while self._pending:
            self._pending.popleft().resolve(_unavailable(message))

    def _send(self, message: Dict) -> None:
        raise NotImplementedError

    def is_alive(self) -> bool:
        raise NotImplementedError

    def terminate(self) -> None:
        """Hard-stop the worker without the graceful close round-trip.

        Used by the supervisor before reincarnating a shard and by the
        facade constructor's cleanup path; outstanding replies resolve
        immediately with :class:`~repro.errors.ShardUnavailableError`.
        """
        raise NotImplementedError


class ProcessShardHandle(_HandleBase):
    """A shard worker in a spawned child process."""

    backend = "process"

    def __init__(self, shard_id: int, init: Dict):
        import multiprocessing

        super().__init__(shard_id)
        # spawn: the child inherits no interpreter state (locks, the
        # parent's warehouse); everything it needs crosses the pipe
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child, shard_id, init),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self.process.start()
        child.close()
        # handshake synchronously so a failed spawn surfaces here, not
        # on the first command
        handshake = _Reply()
        self._pending.append(handshake)
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-shard-{shard_id}-reader",
            daemon=True,
        )
        self._reader.start()
        try:
            raise_shard_error(handshake.wait(120.0))
        except Exception:
            # a worker that failed (or hung) its handshake must not
            # outlive the constructor — the caller has no handle to
            # clean it up with
            self.terminate()
            raise

    def _send(self, message: Dict) -> None:
        self._conn.send(message)

    def _read_loop(self) -> None:
        while True:
            try:
                response = self._conn.recv()
            except (EOFError, OSError):
                break
            self._resolve_next(response)
        self._report_death(
            f"shard {self.shard_id} worker exited unexpectedly"
        )

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def close(self, timeout: float = 30.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # a worker that already exited can never answer a close
            # round-trip: resolve everything outstanding immediately
            # instead of sitting out the full timeout
            dead = (
                self.process.exitcode is not None or self._death_reported
            )
            reply = None
            if not dead:
                reply = _Reply()
                self._pending.append(reply)
                try:
                    self._conn.send({"cmd": "close"})
                except (BrokenPipeError, OSError):
                    pass
        if reply is not None:
            try:
                reply.wait(timeout)
            except ShardingError:
                pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - deadlocked worker
            self.process.terminate()
            self.process.join(5.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        self._fail_outstanding(f"shard {self.shard_id} closed")

    def terminate(self) -> None:
        with self._lock:
            self._closed = True
        if self.process.is_alive():
            self.process.kill()
        self.process.join(10.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        self._fail_outstanding(
            f"shard {self.shard_id} worker terminated"
        )


class ThreadShardHandle(_HandleBase):
    """The same server on a daemon thread, pickle-round-tripping every
    message so the protocol stays process-portable."""

    backend = "thread"

    def __init__(self, shard_id: int, init: Dict):
        super().__init__(shard_id)
        self._inbox: "queue.Queue" = queue.Queue()
        self._server: Optional[ShardServer] = None
        self._startup = _Reply()
        self._pending.append(self._startup)
        self._thread = threading.Thread(
            target=self._run,
            args=(pickle.loads(pickle.dumps(init)),),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self._thread.start()
        raise_shard_error(self._startup.wait(120.0))

    def _run(self, init: Dict) -> None:
        try:
            server = ShardServer(self.shard_id, init)
        except Exception as exc:
            self._resolve_next(
                {
                    "ok": False,
                    "error": "ShardingError",
                    "message": f"shard {self.shard_id} failed to start: "
                    f"{type(exc).__name__}: {exc}",
                }
            )
            return
        self._resolve_next({"ok": True, "shard": self.shard_id})
        self._server = server  # debugging / test introspection
        while True:
            message = self._inbox.get()
            if message is None:
                break
            message = pickle.loads(pickle.dumps(message))
            cmd = message.get("cmd")
            # chaos sites (see the module docstring): the thread backend
            # shares the parent's FAILPOINTS, so the fuzz harness can
            # kill, stall or sever this worker deterministically
            try:
                FAILPOINTS.hit(
                    "shard.worker.kill", shard=self.shard_id, cmd=cmd
                )
            except InjectedFault:
                break  # die abruptly: no reply, command never ran
            FAILPOINTS.hit(
                "shard.worker.stall", shard=self.shard_id, cmd=cmd
            )
            if self._closed:
                # abandoned while stalled (the supervisor reincarnated
                # this shard): exit without touching the warehouse, so
                # the replacement worker owns the WAL lineage alone
                break
            reply = server.handle(message)
            if FAILPOINTS.hit(
                "shard.pipe.drop", shard=self.shard_id, cmd=cmd
            ):
                break  # reply lost mid-send: the connection is gone
            self._resolve_next(pickle.loads(pickle.dumps(reply)))
            if cmd == "close":
                break
        self._report_death(f"shard {self.shard_id} worker stopped")

    def _send(self, message: Dict) -> None:
        self._inbox.put(message)

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def close(self, timeout: float = 30.0) -> None:
        with self._lock:
            if self._closed:
                return
            dead = self._death_reported or not self._thread.is_alive()
            self._closed = True
            reply = None
            if not dead:
                reply = _Reply()
                self._pending.append(reply)
                self._inbox.put({"cmd": "close"})
        if reply is not None:
            try:
                reply.wait(timeout)
            except ShardingError:
                pass
        self._inbox.put(None)
        self._thread.join(timeout)
        self._fail_outstanding(f"shard {self.shard_id} closed")

    def terminate(self) -> None:
        """Abandon the worker thread: threads cannot be killed, so mark
        the handle closed (the serve loop checks this after its stall
        site and exits without touching the warehouse) and poison the
        inbox."""
        with self._lock:
            self._closed = True
        self._inbox.put(None)
        self._fail_outstanding(
            f"shard {self.shard_id} worker terminated"
        )


def make_handle(backend: str, shard_id: int, init: Dict):
    if backend == "process":
        return ProcessShardHandle(shard_id, init)
    if backend == "thread":
        return ThreadShardHandle(shard_id, init)
    raise ShardingError(
        f"unknown shard backend {backend!r} (expected 'process' or 'thread')"
    )
