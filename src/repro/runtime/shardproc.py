"""Shard workers: one warehouse per shard, driven over a command pipe.

A sharded warehouse (:mod:`repro.sharded`) owns no table data itself —
each shard's partition lives inside a **worker** running a private,
fully ordinary :class:`~repro.warehouse.Warehouse` (its own WAL segment
directory, checkpoint lineage, scheduler, snapshot store and plan
cache).  The coordinator holds one :class:`ShardHandle` per shard: the
near end of a ``multiprocessing`` pipe, which pickles every message
both ways.  The far end runs one loop, :func:`_serve` — the start-up
handshake (the init blob in, ``ok`` or the typed failure out), then one
reply per command, in FIFO order, so the coordinator can pipeline many
commands per shard and only block at merge barriers.

The two backends differ only in what runs the far end:

* ``"process"`` — a child started with the **spawn** method (no
  interpreter state is inherited).  The production backend: per-shard
  maintenance runs on separate cores, outside the coordinator's GIL.
* ``"thread"`` — a daemon thread in the coordinator's process.
  Deterministic and cheap to start; the fuzz oracle uses it.

Messages are Python values — ``ViewDefinition`` and
``MaintenanceOptions`` objects, row tuples, ``MaintenanceReport``
objects — pickled by the pipe; a worker compiles its own plans.
Protocol sketch (``{"cmd": ..., **payload} -> {"ok": True, ...}`` or
``{"ok": False, "error": <ReproError subclass name>, "message": ...}``,
which for a ``FanOutError`` also carries ``reports``, ``failures`` and
``quarantined``)::

    create_view {view, options}          change {table, operation, rows}
    drop_view {view}                     txn_stmt {txn_id, table, operation,
    flush                                  rows, join, prepare, fk_allowed,
    checkpoint / recover                   check} / txn_prepare {txn_id} /
    snapshot_pin / snapshot_release      txn_commit / txn_abort {txn_id} /
    query {view, equalities, seq}        txn_resolve {commits, keep}
    dump {tables, views}                 ping / close
    stats / check / repair_view {view}

Partial-failure plumbing (see ``docs/SHARDING.md``, "Partial failure
runbook"): ``ping`` is the supervisor's liveness probe; a worker holds
its open transactions by id (``stats`` lists them), and a prepare is
durable (a tagged WAL record), so a worker that dies prepared comes
back with the transaction *in doubt*; ``txn_resolve`` lands in-doubt
transactions on the side the coordinator's decision log
(:mod:`repro.runtime.txnlog`) recorded; ``recover`` reopens the worker's
warehouse over its initial partition rows and applies the one recovery
rule (newest checkpoint, else those rows at LSN 0, every WAL entry past
it into the tables, then each view built once) — the path both
``ShardedWarehouse.recover()`` and a reincarnated worker take.
The serve loop holds three chaos failpoints — ``shard.worker.kill``
(abrupt death before the command runs), ``shard.worker.stall``
(``action="call"`` sleep before the command runs) and
``shard.pipe.drop`` (the command runs but its reply is lost and the
connection dies) — which the ``chaos-shard`` fuzz config drives.  They
are armed only in-process: a thread worker shares the coordinator's
:data:`~repro.runtime.failpoints.FAILPOINTS`, a spawned child has its
own, with nothing armed.

A spawned worker sizes its young GC generation to one change
(:data:`WORKER_GC_THRESHOLD`, ``docs/SHARDING.md``, "Worker GC"); a
thread worker shares the coordinator's interpreter and leaves it alone.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .. import errors as _errors
from ..errors import FanOutError, MaintenanceError, ReproError, ShardingError, ShardUnavailableError
from ..planner.wire import build_database
from .failpoints import FAILPOINTS, InjectedFault

__all__ = ["ShardServer", "ShardHandle", "raise_shard_error", "unavailable"]

#: a spawned worker's generation-0 threshold: above one change's
#: allocation burst (the default 700 fires inside every change)
WORKER_GC_THRESHOLD = 100_000


def _failure(exc: BaseException, context: str = "") -> Dict:
    """The error envelope: a :class:`~repro.errors.ReproError` keeps its
    class across the pipe; anything else is a worker bug, reported as a
    :class:`~repro.errors.ShardingError`.  A ``FanOutError`` also
    carries its payload, each failed view's error as an envelope."""
    if isinstance(exc, ReproError):
        name, message = type(exc).__name__, str(exc)
    else:
        name, message = "ShardingError", f"{type(exc).__name__}: {exc}"
    envelope = {"ok": False, "error": name, "message": context + message}
    if isinstance(exc, FanOutError):
        envelope.update(
            reports=exc.reports,
            failures={view: _failure(e) for view, e in exc.failures.items()},
            quarantined=exc.quarantined,
        )
    return envelope


# ---------------------------------------------------------------------------
# the per-shard server (runs inside the worker)
# ---------------------------------------------------------------------------
class ShardServer:
    """One shard's warehouse plus the command dispatch around it.

    *init* is what the coordinator sent: the database schema
    (:func:`repro.planner.wire.encode_schema` form) and this shard's row
    tuples per table, the ``settings`` the worker's
    :class:`~repro.warehouse.Warehouse` is built with, unchanged, and
    the views to create as ``(ViewDefinition, MaintenanceOptions)``
    pairs.
    """

    def __init__(self, shard_id: int, init: Dict):
        from ..warehouse import Warehouse

        self._Warehouse = Warehouse
        self.shard_id = shard_id
        self._init = init
        self._views: Dict[str, Tuple] = {}  # (definition, options) by name
        self._txns: Dict[str, object] = {}  # open transactions by id
        self._pinned: Dict[int, object] = {}
        self._open(init.get("views") or [])

    # ------------------------------------------------------------------
    def _open(self, views: List[Tuple]) -> None:
        """Build the warehouse over the initial partition rows and the
        shard's directories, then create *views* on it (sharing rows)."""
        init = self._init
        db = build_database(init["schema"], init.get("rows") or {})
        self.wh = self._Warehouse(db, **init["settings"])
        for definition, options in views:
            self.cmd_create_view(definition, options)

    # ------------------------------------------------------------------
    def handle(self, msg: Dict) -> Dict:
        command = msg.get("cmd")
        method = getattr(self, f"cmd_{command}", None)
        try:
            if method is None:
                raise ShardingError(f"unknown shard command {command!r}")
            reply = {"ok": True}
            reply.update(method(**{k: v for k, v in msg.items() if k != "cmd"}) or {})
            return reply
        except Exception as exc:
            return _failure(exc)

    # -- DDL ------------------------------------------------------------
    def cmd_create_view(self, view, options=None):
        self.wh.create_view(view.name, view, options=options)
        self._views[view.name] = (view, options)

    def cmd_drop_view(self, view: str):
        self.wh.drop_view(view)
        del self._views[view]  # a reopened warehouse no longer has it

    def cmd_repair_view(self, view: str):
        self.wh.repair_view(view)

    # -- DML ------------------------------------------------------------
    def cmd_change(self, table: str, operation: str, rows: List):
        return {"reports": self.wh._change(table, operation, rows)}

    def cmd_flush(self):
        self.wh.flush()

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
        reports = txn._statement(table, operation, rows, **flags)
        if prepare:
            txn.prepare()
        return {"reports": reports}

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

    def cmd_recover(self):
        """Crash and recover: drop every open transaction and the
        warehouse, reopen over the initial partition rows and the same
        directories with every view registered (built once, by the
        recover) and recover — holding the prepared transactions the replay
        reopened in doubt until a commit, abort or ``txn_resolve`` lands
        them.  Without a WAL nothing is touched: there is nothing to replay.
        The reopen no longer sees the segments the first open moved to
        ``corrupt/``, so it carries that open's loss over: the replay
        must still evict the keys a lost record may have freed."""
        wal = self.wh.wal
        if wal is None:
            raise MaintenanceError("recover() requires a wal_path")
        self._txns.clear()
        self._pinned.clear()
        self.wh._shutdown()
        self._open(list(self._views.values()))
        self.wh.wal.corruption_detected |= wal.corruption_detected
        self.wh.wal.quarantined_segments[:0] = wal.quarantined_segments
        self.wh.recover()
        self._txns.update(self.wh._in_doubt)
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
        return {"rows": snapshot.query(view, **(equalities or {}))}

    def cmd_dump(self, tables=None, views=None):
        """Drain, then the named tables' and views' rows (``None``: all)."""
        wh = self.wh
        wh.scheduler.drain()
        tables = wh.db.tables if tables is None else tables
        views = wh.view_names if views is None else views
        return {
            "tables": {name: wh.db.table(name).rows for name in tables},
            "views": {name: wh.maintainer(name).view.rows() for name in views},
        }

    # -- health ---------------------------------------------------------
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
            "wal_pending": len(wh.wal.pending()) if wh.wal else 0,
            "open_txns": sorted(self._txns),
            "gc": {
                "threshold": gc.get_threshold(),
                "collections": [g["collections"] for g in gc.get_stats()],
            },
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


def _serve(conn, shard_id: int, abandoned: Optional[threading.Event] = None) -> None:
    """The far end of a shard's pipe, on a spawned process or a thread:
    the start-up handshake, then one reply per command, in order, until
    ``close`` or the coordinator's end goes away.  *abandoned* is the
    thread backend's stand-in for a kill (see :meth:`ShardHandle.terminate`)."""
    if abandoned is None:  # a spawned process: the interpreter is ours
        gc.set_threshold(WORKER_GC_THRESHOLD, *gc.get_threshold()[1:])
    try:
        try:
            server = ShardServer(shard_id, conn.recv())
        except Exception as exc:  # the failure crosses under its own class
            conn.send(_failure(exc, f"shard {shard_id} failed to start: "))
            return
        conn.send({"ok": True, "shard": shard_id})
        while True:
            message = conn.recv()
            if message is None:
                return  # terminate() woke an idle thread
            cmd = message["cmd"]
            # the chaos sites (see the module docstring)
            try:
                FAILPOINTS.hit("shard.worker.kill", shard=shard_id, cmd=cmd)
            except InjectedFault:
                return  # die abruptly: no reply, the command never ran
            FAILPOINTS.hit("shard.worker.stall", shard=shard_id, cmd=cmd)
            if abandoned is not None and abandoned.is_set():
                # abandoned while stalled (the supervisor reincarnated
                # this shard): exit without touching the warehouse, so
                # the replacement worker owns the WAL lineage alone
                return
            reply = server.handle(message)
            if FAILPOINTS.hit("shard.pipe.drop", shard=shard_id, cmd=cmd):
                return  # the reply is lost mid-send: the connection dies
            conn.send(reply)
            if cmd == "close":
                return
    except (EOFError, OSError):
        pass  # the coordinator's end is gone
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# the coordinator's end
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


def unavailable(message: str) -> Dict:
    return {"ok": False, "error": "ShardUnavailableError", "message": message}


def _rebuild(response: Dict) -> ReproError:
    """The worker's error under its original class (else
    ``ShardingError``); a ``FanOutError`` with its payload."""
    if "failures" in response:
        return FanOutError(
            response["message"],
            reports=response["reports"],
            failures={v: _rebuild(e) for v, e in response["failures"].items()},
            quarantined=response["quarantined"],
        )
    cls = getattr(_errors, response.get("error", "ShardingError"), None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ShardingError
    return cls(response.get("message", "shard command failed"))


def raise_shard_error(response: Dict) -> Dict:
    """Return *response* if ok, else re-raise the worker's error."""
    if response.get("ok"):
        return response
    raise _rebuild(response)


class ShardHandle:
    """The coordinator's end of one shard's pipe: pipelined submits
    resolved in FIFO order by a reader thread, death detection, an
    orderly :meth:`close` and a hard :meth:`terminate`.  *backend*
    (``"process"`` or ``"thread"``) chooses what runs :func:`_serve` at
    the far end and how :meth:`terminate` stops it.  The constructor
    returns once the worker has built its warehouse; a start-up failure
    raises under the worker's error class, with no worker left alive."""

    def __init__(self, shard_id: int, init: Dict, backend: str = "process"):
        if backend not in ("process", "thread"):
            raise ShardingError(
                f"unknown shard backend {backend!r} (expected 'process' or 'thread')"
            )
        self.shard_id = shard_id
        self.backend = backend
        self._pending: deque = deque()
        self._lock = threading.Lock()  # one writer; the reader closes under it
        # why the handle takes no more commands (closed, terminated,
        # quarantined) and why its worker died: None while open / alive
        self._closed: Optional[str] = None
        self._dead: Optional[str] = None
        # the supervisor installs this: called (once, off the caller's
        # thread) when the worker dies without being close()-d first
        self.on_death: Optional[Callable] = None
        self._abandoned = threading.Event()
        self._conn, far = multiprocessing.Pipe()
        name = f"repro-shard-{shard_id}"
        if backend == "process":
            # spawn: the child inherits no interpreter state (locks, the
            # coordinator's warehouse, armed failpoints)
            self.worker = multiprocessing.get_context("spawn").Process(
                target=_serve, args=(far, shard_id), name=name, daemon=True
            )
        else:
            self.worker = threading.Thread(
                target=_serve, args=(far, shard_id, self._abandoned),
                name=name, daemon=True,
            )
        self.worker.start()
        if backend == "process":
            far.close()  # the child holds its own copy
        handshake = _Reply()
        self._pending.append(handshake)
        threading.Thread(
            target=self._read, name=f"{name}-reader", daemon=True
        ).start()
        with self._lock:
            self._post(init)  # a worker already gone fails the handshake
        try:
            raise_shard_error(handshake.wait(120.0))
        except BaseException:
            # the caller has no handle to clean a failed worker up with
            self.terminate()
            self.worker.join(10.0)
            raise

    # ------------------------------------------------------------------
    def _post(self, message) -> bool:
        """Write *message* (the caller holds ``_lock``); False when the
        pipe is already broken or closed."""
        try:
            self._conn.send(message)
            return True
        except (OSError, ValueError):
            return False

    def _read(self) -> None:
        """Resolve replies in FIFO order until the worker's end closes."""
        while True:
            try:
                response = self._conn.recv()
            except (EOFError, OSError):
                break
            self._resolve_next(response)
        self._report_death(f"shard {self.shard_id} worker exited unexpectedly")
        with self._lock:
            self._conn.close()

    def _report_death(self, reason: str) -> None:
        """Notify the supervisor and fail all outstanding replies —
        exactly once, and never for an orderly close.  The hook runs
        *first* so the supervisor is visibly busy before any waiter
        wakes up (its revive fails the outstanding replies itself when
        it terminates this handle); the explicit `_fail_outstanding`
        after it covers handles with no supervisor attached."""
        with self._lock:
            if self._dead:
                return
            self._dead = reason
            closed = self._closed
        if self.on_death is not None and not closed:
            self.on_death(self, reason)
        self._fail_outstanding(reason)

    def _resolve_next(self, response: Dict) -> None:
        try:
            reply = self._pending.popleft()
        except IndexError:  # a reply that terminate() already failed
            return
        reply.resolve(response)

    def _fail_outstanding(self, message: str) -> None:
        while self._pending:
            self._pending.popleft().resolve(unavailable(message))

    # ------------------------------------------------------------------
    def submit(self, cmd: str, **payload) -> _Reply:
        reply = _Reply()
        with self._lock:
            gone = self._closed or self._dead
            if not gone:
                self._pending.append(reply)
                sent = self._post({"cmd": cmd, **payload})
        if gone:
            # the same typed envelope a dying worker's replies get
            reply.resolve(unavailable(gone))
        elif not sent:
            # a SIGKILLed worker can break the pipe before the reader
            # notices the death: surface it as the typed envelope, never
            # a raw BrokenPipeError
            self._report_death(f"shard {self.shard_id} pipe write failed")
        return reply

    def call(self, cmd: str, timeout: Optional[float] = None, **payload) -> Dict:
        return raise_shard_error(self.submit(cmd, **payload).wait(timeout))

    @property
    def queue_depth(self) -> int:
        """Commands submitted but not yet answered."""
        return len(self._pending)

    def is_alive(self) -> bool:
        return self.worker.is_alive()

    def close(self, timeout: float = 30.0) -> None:
        """Orderly stop: a ``close`` round trip (none when the worker is
        already dead, so this returns promptly), then join the worker;
        one that outlives *timeout* is terminated."""
        with self._lock:
            if self._closed:
                return
            self._closed = f"shard {self.shard_id} closed"
            reply = None
            if not self._dead and self.worker.is_alive():
                reply = _Reply()
                self._pending.append(reply)
                self._post({"cmd": "close"})
        if reply is not None:
            try:
                reply.wait(timeout)
            except ShardingError:
                pass
        self.worker.join(timeout)
        if self.worker.is_alive():  # pragma: no cover - a wedged worker
            self.terminate(self._closed)
        self._fail_outstanding(self._closed)

    def terminate(self, reason: Optional[str] = None) -> None:
        """Hard-stop the worker without the close round trip: kill the
        process, or abandon the thread (threads cannot be killed; the
        serve loop exits at its next message, or straight after a
        stall, without touching the warehouse).  Outstanding replies,
        and every later one, resolve at once with
        :class:`~repro.errors.ShardUnavailableError` naming *reason* —
        the supervisor passes the quarantine's."""
        with self._lock:
            self._closed = reason or f"shard {self.shard_id} worker terminated"
            self._abandoned.set()
            self._post(None)  # wakes an idle serve loop
        if self.backend == "process" and self.worker.is_alive():
            self.worker.kill()
            self.worker.join(10.0)
        self._fail_outstanding(self._closed)
