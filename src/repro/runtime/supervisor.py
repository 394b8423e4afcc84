"""Shard supervision: death detection, reincarnation, restart budgets.

A sharded warehouse's workers are ordinary OS processes (or threads):
they can be SIGKILLed, hang past any reasonable deadline, or lose
their pipe mid-reply.  Before this module, any of those hung the
caller forever — ``_Reply.wait`` had no deadline — and left the shard
permanently absent.  :class:`ShardSupervisor` turns each of those
events into a bounded, observable recovery:

* **Detection.**  Two signals funnel into :meth:`_revive`: the
  handle's reader loop reporting an unexpected exit (``on_death`` — a
  dead worker), and a facade call timing out past its per-call deadline
  (:meth:`worker_unresponsive`, which confirms with a ``ping`` probe
  before acting — a hung one).
* **Fail-fast.**  The dying handle's outstanding replies resolve with
  a typed :class:`~repro.errors.ShardUnavailableError` — callers get
  an error within their deadline instead of blocking on a reply that
  can never arrive.  (A lost reply breaks the FIFO pairing of the wire
  protocol for good, so the worker is always *replaced*, never
  retried in place.)
* **Reincarnation.**  Under a per-shard lock the supervisor terminates
  the old worker, spawns a replacement from the shard's retained init
  blob (initial partition rows + every view created since), has it
  ``recover`` — the one rule: its newest checkpoint, else those rows
  at LSN 0, then every WAL entry past it, every prepared transaction
  reopened in doubt — swaps the new handle in, and then resolves the
  in-doubt transactions the coordinator is no longer driving against
  its :class:`~repro.runtime.txnlog.TxnDecisionLog`.  Without a WAL the
  replacement restarts from its initial rows — replicated tables
  included — and reports ``degraded``; ``check_consistency`` names the
  replicated divergence.
* **Restart budget.**  More than ``restart_budget`` restarts within
  :data:`RESTART_WINDOW` seconds marks the shard *flapping*: it is
  quarantined — its handle stays closed, failing every command fast
  with the quarantine reason — ``last_recovery`` reports ``degraded``
  and ``/healthz`` turns 503.  Quarantine is terminal for the facade
  instance — rebuild the warehouse (the durable lineage survives) to
  clear it.

Everything is reported through :class:`~repro.obs.Telemetry`: events
``shard.dead`` / ``shard.reincarnated`` / ``shard.flapping`` /
``txn.indoubt.resolved``, counters ``repro_shard_deaths_total`` and
``repro_shard_reincarnations_total``, the
``repro_shard_reincarnation_seconds`` histogram and the per-shard
``repro_shard_health`` gauge.  ``docs/SHARDING.md`` ("Partial failure
runbook") is the operator-facing contract.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

from ..errors import ReproError
from .shardproc import ShardHandle

__all__ = ["ShardSupervisor"]

STATE_UP = "up"
STATE_REINCARNATING = "reincarnating"
STATE_QUARANTINED = "quarantined"

#: the span, in seconds, over which ``restart_budget`` counts restarts
RESTART_WINDOW = 60.0
#: seconds a replacement worker gets for each recovery call
REINCARNATE_TIMEOUT = 120.0


def _quarantined(shard: int, reason: str) -> str:
    return f"shard {shard} is quarantined: {reason}"


class ShardSupervisor:
    """Watches a :class:`~repro.sharded.ShardedWarehouse`'s workers and
    reincarnates the ones that die (see the module docstring)."""

    def __init__(
        self,
        warehouse,
        *,
        probe_timeout: float = 5.0,
        restart_budget: int = 5,
    ):
        self.warehouse = warehouse
        self.probe_timeout = probe_timeout
        self.restart_budget = max(0, int(restart_budget))
        shards = warehouse.shards
        self._locks = [threading.RLock() for _ in range(shards)]
        self._restarts: List[List[float]] = [[] for _ in range(shards)]
        self._total_restarts = [0] * shards
        self._states: List[Dict] = [
            {
                "state": STATE_UP,
                "restarts": 0,
                "last_error": None,
                "last_reincarnation_seconds": None,
            }
            for _ in range(shards)
        ]
        self.quarantined: set = set()
        self._stop = threading.Event()
        # count of in-flight detections/revives, so callers (and
        # ``stop()``) can tell "all shards look up" from "a revive has
        # not registered yet" — see :attr:`quiesced`
        self._busy = 0
        self._busy_cond = threading.Condition()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Install death hooks on every handle."""
        for handle in self.warehouse._handles:
            handle.on_death = self._on_death

    def stop(self) -> None:
        self._stop.set()
        # Drain in-flight probes/revives (bounded): a revive racing the
        # facade's close would otherwise submit to handles mid-teardown.
        self.wait_quiesced(10.0)

    def _busy_enter(self) -> None:
        with self._busy_cond:
            self._busy += 1

    def _busy_exit(self) -> None:
        with self._busy_cond:
            self._busy -= 1
            self._busy_cond.notify_all()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[int, Dict]:
        """Per-shard supervision state (for ``shard_stats`` and ops)."""
        return {
            shard: dict(self._states[shard])
            for shard in range(self.warehouse.shards)
        }

    def is_quarantined(self, shard: int) -> bool:
        return shard in self.quarantined

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined)

    @property
    def quiesced(self) -> bool:
        """True when no detection/revive is in flight — only then does
        "every state is ``up``" actually mean the tier is settled."""
        with self._busy_cond:
            return self._busy == 0

    def wait_quiesced(self, timeout: float) -> bool:
        """Block until no detection/revive is in flight, or *timeout*."""
        with self._busy_cond:
            return self._busy_cond.wait_for(lambda: not self._busy, timeout)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _on_death(self, handle, reason: str) -> None:
        """Reader-loop hook: the worker exited without an orderly close."""
        if self._stop.is_set():
            return
        self._revive(handle.shard_id, handle, reason)

    def worker_unresponsive(self, shard: int, reason: str) -> None:
        """A facade call on *shard* timed out.  Confirm with a liveness
        probe, then replace the worker if it really is gone or stuck.
        Runs on a background thread so the timed-out caller is not also
        charged the reincarnation time."""
        if self._stop.is_set():
            return
        handle = self.warehouse._handles[shard]
        if handle._closed:
            return
        # mark busy *before* the thread exists so the caller — who just
        # observed the timeout — cannot see a quiesced supervisor in
        # the gap before the probe starts
        self._busy_enter()
        thread = threading.Thread(
            target=self._probe_and_revive,
            args=(shard, handle, reason),
            name=f"repro-shard-{shard}-probe",
            daemon=True,
        )
        thread.start()

    def _probe_and_revive(self, shard: int, handle, reason: str) -> None:
        try:
            if self._stop.is_set():
                return
            if self.warehouse._handles[shard] is not handle:
                return  # already replaced
            if handle.is_alive():
                try:
                    response = handle.submit("ping").wait(self.probe_timeout)
                    if response.get("ok"):
                        # slow but alive: the caller's deadline was
                        # simply tighter than the queue — no replacement
                        return
                except ReproError:
                    pass
            self._revive(shard, handle, reason)
        finally:
            self._busy_exit()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recent_restarts(self, shard: int) -> List[float]:
        cutoff = time.monotonic() - RESTART_WINDOW
        self._restarts[shard] = [
            ts for ts in self._restarts[shard] if ts >= cutoff
        ]
        return self._restarts[shard]

    def _revive(self, shard: int, handle, reason: str) -> None:
        wh = self.warehouse
        self._busy_enter()
        try:
            with self._locks[shard]:
                if wh._closed or shard in self.quarantined:
                    return
                if wh._handles[shard] is not handle:
                    return  # a concurrent detection already replaced it
                if handle._closed:
                    return  # orderly close/terminate, not a failure
                self._states[shard]["state"] = STATE_REINCARNATING
                self._states[shard]["last_error"] = reason
                wh.telemetry.emit("shard.dead", shard=shard, reason=reason)
                while True:
                    if wh._closed or self._stop.is_set():
                        # teardown raced the revive: leave the handle
                        # closed rather than a half-built worker; no
                        # telemetry — the facade is going away
                        wh._handles[shard].terminate(_quarantined(shard, reason))
                        self._states[shard]["state"] = STATE_QUARANTINED
                        return
                    if (
                        len(self._recent_restarts(shard))
                        >= self.restart_budget
                    ):
                        self._quarantine_locked(shard, reason)
                        return
                    self._restarts[shard].append(time.monotonic())
                    self._total_restarts[shard] += 1
                    self._states[shard]["restarts"] = self._total_restarts[
                        shard
                    ]
                    try:
                        self._reincarnate_locked(shard, reason)
                        return
                    except Exception as exc:  # noqa: BLE001 — any failure
                        # (typed or not) must burn restart budget, not
                        # leak out of a background thread leaving the
                        # dead handle installed
                        reason = f"reincarnation failed: {exc}"
                        self._states[shard]["last_error"] = reason
        finally:
            self._busy_exit()

    def _reincarnate_locked(self, shard: int, reason: str) -> None:
        wh = self.warehouse
        started = time.monotonic()
        old = wh._handles[shard]
        old.terminate()
        init = wh._shard_init(shard)
        replacement = ShardHandle.start({shard: init}, wh.backend)[0]
        summary = None
        degraded = False
        try:
            if init["settings"]["wal_path"]:
                response = replacement.call(
                    "recover", timeout=REINCARNATE_TIMEOUT
                )
                summary = response.get("summary")
                degraded = bool((summary or {}).get("corruption_detected"))
            else:
                # no durable lineage: the shard restarts from its initial
                # rows (replicated tables too) and its post-construction
                # history is lost
                degraded = True
            wh._handles[shard] = replacement
            self._resolve_indoubt(replacement)
        except Exception:
            replacement.terminate()
            raise
        replacement.on_death = self._on_death
        elapsed = time.monotonic() - started
        self._states[shard]["state"] = STATE_UP
        self._states[shard]["last_reincarnation_seconds"] = elapsed
        wh.telemetry.emit(
            "shard.reincarnated",
            shard=shard,
            seconds=elapsed,
            summary=summary,
        )
        wh._note_shard_recovery(
            shard,
            summary=summary,
            reason=reason,
            degraded=degraded,
            duration_seconds=elapsed,
        )

    def _resolve_indoubt(self, handle) -> None:
        """Land the transactions the replacement reopened in doubt that
        the coordinator is no longer driving: commit where the decision
        log holds a record, presumed abort otherwise.  One whose
        decision is still being made stays open for the coordinator's
        own commit or abort.  The handle is swapped in first and the
        undecided set read before the log, so a decision made meanwhile
        either shows up here or reaches the replacement itself."""
        keep = list(self.warehouse._undecided.copy())
        commits = [record.txn_id for record in self.warehouse.txnlog.pending()]
        handle.call(
            "txn_resolve", commits=commits, keep=keep,
            timeout=REINCARNATE_TIMEOUT,
        )

    def _quarantine_locked(self, shard: int, reason: str) -> None:
        wh = self.warehouse
        wh._handles[shard].terminate(_quarantined(shard, reason))
        self.quarantined.add(shard)
        self._states[shard]["state"] = STATE_QUARANTINED
        self._states[shard]["last_error"] = reason
        wh.telemetry.emit(
            "shard.flapping",
            shard=shard,
            restarts=self._total_restarts[shard],
        )
        wh._note_shard_recovery(
            shard,
            summary=None,
            reason=reason,
            degraded=True,
            duration_seconds=None,
            quarantined=True,
        )
