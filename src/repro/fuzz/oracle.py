"""The differential oracle: every maintenance strategy vs. recompute.

One scenario is replayed once per :class:`OracleConfig` — interpreted
vs. compiled plans, Section 5.2 view-side vs. Section 5.3 base-table
secondary deltas (plus the combined and cost-based auto variants),
foreign-key shortcuts on and off, and serial vs. parallel scheduling
with a write-ahead log.  After **every** update the oracle checks

* each materialized view against a full recompute of its definition
  (the paper's Theorem 1 contract);
* the base tables against a reference replay (catches rollback bugs);
* the per-update outcome (ok / error type) against the reference
  (catches asymmetric constraint handling);
* that no view was quarantined (a quarantine in a clean run means a
  maintainer raised);

and, for WAL-enabled configs, that a flush leaves no entry pending
(durability) and that a simulated crash — acknowledgements dropped via
the ``wal.ack`` failpoint, base tables rolled back to the last flush
snapshot — converges to the reference state through
:meth:`Warehouse.recover`.  A transient-fault config arms the
``scheduler.task`` failpoint each step and expects the retry path to
absorb it.

The durability configs go further.  ``checkpoint-wal`` checkpoints
after every op and restarts the warehouse at generated ``crash`` ops, so
checkpoint + suffix-replay recovery runs *inside* the differential loop.
``crash-checkpoint`` and ``crash-compaction`` kill the process inside
:meth:`CheckpointManager.write` (the atomic-rename window, and the
window between a durable new restore point and the pruning of the old
lineage) and inside segment deletion (``wal.compact.unlink``) and
require the restart to self-heal and converge.  The ``corrupt-torn`` /
``corrupt-bitflip`` configs byte-mangle the closed log deterministically
(seeded from the scenario itself) and require :meth:`Warehouse.recover`
to quarantine the damage, never raise, and leave every view
recompute-equal over whatever history survived; then they damage one
checkpoint file — a base or a delta — and require recovery to fall back
to the restore point before it and still reach the reference state, or
to refuse with a typed error when the WAL no longer reaches back that
far.  Each of these five stages its crash on top of a checkpoint
*lineage* (:func:`_grow_lineage`: at least two delta files, one
compaction, a delta newest), and :attr:`CaseResult.exercised` says so.

The ``chaos-*`` configs point the same differential machinery at
*partial* failure.  ``chaos-shard`` replays the stream through a
sharded warehouse while deterministically (seeded from the scenario)
killing, stalling or tearing the reply pipe of individual shard
workers mid-stream; it requires every faulted call to fail within the
per-call deadline (no hangs), the supervisor to reincarnate the shard,
and the post-havoc merged state to stay *internally* consistent —
every merged view equal to a recompute over the merged database.
(Lost or compensated ops legitimately diverge from the reference
stream, so the reference-state check is deliberately absent.)
``chaos-2pc`` drives every generated transaction through a coordinator
crash — before the decision record, after it, or mid-commit-broadcast
— then requires ``recover()`` to land all shards on the same outcome:
presumed abort without a durable decision, commit with one.  Its
reference replay applies exactly the transactions the decision log
says survived, so base state *is* checked.

The ``serving`` config exercises the MVCC read path: after every op it
takes a :meth:`Warehouse.snapshot` and requires (a) the snapshot's base
tables to equal the reference replay's state at that step, and (b) every
non-stale view in the snapshot to equal a full recompute of its
definition over the snapshot's *own* base tables — i.e. each published
epoch is internally consistent at its LSN, never a torn batch.

Because every config is checked against recompute on an identical update
stream, agreement with the oracle implies pairwise agreement of all
strategy pairs; a final explicit cross-config comparison is kept anyway
as a belt-and-braces differential check.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.maintain import (
    MaintenanceOptions,
    SECONDARY_AUTO,
    SECONDARY_COMBINED,
    SECONDARY_FROM_BASE,
    SECONDARY_FROM_VIEW,
)
from ..errors import CheckpointError, ReproError
from ..runtime import FAILPOINTS, InjectedFault, RetryPolicy
from ..warehouse import Warehouse
from .generator import Scenario

__all__ = [
    "Mismatch",
    "CaseResult",
    "OracleConfig",
    "default_matrix",
    "config_names",
    "configs_by_name",
    "run_case",
    "apply_op",
    "consistency_mismatches",
    "view_divergence",
]


# ---------------------------------------------------------------------------
# findings
# ---------------------------------------------------------------------------
@dataclass
class Mismatch:
    """One oracle violation: which config, where in the stream, what."""

    config: str
    step: str  # "op[3]", "flush", "recovery", "final"
    kind: str  # view-divergence | db-divergence | outcome | quarantine
    #          | durability | cross-config | snapshot-divergence
    #          | chaos-divergence | harness-error
    view: Optional[str] = None
    detail: str = ""

    def __str__(self) -> str:
        where = f" view={self.view}" if self.view else ""
        return (
            f"[{self.config}] {self.step} {self.kind}{where}: {self.detail}"
        )


@dataclass
class CaseResult:
    """Everything the oracle observed for one scenario."""

    mismatches: List[Mismatch] = field(default_factory=list)
    configs_run: List[str] = field(default_factory=list)
    #: config -> how often the run went through a mechanism worth
    #: knowing was exercised: ``delta_checkpoints``, ``compactions``,
    #: ``overlay_folds``
    exercised: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def count(self, config: str, what: str, times: int = 1) -> None:
        counters = self.exercised.setdefault(config, {})
        counters[what] = counters.get(what, 0) + times

    def add(
        self,
        config: str,
        step: str,
        kind: str,
        detail: str,
        view: Optional[str] = None,
    ) -> None:
        self.mismatches.append(Mismatch(config, step, kind, view, detail))

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def failing_configs(self) -> List[str]:
        return sorted({m.config for m in self.mismatches})

    @property
    def kinds(self) -> List[str]:
        return sorted({m.kind for m in self.mismatches})

    def summary(self, limit: int = 8) -> str:
        if self.ok:
            return f"ok ({len(self.configs_run)} configs)"
        lines = [str(m) for m in self.mismatches[:limit]]
        if len(self.mismatches) > limit:
            lines.append(f"... and {len(self.mismatches) - limit} more")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the strategy matrix
# ---------------------------------------------------------------------------
@dataclass
class OracleConfig:
    """One way of running the maintenance machinery end to end."""

    name: str
    options: Callable[[], MaintenanceOptions]
    workers: int = 0
    wal: bool = False
    retry: Optional[RetryPolicy] = None
    crash_check: bool = False
    inject_transient: bool = False
    checkpoint_every: Optional[int] = None  # ops between checkpoints
    segment_bytes: Optional[int] = None  # tiny values force rotation
    crash_checkpoint: bool = False  # die inside CheckpointManager.write
    crash_compaction: bool = False  # die inside segment deletion
    corruption: Optional[str] = None  # "torn" | "bitflip"
    snapshot_reads: bool = False  # MVCC snapshot queries vs recompute
    shards: int = 0  # > 0: run through a ShardedWarehouse (thread backend)
    chaos: Optional[str] = None  # "shard" (kill/stall/drop workers)
    #                            | "2pc" (coordinator crash windows)


def _opts(**kwargs) -> Callable[[], MaintenanceOptions]:
    return lambda: MaintenanceOptions(**kwargs)


_FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay_seconds=0.0, max_delay_seconds=0.0
)


def default_matrix() -> List[OracleConfig]:
    """The full strategy matrix (fresh instances, safe to mutate)."""
    return [
        OracleConfig(
            "interpreted-view",
            _opts(
                use_plan_cache=False,
                secondary_strategy=SECONDARY_FROM_VIEW,
            ),
        ),
        OracleConfig(
            "compiled-view",
            _opts(
                use_plan_cache=True, secondary_strategy=SECONDARY_FROM_VIEW
            ),
        ),
        OracleConfig(
            "interpreted-base",
            _opts(
                use_plan_cache=False,
                secondary_strategy=SECONDARY_FROM_BASE,
            ),
        ),
        OracleConfig(
            "compiled-base",
            _opts(
                use_plan_cache=True, secondary_strategy=SECONDARY_FROM_BASE
            ),
        ),
        OracleConfig(
            "combined", _opts(secondary_strategy=SECONDARY_COMBINED)
        ),
        OracleConfig("auto", _opts(secondary_strategy=SECONDARY_AUTO)),
        OracleConfig(
            "no-fk",
            _opts(
                use_fk_simplify=False,
                use_fk_graph_reduction=False,
                use_fk_normal_form=False,
            ),
        ),
        OracleConfig(
            "serial-wal",
            _opts(),
            wal=True,
            crash_check=True,
        ),
        OracleConfig(
            "parallel-wal",
            _opts(),
            workers=2,
            wal=True,
            retry=_FAST_RETRY,
            crash_check=True,
        ),
        OracleConfig(
            "retry-transient",
            _opts(),
            workers=2,
            retry=_FAST_RETRY,
            inject_transient=True,
        ),
        OracleConfig(
            "checkpoint-wal",
            _opts(),
            wal=True,
            crash_check=True,
            checkpoint_every=1,
        ),
        OracleConfig(
            "crash-checkpoint",
            _opts(),
            wal=True,
            checkpoint_every=1,
            crash_checkpoint=True,
        ),
        OracleConfig(
            "crash-compaction",
            _opts(),
            wal=True,
            checkpoint_every=1,
            segment_bytes=128,
            crash_compaction=True,
        ),
        OracleConfig(
            "corrupt-torn",
            _opts(),
            wal=True,
            checkpoint_every=1,
            corruption="torn",
        ),
        OracleConfig(
            "corrupt-bitflip",
            _opts(),
            wal=True,
            checkpoint_every=1,
            segment_bytes=128,
            corruption="bitflip",
        ),
        OracleConfig(
            "serving",
            _opts(),
            workers=2,
            wal=True,
            retry=_FAST_RETRY,
            snapshot_reads=True,
        ),
        OracleConfig(
            "sharded",
            _opts(),
            shards=2,
        ),
        OracleConfig(
            "sharded-wal",
            _opts(),
            wal=True,
            shards=2,
            checkpoint_every=2,
        ),
        OracleConfig(
            "chaos-shard",
            _opts(),
            wal=True,
            shards=2,
            checkpoint_every=2,
            chaos="shard",
        ),
        OracleConfig(
            "chaos-2pc",
            _opts(),
            wal=True,
            shards=2,
            chaos="2pc",
        ),
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


# ---------------------------------------------------------------------------
# stream replay
# ---------------------------------------------------------------------------
def apply_op(wh: Warehouse, op: Dict) -> str:
    """Apply one scenario op; returns ``"ok"`` or the error type name.
    Symmetric across configs: every config (and the view-less reference)
    replays ops through exactly this function.  A ``crash`` op is a
    no-op here — it only means something to the WAL-enabled replay loop
    (:func:`_run_config` restarts the warehouse), so the reference and
    WAL-less configs sail through it."""
    try:
        if op["kind"] == "crash":
            return "ok"
        if op["kind"] == "insert":
            wh.insert(op["table"], op["rows"])
        elif op["kind"] == "delete":
            wh.delete(op["table"], op["rows"])
        elif op["kind"] == "txn":
            with wh.transaction() as txn:
                for st in op["statements"]:
                    if st["kind"] == "insert":
                        txn.insert(st["table"], st["rows"])
                    else:
                        txn.delete(st["table"], st["rows"])
        else:  # pragma: no cover - corrupt corpus entry
            raise ValueError(f"unknown op kind {op['kind']!r}")
        return "ok"
    except ReproError as exc:
        return type(exc).__name__


def _table_state(wh: Warehouse, db=None) -> Dict[str, frozenset]:
    """Settled base-table contents, through the facade (so the same
    call reads a local warehouse's tables or a sharded one's merged
    partitions)."""
    db = wh.merged_database() if db is None else db
    return {name: frozenset(table.rows) for name, table in db.tables.items()}


def _diverged(state: Dict[str, frozenset], expected: Dict) -> List[str]:
    """The tables whose contents differ between two table states."""
    return sorted(n for n in state if state[n] != expected.get(n))


def _check_outcome(
    result: "CaseResult", config: str, step: str, op: Dict, got: str, want: str
) -> None:
    if got != want:
        result.add(
            config, step, "outcome",
            f"{got!r} != reference {want!r} for {op['kind']} on "
            f"{op.get('table', '(txn)')!r}",
        )


def _drop_process(wh: Warehouse) -> None:
    """The end of a simulated crash (or of a check): no flush, no acks —
    stop the threads and let go of the log files."""
    wh.scheduler.shutdown()
    wh.wal.close()


class _Reference:
    """The view-free reference replay: expected op outcomes and expected
    base-table state after every step."""

    def __init__(self, scenario: Scenario):
        self.outcomes: List[str] = []
        self.states: List[Dict[str, frozenset]] = []
        wh = Warehouse(scenario.build_database())
        for op in scenario.ops:
            self.outcomes.append(apply_op(wh, op))
            self.states.append(_table_state(wh))
        self.final_state = _table_state(wh)
        wh.close()


# ---------------------------------------------------------------------------
# consistency helpers (shared with the test suite)
# ---------------------------------------------------------------------------
def view_divergence(
    wh: Warehouse, name: str, recompute_db=None
) -> Optional[str]:
    """How the maintained view differs from a full recompute (``None``
    when identical) — the per-view recompute oracle.  Both sides are
    read through the facade, so *wh* may be local or sharded (merged
    view vs recompute over the merged database)."""
    if recompute_db is None:
        recompute_db = wh.merged_database()
    expected = wh.definition(name).evaluate(recompute_db).rows
    return _row_diff(frozenset(expected), frozenset(wh.view_rows(name)))


def _row_diff(expected: frozenset, actual: frozenset) -> Optional[str]:
    if actual == expected:
        return None
    missing = sorted(expected - actual)[:3]
    extra = sorted(actual - expected)[:3]
    return (
        f"{len(expected - actual)} missing (e.g. {missing}), "
        f"{len(actual - expected)} extra (e.g. {extra})"
    )


def consistency_mismatches(
    wh: Warehouse, config: str = "warehouse", step: str = "check"
) -> List[Mismatch]:
    """Recompute-oracle check of every non-quarantined view (the helper
    the repair/quarantine tests assert with)."""
    quarantined = wh.quarantined_views
    recompute_db = wh.merged_database()
    found: List[Mismatch] = []
    for name in wh.view_names:
        if name in quarantined:
            continue
        diff = view_divergence(wh, name, recompute_db)
        if diff is not None:
            found.append(
                Mismatch(config, step, "view-divergence", name, diff)
            )
    return found


# ---------------------------------------------------------------------------
# per-config execution
# ---------------------------------------------------------------------------
def run_case(
    scenario: Scenario,
    configs: Optional[List[OracleConfig]] = None,
) -> CaseResult:
    """Replay *scenario* under every config and collect all mismatches."""
    configs = default_matrix() if configs is None else configs
    result = CaseResult()
    reference = _Reference(scenario)
    final_views: Dict[str, Dict[str, frozenset]] = {}
    for config in configs:
        result.configs_run.append(config.name)
        runner = _run_chaos_config if config.chaos else _run_config
        try:
            views = runner(scenario, config, reference, result)
            if views is not None:
                final_views[config.name] = views
        except Exception as exc:  # harness bug or unexpected blow-up
            result.add(
                config.name, "run", "harness-error",
                f"{type(exc).__name__}: {exc}",
            )
        extra_checks = [
            (config.crash_check, _run_crash_check),
            (config.crash_checkpoint, _run_crash_checkpoint_check),
            (config.crash_compaction, _run_crash_compaction_check),
            (bool(config.corruption), _run_corruption_check),
            (bool(config.corruption), _run_checkpoint_corruption_check),
        ]
        for enabled, check in extra_checks:
            if not enabled:
                continue
            try:
                check(scenario, config, reference, result)
            except Exception as exc:
                result.add(
                    config.name, "recovery", "harness-error",
                    f"{type(exc).__name__}: {exc}",
                )
    _cross_config_check(final_views, result)
    return result


def _warehouse_kwargs(
    config: OracleConfig,
    wal_path: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
) -> Dict:
    kwargs: Dict = {"workers": config.workers, "retry": config.retry}
    if config.shards:
        # thread-backend workers: deterministic, and they share this
        # process's FAILPOINTS, so fault-injection configs compose
        kwargs.update(shards=config.shards, shard_backend="thread")
    if wal_path:
        kwargs["wal_path"] = wal_path
    if checkpoint_dir:
        kwargs["checkpoint_dir"] = checkpoint_dir
    if config.segment_bytes:
        kwargs["segment_bytes"] = config.segment_bytes
    return kwargs


def _open(db, scenario: Scenario, config: OracleConfig, **kwargs) -> Warehouse:
    """A warehouse over *db* with the scenario's views registered under
    the config's maintenance options."""
    wh = Warehouse(db, **kwargs)
    for defn in scenario.view_definitions(wh.db):
        wh.create_view(defn.name, defn, options=config.options())
    return wh


def _check_step(
    wh: Warehouse,
    config: OracleConfig,
    step: str,
    expected_state: Dict[str, frozenset],
    result: CaseResult,
) -> None:
    """After every op, through the facade's settled-state readers:

    * the base tables must equal the reference replay's state
      (``db-divergence``; for a sharded config the union of the
      per-shard partitions vs the *unsharded* reference —
      ``shard-vs-unsharded``);
    * no view may have been quarantined (``quarantine``);
    * every view must equal a recompute over those base tables
      (``view-divergence``; sharded: the merged view vs a recompute over
      the merged database, the merge-barrier oracle —
      ``shard-vs-recompute``).
    """
    table_kind, view_kind = (
        ("shard-vs-unsharded", "shard-vs-recompute")
        if config.shards
        else ("db-divergence", "view-divergence")
    )
    recompute_db = wh.merged_database()
    state = _table_state(wh, recompute_db)
    if state != expected_state:
        result.add(
            config.name, step, table_kind,
            f"base table(s) {_diverged(state, expected_state)} differ "
            "from the (unsharded) reference replay",
        )
    quarantined = wh.quarantined_views
    if quarantined:
        result.add(
            config.name, step, "quarantine",
            "view(s) quarantined during a clean run (reasons are in "
            "the flight recorder / shard_stats())",
            view=",".join(quarantined),
        )
    for name in wh.view_names:
        if name in quarantined:
            continue
        diff = view_divergence(wh, name, recompute_db)
        if diff is not None:
            result.add(config.name, step, view_kind, diff, view=name)


def _check_snapshot(
    wh: Warehouse,
    config: OracleConfig,
    step: str,
    expected_state: Dict[str, frozenset],
    result: CaseResult,
) -> None:
    """The serving oracle: the latest published snapshot must equal the
    reference replay's state at this step, and every non-stale view in
    it must equal a recompute over the snapshot's own base tables.

    The caller has already drained (``_check_step``), so the newest
    snapshot corresponds to the just-applied op — or, when the op
    failed, to the unchanged/rolled-back state, which the reference
    reached the same way.
    """
    snapshot = wh.snapshot()
    if not snapshot.valid:
        result.add(
            config.name, step, "snapshot-divergence",
            f"latest snapshot invalid ({snapshot.invalid_reason}) "
            "outside recovery",
        )
        return
    snap_state = {
        name: frozenset(slice_.rows)
        for name, slice_ in snapshot.tables.items()
    }
    if snap_state != expected_state:
        result.add(
            config.name, step, "snapshot-divergence",
            "snapshot base table(s) "
            f"{_diverged(snap_state, expected_state)} (lsn "
            f"{snapshot.lsn}) differ from the reference replay",
        )
    recompute_db = snapshot.build_database()
    for name in snapshot.view_names:
        if name in snapshot.stale_views:
            continue
        diff = _row_diff(
            frozenset(wh.definition(name).evaluate(recompute_db).rows),
            frozenset(snapshot.view_rows(name)),
        )
        if diff is not None:
            result.add(
                config.name, step, "snapshot-divergence",
                f"snapshot view differs from recompute at lsn "
                f"{snapshot.lsn}: {diff}",
                view=name,
            )


def _restart(wh: Warehouse, config: OracleConfig, make):
    """A ``crash`` op under WAL: restart at a durability boundary —
    flush (acks on disk), drop the process, reopen over the same
    directories and recover.  With checkpoints this resets the database
    to the last checkpoint and rolls it forward through the suffix.  A
    sharded warehouse restarts its workers in place, each over its own
    WAL/checkpoint lineage."""
    if config.shards:
        wh.crash_restart()
        return wh
    wh.flush()
    _drop_process(wh)
    fresh = make(wh.db)
    fresh.recover()
    return fresh


def _checkpoint(wh: Warehouse, config: OracleConfig, result: CaseResult) -> bool:
    """One checkpoint of a local warehouse; True when it wrote a delta."""
    path = wh.checkpoint()
    delta = isinstance(path, str) and path.endswith(".delta.json")
    if delta:
        result.count(config.name, "delta_checkpoints")
    return delta


_LINEAGE_ROUNDS = 12  # churn rounds before giving up on a compaction


def _churn_table(wh: Warehouse) -> Optional[Tuple[str, List]]:
    """The biggest base table whose rows can all be deleted right now
    (nothing references them), with those rows — or None."""
    tables = wh.merged_database().tables
    for name in sorted(tables, key=lambda n: -len(tables[n].rows)):
        rows = list(tables[name].rows)
        if not rows:
            return None
        try:
            wh.delete(name, rows)
        except ReproError:
            continue  # still referenced: nothing changed
        wh.insert(name, rows)
        return name, rows
    return None


def _grow_lineage(
    wh: Warehouse, config: OracleConfig, result: CaseResult
) -> None:
    """Checkpoint a settled warehouse until it has written two deltas,
    compacted them into a new base, and written a delta on top of that —
    so whatever restores next rolls a base forward through a chain.

    Between checkpoints one table is emptied and refilled, so the deltas
    carry real ±rows for it and every view over it while the state (and
    the reference replay) stay where they were.  The journals stay whole
    throughout, so every base after the first call is a compaction.  A
    database with nothing deletable only gets empty deltas, which may
    never add up to one."""
    churn = _churn_table(wh)
    emptied = False
    deltas = compactions = 0
    for attempt in range(2 * _LINEAGE_ROUNDS):
        delta = _checkpoint(wh, config, result)
        deltas += delta
        if attempt and not delta:
            compactions += 1
            result.count(config.name, "compactions")
        if deltas >= 2 and compactions and delta:
            break
        if churn:  # alternate: all of it gone, all of it back
            (wh.insert if emptied else wh.delete)(*churn)
            emptied = not emptied
    if emptied:
        wh.insert(*churn)


def _pending_wal(wh: Warehouse, config: OracleConfig) -> str:
    """What the WAL(s) still hold unacknowledged ("" when nothing)."""
    if config.shards:
        pending = {
            shard: info["wal_pending"]
            for shard, info in wh.shard_stats()["shards"].items()
            if info["wal_pending"]
        }
        return f"per shard: {pending}" if pending else ""
    lsns = [entry.lsn for entry in wh.wal.pending()]
    return f"{len(lsns)} entr(ies), lsns {lsns[:5]}" if lsns else ""


def _run_config(
    scenario: Scenario,
    config: OracleConfig,
    reference: _Reference,
    result: CaseResult,
) -> Optional[Dict[str, frozenset]]:
    """Replay the scenario through one warehouse — local or sharded, the
    loop only speaks the shared facade — checking every step."""
    before = len(result.mismatches)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        wal_path = (
            os.path.join(tmp, f"{config.name}.wal") if config.wal else None
        )
        checkpoint_dir = (
            os.path.join(tmp, "checkpoints")
            if config.checkpoint_every
            else None
        )

        def make_warehouse(db):
            return _open(
                db, scenario, config,
                **_warehouse_kwargs(config, wal_path, checkpoint_dir),
            )

        wh = make_warehouse(scenario.build_database())
        try:
            if config.inject_transient:
                # every maintenance task fails its *first* attempt; the
                # retry loop must absorb all of them without quarantine
                FAILPOINTS.arm(
                    "scheduler.task", action="raise", times=None, attempt=1
                )
            since_checkpoint = 0
            for i, op in enumerate(scenario.ops):
                step = f"op[{i}]"
                if op["kind"] == "crash" and config.wal:
                    if config.snapshot_reads:
                        result.count(
                            config.name,
                            "overlay_folds",
                            wh.snapshots.overlay_folds,
                        )
                    wh = _restart(wh, config, make_warehouse)
                else:
                    _check_outcome(
                        result, config.name, step, op,
                        apply_op(wh, op), reference.outcomes[i],
                    )
                _check_step(wh, config, step, reference.states[i], result)
                if config.snapshot_reads:
                    _check_snapshot(
                        wh, config, step, reference.states[i], result
                    )
                if config.checkpoint_every and op["kind"] != "crash":
                    since_checkpoint += 1
                    if since_checkpoint >= config.checkpoint_every:
                        _checkpoint(wh, config, result)
                        since_checkpoint = 0
            if config.snapshot_reads:
                result.count(
                    config.name, "overlay_folds", wh.snapshots.overlay_folds
                )
            if config.wal:
                try:
                    wh.flush()
                except ReproError as exc:
                    result.add(
                        config.name, "flush", "quarantine",
                        "flush surfaced a maintenance failure: "
                        f"{type(exc).__name__}: {exc}",
                    )
                pending = _pending_wal(wh, config)
                if pending:
                    result.add(
                        config.name, "flush", "durability",
                        f"WAL still pending after flush ({pending})",
                    )
            return {
                name: frozenset(wh.view_rows(name))
                for name in wh.view_names
            }
        finally:
            if config.inject_transient:
                FAILPOINTS.disarm("scheduler.task")
            if len(result.mismatches) > before and wal_path:
                _export_artifacts(config.name, wal_path)
            wh.close()


# ---------------------------------------------------------------------------
# chaos: partial failure under the differential oracle
# ---------------------------------------------------------------------------
_CHAOS_STALL = 1.3  # stall long enough to blow both deadlines
# failpoint -> how it is armed: die before the command runs, sleep
# through the deadlines, or run the command but lose its reply
_CHAOS_FAULTS = {
    "shard.worker.kill": {"action": "raise"},
    "shard.worker.stall": {
        "action": "call",
        "callback": lambda **_ctx: time.sleep(_CHAOS_STALL),
    },
    "shard.pipe.drop": {"action": "skip"},
}
_COORDINATOR_FAILPOINTS = (
    "txn.coordinator.prepared",
    "txn.coordinator.decided",
    "txn.coordinator.commit",
)
_CHAOS_DEADLINE = 0.6  # facade per-call deadline during chaos replay
_CHAOS_PROBE = 0.3  # supervisor liveness-probe timeout
_CHAOS_INJECTIONS = 3  # faults per scenario (fewer if the stream is short)
_CHAOS_SETTLE = 30.0  # max seconds to wait for reincarnation


def _all_shards_up(wh) -> bool:
    # quiesced first: a just-detected death may not have flipped the
    # per-shard state yet, and "all up" must mean *settled*, not
    # "the revive has not registered"
    if not wh.supervisor.quiesced:
        return False
    status = wh.supervisor.status()
    if not status or any(s["state"] != "up" for s in status.values()):
        return False
    return all(
        h.is_alive() and not getattr(h, "_closed", False)
        for h in wh._handles
    )


def _wait_all_up(wh, timeout: float = _CHAOS_SETTLE) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _all_shards_up(wh):
            return True
        time.sleep(0.02)
    return False


def _run_chaos_config(
    scenario: Scenario,
    config: OracleConfig,
    reference: _Reference,
    result: CaseResult,
) -> None:
    if config.chaos == "shard":
        _run_chaos_shard(scenario, config, result)
    elif config.chaos == "2pc":
        _run_chaos_2pc(scenario, config, result)
    else:  # pragma: no cover - config typo
        raise ValueError(f"unknown chaos mode {config.chaos!r}")


def _make_chaos_warehouse(scenario: Scenario, config: OracleConfig, tmp):
    return _open(
        scenario.build_database(),
        scenario,
        config,
        call_deadline_seconds=_CHAOS_DEADLINE,
        probe_timeout_seconds=_CHAOS_PROBE,
        restart_budget=50,  # havoc is intentional; don't quarantine
        restart_window_seconds=60.0,
        **_warehouse_kwargs(
            config,
            os.path.join(tmp, "wal"),
            os.path.join(tmp, "checkpoints")
            if config.checkpoint_every
            else None,
        ),
    )


def _run_chaos_shard(
    scenario: Scenario, config: OracleConfig, result: CaseResult
) -> None:
    """Kill-9 havoc under the oracle: deterministically (seeded from the
    scenario) kill, stall or tear the pipe of shard workers mid-stream.
    Checks: every faulted call fails within the deadline instead of
    hanging, the supervisor brings every shard back, and the post-havoc
    merged state is internally consistent (``check_consistency``:
    per-shard recompute, replicated-table identity, merged views ==
    recompute over the merged database).  The reference-state check is
    deliberately absent — faulted ops are legitimately lost or
    compensated."""
    rng = random.Random(
        zlib.crc32(scenario.to_json().encode("utf-8")) ^ 0x5EED
    )
    ops = scenario.ops
    eligible = [i for i, op in enumerate(ops) if op["kind"] != "crash"]
    count = min(_CHAOS_INJECTIONS, len(eligible))
    chosen = sorted(rng.sample(eligible, count)) if count else []
    plan = {
        index: (
            list(_CHAOS_FAULTS)[n % len(_CHAOS_FAULTS)],
            rng.randrange(config.shards),
        )
        for n, index in enumerate(chosen)
    }
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-chaos-") as tmp:
        wh = _make_chaos_warehouse(scenario, config, tmp)
        try:
            since_checkpoint = 0
            for i, op in enumerate(ops):
                step = f"op[{i}]"
                fault = plan.get(i)
                if fault is not None:
                    name, shard = fault
                    FAILPOINTS.arm(
                        name, times=1, shard=shard, **_CHAOS_FAULTS[name]
                    )
                fired_before = (
                    FAILPOINTS.fired(fault[0]) if fault else 0
                )
                started = time.monotonic()
                if op["kind"] == "crash":
                    # all shards are up here (crash ops are never fault
                    # targets), so the orderly restart path is safe
                    wh.crash_restart()
                else:
                    apply_op(wh, op)  # outcome legitimately diverges
                elapsed = time.monotonic() - started
                if fault is not None:
                    for fp_name in _CHAOS_FAULTS:
                        FAILPOINTS.disarm(fp_name)
                    if FAILPOINTS.fired(fault[0]) == fired_before:
                        continue  # op never touched the target shard
                    # no-hang contract: the op must resolve within the
                    # deadline plus scheduling slack, never block on the
                    # dead worker's 30s default
                    if elapsed > _CHAOS_STALL + 5.0:
                        result.add(
                            config.name, step, "chaos-divergence",
                            f"op blocked {elapsed:.1f}s on faulted "
                            f"shard {fault[1]} ({fault[0]}) instead "
                            "of failing within the deadline",
                        )
                    if not _wait_all_up(wh):
                        result.add(
                            config.name, step, "chaos-divergence",
                            f"shard {fault[1]} never reincarnated "
                            f"after {fault[0]}: "
                            f"{wh.supervisor.status()}",
                        )
                        return
                    continue
                if config.checkpoint_every and op["kind"] != "crash":
                    since_checkpoint += 1
                    if since_checkpoint >= config.checkpoint_every:
                        try:
                            wh.checkpoint()
                        except ReproError:
                            pass  # a straggler fault; settle below
                        since_checkpoint = 0
            # settle, then hold the survivors to the consistency oracle
            if not _wait_all_up(wh):
                result.add(
                    config.name, "final", "chaos-divergence",
                    "shards still down after the stream: "
                    f"{wh.supervisor.status()}",
                )
                return
            try:
                wh.flush()
            except ReproError:
                pass  # failures were already compensated per ticket
            try:
                wh.check_consistency()
            except ReproError as exc:
                result.add(
                    config.name, "final", "chaos-divergence",
                    "post-havoc state inconsistent: "
                    f"{type(exc).__name__}: {exc}",
                )
        finally:
            for fp_name in _CHAOS_FAULTS:
                FAILPOINTS.disarm(fp_name)
            wh.close()


def _drive_2pc(wh, op: Dict, failpoint: str) -> str:
    """Run one generated transaction into a coordinator crash at
    *failpoint*, then recover.  Returns the resolved outcome:
    ``"commit"``, ``"abort"`` (a real constraint failure), or
    ``"forced-abort"`` (the injected pre-decision crash)."""
    txn = wh.transaction()
    txn.__enter__()
    try:
        for st in op["statements"]:
            apply = txn.insert if st["kind"] == "insert" else txn.delete
            apply(st["table"], st["rows"])
    except ReproError:
        txn._rollback()
        return "abort"
    match = (
        {"shard": wh.shards - 1}
        if failpoint == "txn.coordinator.commit"
        else {}
    )
    FAILPOINTS.arm(
        failpoint, action="raise", times=1, txn=txn.txn_id, **match
    )
    try:
        txn._commit()
        return "commit"  # e.g. commit-failpoint with a 1-shard facade
    except InjectedFault:
        # the coordinator "dies" here; recover() must resolve the
        # in-doubt transaction from the decision log (presumed abort
        # before the record, commit after)
        wh.recover()
        return (
            "forced-abort"
            if failpoint == "txn.coordinator.prepared"
            else "commit"
        )
    except ReproError:
        txn._rollback()
        return "abort"
    finally:
        FAILPOINTS.disarm(failpoint)


def _run_chaos_2pc(
    scenario: Scenario, config: OracleConfig, result: CaseResult
) -> None:
    """Every generated transaction is driven through a coordinator
    crash, cycling the three windows (after prepare, after the durable
    decision, mid-commit-broadcast).  The inline reference replay
    applies exactly the transactions the decision log committed, so the
    merged base state is checked op by op — all shards must land on the
    same side of every transaction."""
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-2pc-") as tmp:
        wh = _make_chaos_warehouse(scenario, config, tmp)
        ref = Warehouse(scenario.build_database())
        txn_count = 0
        try:
            for i, op in enumerate(ops := scenario.ops):
                step = f"op[{i}]"
                if op["kind"] == "crash":
                    continue
                if op["kind"] == "txn":
                    failpoint = _COORDINATOR_FAILPOINTS[
                        txn_count % len(_COORDINATOR_FAILPOINTS)
                    ]
                    txn_count += 1
                    outcome = _drive_2pc(wh, op, failpoint)
                    if outcome != "forced-abort":
                        # mirror the surviving outcome; a natural abort
                        # must abort in the reference replay too
                        ref_outcome = apply_op(ref, op)
                        if (outcome == "commit") != (ref_outcome == "ok"):
                            result.add(
                                config.name, step, "outcome",
                                f"2PC resolved {outcome!r} but the "
                                "reference replay said "
                                f"{ref_outcome!r}",
                            )
                else:
                    _check_outcome(
                        result, config.name, step, op,
                        apply_op(wh, op), apply_op(ref, op),
                    )
                state = _table_state(wh)
                expected = _table_state(ref)
                if state != expected:
                    result.add(
                        config.name, step, "chaos-divergence",
                        f"merged base table(s) "
                        f"{_diverged(state, expected)} differ "
                        "from the decision-log reference replay",
                    )
                    return
            pending = wh.txnlog.pending()
            if pending:
                result.add(
                    config.name, "final", "durability",
                    f"{len(pending)} coordinator decision(s) still "
                    "pending after every transaction resolved: "
                    f"{[r.txn_id for r in pending]}",
                )
            try:
                wh.check_consistency()
            except ReproError as exc:
                result.add(
                    config.name, "final", "chaos-divergence",
                    "post-2PC state inconsistent: "
                    f"{type(exc).__name__}: {exc}",
                )
        finally:
            for fp_name in _COORDINATOR_FAILPOINTS:
                FAILPOINTS.disarm(fp_name)
            ref.close()
            wh.close()


def _check_recovered(
    restarted: Warehouse,
    config: OracleConfig,
    reference: _Reference,
    result: CaseResult,
    when: str,
) -> None:
    """What every staged crash must recover to: base tables equal to
    the reference replay's final state, every view equal to its
    recompute."""
    state = _table_state(restarted)
    if state != reference.final_state:
        result.add(
            config.name, "recovery", "db-divergence",
            f"{when}, recovered base table(s) "
            f"{_diverged(state, reference.final_state)} differ from "
            "the reference replay",
        )
    result.mismatches.extend(
        consistency_mismatches(restarted, config.name, "recovery")
    )


def _run_crash_check(
    scenario: Scenario,
    config: OracleConfig,
    reference: _Reference,
    result: CaseResult,
) -> None:
    """Crash after the WAL records a suffix of the stream but before any
    of its acknowledgements: restart from the flush-boundary snapshot
    and require recovery to converge to the reference state."""
    ops = scenario.ops
    if not ops:
        return
    crash_at = len(ops) // 2
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-crash-") as tmp:
        wal_path = os.path.join(tmp, "crash.wal")
        checkpoint_dir = (
            os.path.join(tmp, "checkpoints")
            if config.checkpoint_every
            else None
        )
        kwargs = _warehouse_kwargs(config, wal_path, checkpoint_dir)
        wh = _open(scenario.build_database(), scenario, config, **kwargs)
        for op in ops[:crash_at]:
            apply_op(wh, op)
        if checkpoint_dir:
            # durable boundary: a base, its deltas, the WAL compacted
            # behind the restore point before the newest
            _grow_lineage(wh, config, result)
        else:
            wh.flush()  # durable boundary: everything so far is acked
        snapshot = wh.db.copy()
        with FAILPOINTS.armed("wal.ack", action="skip", times=None):
            for op in ops[crash_at:]:
                apply_op(wh, op)
            wh.scheduler.drain()
            wh.wal.sync()
            _drop_process(wh)

        restarted = _open(snapshot, scenario, config, **kwargs)
        try:
            recovered = restarted.recover()
            for fan_out in recovered:
                if fan_out.error is not None or fan_out.failures:
                    result.add(
                        config.name, "recovery", "view-divergence",
                        "recovery fan-out failed: "
                        f"{fan_out.error or fan_out.failures}",
                        view=",".join(sorted(fan_out.failures)) or None,
                    )
            if restarted.wal.pending():
                result.add(
                    config.name, "recovery", "durability",
                    "recovery left WAL entries pending",
                )
            _check_recovered(
                restarted, config, reference, result, "after a lost-ack crash"
            )
        finally:
            _drop_process(restarted)


def _replayable_ops(scenario: Scenario) -> List[Dict]:
    """The scenario's ops minus ``crash`` markers (the dedicated crash
    and corruption checks stage their own crash, at a point they
    control)."""
    return [op for op in scenario.ops if op["kind"] != "crash"]


def _run_crash_checkpoint_check(
    scenario: Scenario,
    config: OracleConfig,
    reference: _Reference,
    result: CaseResult,
) -> None:
    """Crash inside :meth:`CheckpointManager.write`, once in each of its
    two windows, on top of a lineage of a base and its deltas:

    * ``checkpoint.write`` — the payload is durable under its ``.tmp``
      name but was never renamed: the half-written checkpoint must never
      be restored, and recovery falls back to the chain before it plus a
      longer suffix replay;
    * ``checkpoint.prune`` — the new restore point is durable, the files
      it makes redundant are still there: recovery restores the new one
      and replays nothing it covers.
    """
    ops = _replayable_ops(scenario)
    if not ops:
        return
    half = max(1, len(ops) // 2)
    for site in ("checkpoint.write", "checkpoint.prune"):
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-ckpt-") as tmp:
            wal_path = os.path.join(tmp, "wal")
            checkpoint_dir = os.path.join(tmp, "checkpoints")
            kwargs = _warehouse_kwargs(config, wal_path, checkpoint_dir)
            wh = _open(scenario.build_database(), scenario, config, **kwargs)
            for op in ops[:half]:
                apply_op(wh, op)
            _grow_lineage(wh, config, result)  # published, WAL compacted
            for op in ops[half:]:
                apply_op(wh, op)
            crashed = False
            with FAILPOINTS.armed(site, action="raise"):
                try:
                    wh.checkpoint()
                except InjectedFault:
                    crashed = True
            if not crashed:
                result.add(
                    config.name, "recovery", "harness-error",
                    f"{site} failpoint never fired",
                )
            _drop_process(wh)

            restarted = _open(
                scenario.build_database(), scenario, config, **kwargs
            )
            try:
                restarted.recover()
                info = restarted.last_recovery or {}
                if crashed and info.get("checkpoint_lsn") is None:
                    result.add(
                        config.name, "recovery", "durability",
                        "no checkpoint restored although one was "
                        f"published before the crash at {site}",
                    )
                if site == "checkpoint.prune" and info.get("replayed"):
                    result.add(
                        config.name, "recovery", "durability",
                        f"{info['replayed']} entr(ies) replayed although the "
                        "crashed checkpoint was already durable",
                    )
                _check_recovered(
                    restarted, config, reference, result,
                    f"after a crash at {site}",
                )
            finally:
                _drop_process(restarted)


def _run_crash_compaction_check(
    scenario: Scenario,
    config: OracleConfig,
    reference: _Reference,
    result: CaseResult,
) -> None:
    """Crash between the durable compaction marker and segment deletion
    (``wal.compact.unlink``): the next open must self-heal the stale
    segments and recovery must converge as if compaction had finished.
    The survivor then grows a lineage (deltas, a compaction — each with
    its own WAL compaction behind it) and must recover from that too."""
    ops = _replayable_ops(scenario)
    if not ops:
        return
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-compact-") as tmp:
        wal_path = os.path.join(tmp, "wal")
        checkpoint_dir = os.path.join(tmp, "checkpoints")
        kwargs = _warehouse_kwargs(config, wal_path, checkpoint_dir)
        kwargs.setdefault("segment_bytes", 128)
        wh = _open(scenario.build_database(), scenario, config, **kwargs)
        for op in ops:
            apply_op(wh, op)
        with FAILPOINTS.armed("wal.compact.unlink", action="raise"):
            try:
                wh.checkpoint()
            except InjectedFault:
                pass  # marker durable, some covered segments left behind
        _drop_process(wh)

        for when, grow in (
            ("after a crash mid-compaction", True),
            ("from a lineage grown after a crash mid-compaction", False),
        ):
            restarted = _open(
                scenario.build_database(), scenario, config, **kwargs
            )
            try:
                restarted.recover()
                _check_recovered(restarted, config, reference, result, when)
                if grow:
                    _grow_lineage(restarted, config, result)
            finally:
                _drop_process(restarted)


def _corrupt_wal(
    wal_dir: str, mode: str, rng: random.Random
) -> Optional[str]:
    """Byte-mangle a closed WAL directory; returns a description of the
    damage, or ``None`` when the log is too small to corrupt."""
    segments = sorted(
        name
        for name in os.listdir(wal_dir)
        if name.startswith("seg-") and name.endswith(".wal")
    )
    if not segments:
        return None
    if mode == "torn":
        # an unterminated half-record after the final segment's last
        # record — the classic torn write
        path = os.path.join(wal_dir, segments[-1])
        with open(path, "ab") as handle:
            handle.write(b'deadbeef {"kind":"change","trunc')
        return f"torn tail appended to {segments[-1]}"
    if mode != "bitflip":
        raise ValueError(f"unknown corruption mode {mode!r}")
    path = os.path.join(wal_dir, segments[0])
    with open(path, "rb") as handle:
        raw = handle.read()
    line_end = raw.find(b"\n")
    if line_end <= 10:
        return None
    # flip one payload byte of the first record, past its CRC prefix
    position = 9 + rng.randrange(line_end - 9)
    _flip_byte(path, position)
    return f"flipped byte {position} of {segments[0]}"


def _flip_byte(path: str, position: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0x20]))


def _export_artifacts(config_name: str, wal_dir: str) -> None:
    """Copy the damaged log (including its ``corrupt/`` sidecar) out of
    the about-to-be-deleted tempdir so CI can upload it with the failure
    report.  Enabled by the ``REPRO_FUZZ_ARTIFACT_DIR`` env var."""
    target_root = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR")
    if not target_root or not os.path.isdir(wal_dir):
        return
    target = os.path.join(target_root, config_name)
    for root, _dirs, files in os.walk(wal_dir):
        rel = os.path.relpath(root, wal_dir)
        dest_dir = os.path.normpath(os.path.join(target, rel))
        os.makedirs(dest_dir, exist_ok=True)
        for name in files:
            shutil.copy2(
                os.path.join(root, name), os.path.join(dest_dir, name)
            )


def _run_corruption_check(
    scenario: Scenario,
    config: OracleConfig,
    reference: _Reference,
    result: CaseResult,
) -> None:
    """Mangle the closed log, then require :meth:`Warehouse.recover` to
    (a) never raise, (b) actually notice the damage, and (c) leave every
    view recompute-equal over whatever base-table history survived —
    base tables may legitimately differ from the reference once records
    are quarantined, but views must never silently diverge from *their*
    database."""
    ops = _replayable_ops(scenario)
    if not ops:
        return
    # deterministic damage: seeded by the scenario content itself so a
    # corpus replay injects byte-identical corruption
    rng = random.Random(
        zlib.crc32(scenario.to_json().encode("utf-8"))
    )
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-corrupt-") as tmp:
        wal_path = os.path.join(tmp, "wal")
        kwargs = _warehouse_kwargs(config, wal_path)
        wh = _open(scenario.build_database(), scenario, config, **kwargs)
        # drop every ack so the whole stream is replayable, then crash
        with FAILPOINTS.armed("wal.ack", action="skip", times=None):
            for op in ops:
                apply_op(wh, op)
            wh.scheduler.drain()
            wh.wal.sync()
            _drop_process(wh)
        damage = _corrupt_wal(wal_path, config.corruption, rng)
        if damage is None:
            return
        before = len(result.mismatches)
        restarted = _open(
            scenario.build_database(), scenario, config, **kwargs
        )
        try:
            try:
                restarted.recover()
            except Exception as exc:
                result.add(
                    config.name, "recovery", "corruption",
                    f"recover() raised on a corrupted log ({damage}):"
                    f" {type(exc).__name__}: {exc}",
                )
                return
            wal = restarted.wal
            if not (wal.corruption_detected or wal.torn_tail_dropped):
                result.add(
                    config.name, "recovery", "harness-error",
                    f"injected damage went undetected ({damage})",
                )
            result.mismatches.extend(
                consistency_mismatches(restarted, config.name, "recovery")
            )
        finally:
            _drop_process(restarted)
            if len(result.mismatches) > before:
                _export_artifacts(config.name, wal_path)


def _corrupt_checkpoint(
    checkpoint_dir: str, mode: str, rng: random.Random
) -> Optional[Tuple[str, bool]]:
    """Damage one checkpoint file — base or delta, newest or not — of a
    closed directory; returns a description of the damage and whether
    restore has to come across it (it sits in the newest lineage)."""
    names = sorted(
        name
        for name in os.listdir(checkpoint_dir)
        if name.startswith("ckpt-") and name.endswith(".json")
    )
    if not names:
        return None
    name = rng.choice(names)
    newest_base = max(n for n in names if not n.endswith(".delta.json"))
    in_the_way = name >= newest_base
    path = os.path.join(checkpoint_dir, name)
    size = os.path.getsize(path)
    if mode == "torn":
        with open(path, "ab") as handle:
            handle.truncate(size // 2)
        return f"{name} cut to {size // 2} of {size} bytes", in_the_way
    position = 9 + rng.randrange(size - 9)  # past the CRC prefix
    _flip_byte(path, position)
    return f"flipped byte {position} of {name}", in_the_way


def _run_checkpoint_corruption_check(
    scenario: Scenario,
    config: OracleConfig,
    reference: _Reference,
    result: CaseResult,
) -> None:
    """Damage one file of a checkpoint lineage, then recover.  The WAL is
    intact, so no history is lost: recovery must notice, fall back to the
    restore point before the damage and reach the reference state — or,
    when the WAL was already compacted past the restore point that is
    left, refuse with :class:`~repro.errors.CheckpointError`."""
    ops = _replayable_ops(scenario)
    if not ops or not config.checkpoint_every:
        return
    rng = random.Random(
        zlib.crc32(scenario.to_json().encode("utf-8")) ^ 0xC4EC
    )
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-ckpt-rot-") as tmp:
        wal_path = os.path.join(tmp, "wal")
        checkpoint_dir = os.path.join(tmp, "checkpoints")
        kwargs = _warehouse_kwargs(config, wal_path, checkpoint_dir)
        wh = _open(scenario.build_database(), scenario, config, **kwargs)
        half = max(1, len(ops) // 2)
        for op in ops[:half]:
            apply_op(wh, op)
        _grow_lineage(wh, config, result)
        for op in ops[half:]:
            apply_op(wh, op)
            _checkpoint(wh, config, result)
        wh.flush()
        _drop_process(wh)
        damaged = _corrupt_checkpoint(checkpoint_dir, config.corruption, rng)
        if damaged is None:
            return
        damage, in_the_way = damaged
        before = len(result.mismatches)
        restarted = _open(
            scenario.build_database(), scenario, config, **kwargs
        )
        try:
            try:
                restarted.recover()
            except CheckpointError as exc:
                left = restarted.checkpoints.latest()
                reach = left.lsn if left is not None else 0
                if reach >= restarted.wal.compacted_through:
                    result.add(
                        config.name, "recovery", "corruption",
                        f"recover() refused ({exc}) although the restore "
                        f"point at LSN {reach} has its WAL suffix ({damage})",
                    )
                return
            except Exception as exc:
                result.add(
                    config.name, "recovery", "corruption",
                    f"recover() raised on a damaged checkpoint ({damage}):"
                    f" {type(exc).__name__}: {exc}",
                )
                return
            sidecar = os.path.join(checkpoint_dir, "corrupt")
            if in_the_way and not os.listdir(sidecar):
                result.add(
                    config.name, "recovery", "harness-error",
                    f"injected damage went undetected ({damage})",
                )
            _check_recovered(
                restarted, config, reference, result,
                f"after checkpoint damage ({damage})",
            )
        finally:
            _drop_process(restarted)
            if len(result.mismatches) > before:
                _export_artifacts(config.name, checkpoint_dir)


def _cross_config_check(
    final_views: Dict[str, Dict[str, frozenset]], result: CaseResult
) -> None:
    """All configs that completed must agree on the final view contents
    (pairwise differential check against the first as witness)."""
    if len(final_views) < 2:
        return
    baseline_name = next(iter(final_views))
    baseline = final_views[baseline_name]
    for name, views in final_views.items():
        for view_name, rows in views.items():
            want = baseline.get(view_name)
            if want is not None and rows != want:
                result.add(
                    name, "final", "cross-config",
                    f"final contents differ from {baseline_name!r} "
                    f"({len(rows ^ want)} row(s) in the symmetric "
                    "difference)",
                    view=view_name,
                )
