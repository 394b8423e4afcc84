"""The differential oracle: every maintenance strategy vs. recompute.

One scenario is replayed once per config of :mod:`repro.fuzz.matrix` —
a point on a few axes plus a tuple of fault rows; ``docs/FUZZING.md``
walks through both tables.  After **every** update :func:`_check_step`
holds the warehouse to the paper's Theorem 1 contract — each view equals
a full recompute of its definition — and to a view-free reference replay
(base tables, per-op outcome, no quarantine).  One loop
(:func:`_run_config`) replays a stream and arms the in-stream faults;
one driver (:func:`_stage`) stages every crash and every corruption.

What the tables cannot say is why each *outcome class* a fault row may
demand is the right one:

``reference``
    Nothing the fault destroys was the only copy: the log, or the
    checkpoint lineage plus its WAL suffix, still holds the stream up to
    the stated step, so recovery owes exactly the reference state there,
    every view its recompute, and no entry left pending.
``refused``
    The fault makes one *live* operation fail, and a failed operation
    must leave what a failed constraint check leaves — nothing: tables
    as the reference had them one step back, views equal their
    recompute, and the same operation retried lands on the reference.
    (For a coordinator dying before its decision record, "nothing" is
    what presumed abort promises on every shard.)
``survivors``
    The fault destroys history (a quarantined WAL segment) or in-flight
    work (a killed worker), so base tables may legitimately part from
    the reference.  What still holds is internal consistency — views
    equal a recompute over whatever survived — and the duty to *notice*:
    damage detected, no call outliving its deadline, every shard back.
``reference-or-refusal``
    A damaged checkpoint loses no history while the WAL still reaches
    back to the restore point before it, so ``reference`` is owed; past
    that point the only honest answer is a typed
    :class:`~repro.errors.CheckpointError`, checked against the directory.

Agreement of every config with recompute on one stream implies pairwise
agreement; the cross-config comparison of final view rows is kept as a
belt-and-braces differential check.
"""

from __future__ import annotations

import glob
import os
import random
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CheckpointError, ReproError
from ..runtime import FAILPOINTS, InjectedFault
from ..warehouse import Warehouse
from .generator import Scenario
from .matrix import STALL_SECONDS, Arm, Fault, Mangle, OracleConfig, default_matrix

__all__ = [
    "Mismatch",
    "CaseResult",
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
    kind: str  # the closed list is "Mismatch kinds" in docs/FUZZING.md
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
    #: ``lagged_reads``, and each fault row (by name) that fired
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
                _apply_statements(txn, op)
        else:  # pragma: no cover - corrupt corpus entry
            raise ValueError(f"unknown op kind {op['kind']!r}")
        return "ok"
    except ReproError as exc:
        return type(exc).__name__


def _apply_statements(txn, op: Dict) -> None:
    for st in op["statements"]:
        apply = txn.insert if st["kind"] == "insert" else txn.delete
        apply(st["table"], st["rows"])


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
    base-table state after every step (``before(i)`` is the state step
    *i* started from)."""

    def __init__(self, scenario: Scenario):
        self.outcomes: List[str] = []
        self.states: List[Dict[str, frozenset]] = []
        wh = Warehouse(scenario.build_database())
        self.initial_state = _table_state(wh)
        for op in scenario.ops:
            self.outcomes.append(apply_op(wh, op))
            self.states.append(_table_state(wh))
        wh.close()

    def before(self, i: int) -> Dict[str, frozenset]:
        return self.states[i - 1] if i else self.initial_state


def _scenario_rng(scenario: Scenario, salt: int) -> random.Random:
    """Injected havoc is seeded by the scenario's own content, so a
    corpus replay meets byte-identical damage at identical steps."""
    return random.Random(zlib.crc32(scenario.to_json().encode("utf-8")) ^ salt)


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


def _null_safe(row) -> Tuple:
    """Sort key under which SQL NULLs order (first) instead of raising."""
    return tuple((value is not None, value) for value in row)


def _row_diff(expected: frozenset, actual: frozenset) -> Optional[str]:
    if actual == expected:
        return None
    missing = sorted(expected - actual, key=_null_safe)[:3]
    extra = sorted(actual - expected, key=_null_safe)[:3]
    return (
        f"{len(expected - actual)} missing (e.g. {missing}), "
        f"{len(actual - expected)} extra (e.g. {extra})"
    )


def consistency_mismatches(
    wh: Warehouse,
    config: str = "warehouse",
    step: str = "check",
    kind: str = "view-divergence",
    recompute_db=None,
) -> List[Mismatch]:
    """Recompute-oracle check of every non-quarantined view (the helper
    the repair/quarantine tests assert with)."""
    quarantined = wh.quarantined_views
    if recompute_db is None:
        recompute_db = wh.merged_database()
    found: List[Mismatch] = []
    for name in wh.view_names:
        if name not in quarantined:
            diff = view_divergence(wh, name, recompute_db)
            if diff is not None:
                found.append(Mismatch(config, step, kind, name, diff))
    return found


# ---------------------------------------------------------------------------
# per-config execution
# ---------------------------------------------------------------------------
def run_case(
    scenario: Scenario,
    configs: Optional[List[OracleConfig]] = None,
) -> CaseResult:
    """Replay *scenario* under every config — its own stream first, then
    each of its staged fault rows — and collect all mismatches."""
    configs = default_matrix() if configs is None else configs
    result = CaseResult()
    reference = _Reference(scenario)
    final_views: Dict[str, Dict[str, frozenset]] = {}

    def guarded(config, step, run, *args):
        """One run in a scratch directory of its own; its WAL and
        checkpoint trees (``corrupt/`` sidecars included) are copied out
        for CI to upload when the run found something."""
        before = len(result.mismatches)
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            try:
                return run(scenario, config, *args, reference, result, tmp)
            except Exception as exc:  # harness bug or unexpected blow-up
                result.add(
                    config.name, step, "harness-error",
                    f"{type(exc).__name__}: {exc}",
                )
            finally:
                keep = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR")
                if keep and len(result.mismatches) > before:
                    keep = os.path.join(keep, config.name)
                    shutil.copytree(tmp, keep, dirs_exist_ok=True)

    for config in configs:
        result.configs_run.append(config.name)
        views = guarded(config, "run", _run_config)
        if views is not None:
            final_views[config.name] = views
        for fault in config.faults:
            if fault.when == "staged":
                guarded(config, "recovery", _stage, fault)
    _cross_config_check(final_views, result)
    return result


_CHAOS_DEADLINE = 0.6  # facade per-call deadline during chaos replay
_CHAOS_PROBE = 0.3  # supervisor liveness-probe timeout
_CHAOS_INJECTIONS = 3  # ``on="sample"`` steps (fewer on a short stream)
_CHAOS_SETTLE = 30.0  # max seconds to wait for reincarnation


def _open(db, scenario: Scenario, config: OracleConfig, tmp: str) -> Warehouse:
    """A warehouse over *db*, its log and checkpoints under *tmp*, with
    the scenario's views registered under the config's options."""
    kwargs: Dict = {"workers": 0 if config.scheduling == "inline" else 1}
    if config.shards:
        # thread-backend workers: deterministic, and they share this
        # process's FAILPOINTS, so fault rows compose with sharding
        kwargs.update(shards=config.shards, shard_backend="thread")
        if config.faults:
            kwargs.update(
                call_deadline_seconds=_CHAOS_DEADLINE,
                probe_timeout_seconds=_CHAOS_PROBE,
                restart_budget=50,  # havoc is intentional; don't quarantine
            )
    if config.wal:
        kwargs["wal_path"] = os.path.join(tmp, "wal")
    if config.checkpoints:
        kwargs["checkpoint_dir"] = os.path.join(tmp, "checkpoints")
        kwargs["segment_bytes"] = 128
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
    kind: Optional[str] = None,
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

    *kind* overrides both divergence kinds (a step that just resolved a
    coordinator crash reports ``chaos-divergence``).
    """
    if kind:
        table_kind = view_kind = kind
    elif config.shards:
        table_kind, view_kind = "shard-vs-unsharded", "shard-vs-recompute"
    else:
        table_kind, view_kind = "db-divergence", "view-divergence"
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
    result.mismatches.extend(
        consistency_mismatches(wh, config.name, step, view_kind, recompute_db)
    )


def _check_snapshot(
    wh: Warehouse, config: OracleConfig, step: str,
    expected_state: Dict[str, frozenset], result: CaseResult, held: Optional[Tuple] = None,
) -> Optional[Tuple]:
    """The serving oracle: the latest published snapshot is judged like
    a warehouse of its own — base tables equal to the reference state at
    this step, every non-stale view equal to a recompute over the
    snapshot's *own* tables: each published epoch is internally
    consistent at its LSN, never a torn batch.  The caller has already
    drained (``_check_step``), so the newest snapshot corresponds to the
    just-applied op — or, when the op failed, to the unchanged/rolled-back
    state, which the reference reached the same way.  *held* is the
    previous step's ``(snapshot, state)``, judged again now that this step
    sealed undo logs behind it; returns this step's pair, to be held.
    """
    snapshot = wh.snapshot()
    if not snapshot.valid:
        result.add(
            config.name, step, "snapshot-divergence",
            f"latest snapshot invalid ({snapshot.invalid_reason}) "
            "outside recovery",
        )
        return None
    judged = [(snapshot, expected_state)]
    if held is not None and held[0].valid and held[0] is not snapshot:
        judged.append(held)
    for snap, state in judged:
        published = SimpleNamespace(
            merged_database=snap.build_database, quarantined_views=sorted(snap.stale_views),
            view_names=snap.view_names, view_rows=snap.view_rows, definition=wh.definition,
        )
        _check_step(
            published, config, f"{step} snapshot@{snap.lsn}", state, result,
            "snapshot-divergence",
        )
    return snapshot, expected_state


def _restart(
    wh: Warehouse, scenario: Scenario, config: OracleConfig, tmp: str,
    result: CaseResult,
) -> Warehouse:
    """A ``crash`` op under WAL: close at the flush boundary (acks on
    disk), reopen over the genesis database and the same directories,
    and recover — the newest checkpoint, else genesis at LSN 0, rolled
    forward through every WAL entry past it.  Local and sharded alike."""
    wh.flush()  # a sharded close() would swallow what this raises
    if not config.shards:
        # what ``serving`` reads had to survive: epochs behind the head
        result.count(config.name, "lagged_reads", wh.snapshots.lagged_reads)
    wh.close()
    fresh = _open(scenario.build_database(), scenario, config, tmp)
    fresh.recover()
    return fresh


def _checkpoint(wh: Warehouse, config: OracleConfig, result: CaseResult) -> bool:
    """One checkpoint; True when a local warehouse wrote a delta."""
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


# ---------------------------------------------------------------------------
# arming
# ---------------------------------------------------------------------------
_VICTIMS: Dict[str, Callable[[Dict], bool]] = {
    "every": lambda op: op["kind"] != "crash",
    "dml": lambda op: op["kind"] in ("insert", "delete"),
    "txn": lambda op: op["kind"] == "txn",
}


def _hits(fault: Fault) -> int:
    """How often the sites *fault* arms have fired so far."""
    return sum(FAILPOINTS.fired(site) for site in fault.sites)


def _armed(arm: Arm, shard: Optional[int] = None):
    """The arm as a context manager (disarms the site on the way out)."""
    match = {} if shard is None else {"shard": shard}
    return FAILPOINTS.armed(arm.site, **arm.how, **match)


def _fault_plan(
    scenario: Scenario, config: OracleConfig
) -> Dict[int, Tuple[Fault, Optional[int]]]:
    """Step index -> (in-stream fault armed there, shard it matches).
    Decided before the stream starts; the rows targeting a step take
    turns in table order."""
    faults = [f for f in config.faults if f.when == "stream"]
    rng = _scenario_rng(scenario, 0x5EED)
    ops = scenario.ops
    eligible = [i for i, op in enumerate(ops) if _VICTIMS["every"](op)]
    sample = set(
        rng.sample(eligible, min(_CHAOS_INJECTIONS, len(eligible)))
    )
    plan: Dict[int, Tuple[Fault, Optional[int]]] = {}
    for i, op in enumerate(ops):
        here = [
            f
            for f in faults
            if (i in sample if f.on == "sample" else _VICTIMS[f.on](op))
        ]
        if here:
            fault = here[len(plan) % len(here)]
            shard = rng.randrange(config.shards) if fault.inject.shard else None
            plan[i] = (fault, shard)
    return plan


def _apply_armed(
    wh: Warehouse, op: Dict, fault: Fault, shard: Optional[int]
) -> Tuple[str, bool, float]:
    """:func:`apply_op` with *fault* armed around the call its row names;
    returns (outcome, whether the site fired, seconds taken).  Around
    ``"commit"`` the statements run unarmed and — unlike the ``with``
    block — a coordinator that "dies" in commit rolls nothing back:
    resolving the in-doubt shards is ``recover()``'s job."""
    arm = fault.inject
    hits_before = _hits(fault)
    started = time.monotonic()
    if arm.around == "commit":
        txn = wh.transaction()
        try:
            _apply_statements(txn, op)
            with _armed(arm, shard):
                txn.commit()
            got = "ok"
        except InjectedFault as exc:
            got = type(exc).__name__
        except ReproError as exc:
            txn.rollback()
            got = type(exc).__name__
    else:
        with _armed(arm, shard):
            got = apply_op(wh, op)
    elapsed = time.monotonic() - started
    return got, _hits(fault) > hits_before, elapsed


# ---------------------------------------------------------------------------
# the one replay loop
# ---------------------------------------------------------------------------
def _run_config(
    scenario: Scenario,
    config: OracleConfig,
    reference: _Reference,
    result: CaseResult,
    tmp: str,
) -> Optional[Dict[str, frozenset]]:
    """Replay the scenario through one warehouse — local or sharded, the
    loop only speaks the shared facade — arming the config's in-stream
    fault rows per :func:`_fault_plan` and checking every step.  Returns
    the final view rows for the cross-config check, or ``None`` once a
    ``survivors`` fault made the reference inapplicable."""
    plan = _fault_plan(scenario, config)
    wh = _open(scenario.build_database(), scenario, config, tmp)
    parted = False  # a survivors fault fired: the reference is void
    held = None  # the serving oracle's snapshot from the step before
    try:
        for i, op in enumerate(scenario.ops):
            step = f"op[{i}]"
            kind = None
            if op["kind"] == "crash":
                got = "ok"
                if config.wal:
                    wh = _restart(wh, scenario, config, tmp, result)
            elif i not in plan:
                got = apply_op(wh, op)
            else:
                fault, shard = plan[i]
                got, fired, elapsed = _apply_armed(wh, op, fault, shard)
                if fired:
                    result.count(config.name, fault.name)
                    if fault.restart == "live":
                        # a coordinator or worker "died": once the tier
                        # settles, the decision log alone says the end
                        _wait_all_up(wh)
                        wh.recover()
                        kind = "chaos-divergence"
                        if fault.expect == "reference":
                            got = "ok"  # decided: recover() committed it
                    if fault.expect == "survivors":
                        parted = True
                        if not _check_reincarnated(
                            wh, config, step, fault, elapsed, result
                        ):
                            return None
                    elif fault.expect == "refused":
                        if got == "ok":
                            result.add(
                                config.name, step, "outcome",
                                f"{fault.name} fired but the op reported "
                                "success",
                            )
                        _check_step(
                            wh, config, step, reference.before(i), result, kind
                        )
                        got = apply_op(wh, op)  # re-applied, the op must land
            if not parted:
                _check_outcome(
                    result, config.name, step, op, got, reference.outcomes[i]
                )
                _check_step(wh, config, step, reference.states[i], result, kind)
                if config.scheduling == "serving":
                    held = _check_snapshot(
                        wh, config, step, reference.states[i], result, held
                    )
            if config.checkpoints and op["kind"] != "crash":
                try:
                    _checkpoint(wh, config, result)
                except ReproError:
                    if not parted:  # else a straggler; settled below
                        raise
        _check_settled(wh, config, parted, result)
        if parted:
            return None
        return {name: frozenset(wh.view_rows(name)) for name in wh.view_names}
    finally:
        wh.close()


def _check_settled(
    wh: Warehouse, config: OracleConfig, parted: bool, result: CaseResult
) -> None:
    """End of stream: a flush must surface no failure and leave nothing
    pending (after a ``survivors`` fault only the settling counts); a
    sharded tier must have resolved every coordinator decision and pass
    its own three-layer ``check_consistency``."""
    if parted and not _wait_all_up(wh):
        result.add(
            config.name, "final", "chaos-divergence",
            f"shards still down after the stream: {wh.supervisor.status()}",
        )
        return
    if config.wal:
        try:
            wh.flush()
        except ReproError as exc:
            if not parted:
                result.add(
                    config.name, "flush", "quarantine",
                    "flush surfaced a maintenance failure: "
                    f"{type(exc).__name__}: {exc}",
                )
        pending = "" if parted else _pending_wal(wh, config)
        if pending:
            result.add(
                config.name, "flush", "durability",
                f"WAL still pending after flush ({pending})",
            )
    if not config.shards:
        result.count(config.name, "lagged_reads", wh.snapshots.lagged_reads)
        return
    undecided = wh.txnlog.pending()
    if undecided:
        result.add(
            config.name, "final", "durability",
            f"{len(undecided)} coordinator decision(s) still pending "
            "after every transaction resolved: "
            f"{[r.txn_id for r in undecided]}",
        )
    try:
        wh.check_consistency()
    except ReproError as exc:
        result.add(
            config.name, "final",
            "chaos-divergence" if config.faults else "shard-vs-recompute",
            f"settled state inconsistent: {type(exc).__name__}: {exc}",
        )


# ---------------------------------------------------------------------------
# survivors of worker havoc: no hang, every shard back
# ---------------------------------------------------------------------------
def _wait_all_up(wh, timeout: float = _CHAOS_SETTLE) -> bool:
    """Poll until the tier is settled: no detection/revive in flight
    (checked first — a just-detected death may not have flipped the
    per-shard state yet), every shard ``up``, every handle alive."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (
            wh.supervisor.quiesced
            and (status := wh.supervisor.status())
            and all(s["state"] == "up" for s in status.values())
            and all(
                h.is_alive() and not getattr(h, "_closed", False)
                for h in wh._handles
            )
        ):
            return True
        time.sleep(0.02)
    return False


def _check_reincarnated(
    wh, config: OracleConfig, step: str, fault: Fault, elapsed: float,
    result: CaseResult,
) -> bool:
    """The faulted op may fail — lost work is legitimate — but it must
    resolve within the deadline plus scheduling slack, never block on
    the dead worker's 30 s default; and the supervisor must bring every
    shard back.  False when the tier stayed down (the stream stops)."""
    if elapsed > STALL_SECONDS + 5.0:
        result.add(
            config.name, step, "chaos-divergence",
            f"op blocked {elapsed:.1f}s on {fault.name} instead of "
            "failing within the deadline",
        )
    if _wait_all_up(wh):
        return True
    result.add(
        config.name, step, "chaos-divergence",
        f"a shard never reincarnated after {fault.name}: "
        f"{wh.supervisor.status()}",
    )
    return False


# ---------------------------------------------------------------------------
# file manglers: (what was done, did the restart notice) or None
# ---------------------------------------------------------------------------
Damage = Optional[Tuple[str, Callable[[Warehouse], bool]]]


def _flip_byte(path: str, position: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0x20]))


def _mangle_wal(tmp: str, mode: str, rng: random.Random) -> Damage:
    """Byte-mangle a closed WAL directory (``None``: too small to)."""

    def noticed(restarted: Warehouse) -> bool:
        wal = restarted.wal
        return wal.corruption_detected or wal.torn_tail_dropped

    segments = sorted(glob.glob(os.path.join(tmp, "wal", "seg-*.wal")))
    if not segments:
        return None
    if mode == "torn":
        # an unterminated half-record after the final segment's last
        # record — the classic torn write
        with open(segments[-1], "ab") as handle:
            handle.write(b'deadbeef {"kind":"change","trunc')
        return "torn tail appended to the last segment", noticed
    with open(segments[0], "rb") as handle:
        line_end = handle.read().find(b"\n")
    if line_end <= 10:
        return None
    # flip one payload byte of the first record, past its CRC prefix
    position = 9 + rng.randrange(line_end - 9)
    _flip_byte(segments[0], position)
    return f"flipped byte {position} of the first segment", noticed


def _mangle_checkpoint(tmp: str, mode: str, rng: random.Random) -> Damage:
    """Damage one checkpoint file — base or delta, newest or not — of a
    closed directory.  Only a file restore has to come across (one in
    the newest lineage) must end up in the ``corrupt/`` sidecar."""
    directory = os.path.join(tmp, "checkpoints")
    paths = sorted(glob.glob(os.path.join(directory, "ckpt-*.json")))
    if not paths:
        return None
    path = rng.choice(paths)
    name = os.path.basename(path)
    newest_base = max(p for p in paths if not p.endswith(".delta.json"))

    def noticed(_restarted: Warehouse) -> bool:
        sidecar = os.listdir(os.path.join(directory, "corrupt"))
        return path < newest_base or bool(sidecar)

    size = os.path.getsize(path)
    if mode == "torn":
        with open(path, "ab") as handle:
            handle.truncate(size // 2)
        return f"{name} cut to {size // 2} of {size} bytes", noticed
    position = 9 + rng.randrange(size - 9)  # past the CRC prefix
    _flip_byte(path, position)
    return f"flipped byte {position} of {name}", noticed


# ---------------------------------------------------------------------------
# the one staged-fault driver
# ---------------------------------------------------------------------------
def _stage(
    scenario: Scenario,
    config: OracleConfig,
    fault: Fault,
    reference: _Reference,
    result: CaseResult,
    tmp: str,
) -> None:
    """Stage one :class:`Fault` row on a warehouse of its own: open →
    replay the prefix → durable boundary → replay the suffix → inject →
    drop the process → reopen → ``recover()`` → judge.

    An arm around ``"op"`` ends the stream at its victim — the last
    suffix op the row's ``on`` selects and the reference says succeeds —
    so the state owed is the reference's *at that step*; every other row
    runs the whole stream and owes the final state."""
    ops = scenario.ops
    if not ops:
        return
    inject = fault.inject
    cut = int(len(ops) * fault.cut)
    end = len(ops)  # where the stream stops: the victim's index, if any
    if isinstance(inject, Arm) and inject.around == "op":
        victims = [
            i
            for i in range(cut, len(ops))
            if _VICTIMS[fault.on](ops[i]) and reference.outcomes[i] == "ok"
        ]
        if not victims:
            return
        end = victims[-1]
    wh = _open(scenario.build_database(), scenario, config, tmp)
    for op in ops[:cut]:
        apply_op(wh, op)
    if fault.boundary == "lineage":
        # a base, its deltas, the WAL compacted behind the restore point
        # before the newest
        _grow_lineage(wh, config, result)
    elif fault.boundary == "flush":
        wh.flush()  # everything so far is acked
    hits_before = _hits(fault)
    # times=0 arms nothing: acks are dropped only when the row says so
    lose_acks = None if fault.suffix == "unacked" else 0
    with FAILPOINTS.armed("wal.ack", action="skip", times=lose_acks):
        for op in ops[cut:end]:
            apply_op(wh, op)
            if fault.suffix == "checkpointed":
                _checkpoint(wh, config, result)
        if isinstance(inject, Arm):
            with _armed(inject):
                if end < len(ops):
                    apply_op(wh, ops[end])
                else:
                    try:
                        wh.checkpoint()
                    except InjectedFault:
                        pass  # the process dies mid-checkpoint
        wh.scheduler.drain()
        wh.wal.sync()
        _drop_process(wh)
    fired = _hits(fault) > hits_before
    damage: Damage = None
    if isinstance(inject, Mangle):
        mangle = _mangle_wal if inject.target == "wal" else _mangle_checkpoint
        damage = mangle(tmp, inject.mode, _scenario_rng(scenario, 0xC4EC))
        if damage is None:
            return  # nothing on disk big enough to damage
        fired = True
    if fired:
        result.count(config.name, fault.name)
    owed = reference.states[min(end, len(ops) - 1)]
    for again in (False, True) if fault.regrow else (False,):
        restarted = _open(scenario.build_database(), scenario, config, tmp)
        try:
            _check_recovery(
                restarted, config, fault, owed, damage, fired and not again,
                result,
            )
            if fault.regrow and not again:
                _grow_lineage(restarted, config, result)
        finally:
            _drop_process(restarted)


def _check_recovery(
    restarted: Warehouse,
    config: OracleConfig,
    fault: Fault,
    expected_state: Dict[str, frozenset],
    damage: Damage,
    fired: bool,
    result: CaseResult,
) -> None:
    """Hold one staged restart to its row's outcome class."""
    step = f"recovery after {fault.name}" + (f" ({damage[0]})" if damage else "")
    broken = "corruption" if damage else "durability"

    def complain(kind: str, detail: str):
        result.add(config.name, step, kind, detail)

    try:
        restarted.recover()
    except CheckpointError as exc:
        left = restarted.checkpoints.latest()
        reach = left.lsn if left is not None else 0
        if fault.expect != "reference-or-refusal":
            complain(broken, f"recover() refused: {exc}")
        elif reach >= restarted.wal.compacted_through:
            complain(
                broken,
                f"recover() refused ({exc}) although the restore point "
                f"at LSN {reach} has its WAL suffix",
            )
        return
    except Exception as exc:
        complain(broken, f"recover() raised {type(exc).__name__}: {exc}")
        return
    if damage and not damage[1](restarted):
        complain("harness-error", "injected damage went undetected")
    if fault.expect == "survivors":
        result.mismatches.extend(
            consistency_mismatches(restarted, config.name, step)
        )
        return
    # tables, and views unquarantined and recompute-equal: a fan-out
    # that failed on the way, or a restore point that was skipped, shows
    _check_step(restarted, config, step, expected_state, result)
    pending = _pending_wal(restarted, config)
    if pending:
        complain("durability", f"recovery left the WAL pending ({pending})")
    replayed = (restarted.last_recovery or {}).get("replayed")
    if fired and not fault.replays and replayed:
        complain(
            "durability",
            f"{replayed} entr(ies) replayed although the crashed "
            "checkpoint was already durable",
        )


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
