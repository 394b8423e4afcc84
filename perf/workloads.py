"""The four workloads.

Each one stresses different layers and bypasses others (see README.md
for the layer -> metric table):

* ``paper_refresh_bulk``      bare ViewMaintainer, V3 vs its core view
* ``warehouse_durable_small`` 16 views, WAL + fsync + checkpoints, b6
* ``serving_mixed``           open-loop reads while writes publish
* ``sharded_bulk``            2 worker processes, 600-row batches

Sizes are fixed operation counts derived from ``--seconds`` at today's
speeds, so two runs with one seed do exactly the same work.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro import Telemetry, Warehouse
from repro.baselines import GriffinKumarMaintainer, RecomputeMaintainer
from repro.planner.wire import decode_rows, encode_rows
from repro.runtime.sharding import merge_view_rows, plan_view
from repro.tpch import v3, v3_core

from fixtures import (
    DELETE,
    INSERT,
    OUT_DIR,
    PROBE,
    PROBE_VIEWS,
    SCAN,
    WRITES,
    Op,
    ProbeKeys,
    WriteStream,
    arrivals,
    instance,
    view_set,
)
from harness import (
    ROOT_SPAN,
    BareSystem,
    Calibrator,
    Observer,
    Outcome,
    closed_loop,
    execute,
    median,
    percentile,
    ratio,
    trace_local_warehouse,
    trace_maintainer,
)
from tracing import Tracer

WARMUP_ROUNDS = 3  # insert+delete rounds before timing (plans, indexes)
SMALL_BATCH = 6
BULK_BATCH = 600
NO_DEADLINE = float("inf")


@dataclasses.dataclass
class State:
    """One set-up of a workload: the systems, their inputs, what set-up
    itself measured, and what tear-down must release."""

    systems: List
    ops: List[Op]
    observers: List[Observer]
    warmup: Outcome
    materialize_s: float
    definitions: Dict[str, object]
    tmp: Optional[str] = None
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)


def bulk_rounds(stream, keys, count, view, lanes=(0,), first=0) -> List[Op]:
    """Rounds of [insert 600 -> delete 600 from the mirror] on every
    lane, each followed by 20 key probes and one full-view read."""
    ops: List[Op] = []
    for group in range(first, first + count):
        insert = stream.insert(BULK_BATCH, group=group)
        delete = stream.delete(BULK_BATCH, group=group)
        for lane in lanes:
            ops.append(dataclasses.replace(insert, lane=lane))
            ops.append(dataclasses.replace(delete, lane=lane))
        ops += [keys.draw(view, group=group) for _ in range(20)]
        ops.append(Op(SCAN, view, group=group))
    return ops


class Workload:
    name = ""
    scale = 0.005
    per_second = 1.0  # operation groups per second of ``--seconds``
    has_workers = False  # peak memory then adds the largest child's

    def size(self, seconds: float) -> int:
        return max(2, round(self.per_second * seconds))

    def build(self, seed: int, size: int) -> State:
        raise NotImplementedError

    def trace(self, state: State, tracer: Tracer) -> None:
        raise NotImplementedError

    def run(self, state: State, tracer, deadline: float) -> Outcome:
        return closed_loop(
            state.systems, state.ops, state.observers, tracer, deadline
        )

    def verify(self, state: State) -> List[str]:
        """Output checks; returns what failed."""
        problems = list(state.observers[0].read_errors[:3])
        try:
            for system in state.systems:
                system.check_consistency()
        except Exception as exc:
            problems.append(f"check_consistency: {exc!r}")
        return problems

    def teardown(self, state: State) -> None:
        for system in state.systems:
            if hasattr(system, "close"):
                system.close()
        if state.tmp:
            shutil.rmtree(state.tmp, ignore_errors=True)

    def plan_caches(self, state: State) -> List:
        """The plan caches the benchmark can reach from outside."""
        return []

    def layer_extras(
        self, state, outcome, plain, seed, metrics
    ) -> Dict[str, float]:
        """Per-layer numbers only this workload can measure (run after
        the traced pass and its checks); *metrics* holds the common
        ones computed so far."""
        return {}


# ---------------------------------------------------------------------------
# paper_refresh_bulk
# ---------------------------------------------------------------------------
class PaperRefreshBulk(Workload):
    name = "paper_refresh_bulk"
    scale = 0.01
    per_second = 2.0
    view = "v3"

    def build(self, seed, size):
        generator, db = instance(self.scale, seed)
        core_db = db.copy()
        started = time.perf_counter()
        systems = [BareSystem(db, v3()), BareSystem(core_db, v3_core())]
        materialize_s = time.perf_counter() - started
        stream = WriteStream(generator, db, seed)
        keys = ProbeKeys(random.Random(seed + 1))
        definition = systems[0].view.definition
        keys.add_view(definition, db, systems[0].query(self.view))
        lanes = (0, 1)
        warm = bulk_rounds(stream, keys, WARMUP_ROUNDS, self.view, lanes)
        ops = bulk_rounds(
            stream, keys, size, self.view, lanes, first=WARMUP_ROUNDS
        )
        throwaway = [Observer(), Observer()]
        warmup = closed_loop(systems, warm, throwaway, None, NO_DEADLINE)
        return State(
            systems, ops, [Observer(), Observer()], warmup, materialize_s,
            {self.view: definition}, extra={"stream": stream},
        )

    def plan_caches(self, state):
        return [state.systems[0].maintainer.plan_cache]

    def trace(self, state, tracer):
        # lane 0 only: the core view is the yardstick, not a layer
        system = state.systems[0]
        tracer.wrap(system.db, "insert", "engine.db.insert")
        tracer.wrap(system.db, "delete", "engine.db.delete")
        trace_maintainer(system.maintainer, tracer, self.view)

    def layer_extras(self, state, outcome, plain, seed, metrics):
        rounds: Dict[int, List[float]] = {0: [], 1: []}
        for lane in rounds:
            by_group: Dict[int, float] = {}
            for op, seconds in plain.samples:
                if op.kind in WRITES and op.lane == lane:
                    by_group[op.group] = by_group.get(op.group, 0) + seconds
            rounds[lane] = list(by_group.values())
        out = {
            "oj_over_core_ratio": ratio(median(rounds[0]), median(rounds[1]))
        }
        # the bare V3 sweep and the baselines, on the lane-0 database
        system, stream = state.systems[0], state.extra["stream"]
        sweeps = {}
        for batch in (SMALL_BATCH, 60, BULK_BATCH):
            sweeps[batch] = sweep(system, stream, batch, rounds=5)
            out[f"core.maintain.insert_ms_b{batch}"] = (
                median(sweeps[batch][INSERT]) * 1e3
            )
            out[f"core.maintain.delete_ms_b{batch}"] = (
                median(sweeps[batch][DELETE]) * 1e3
            )
        ours = median(sweeps[60][INSERT] + sweeps[60][DELETE])
        for label, cls in (
            ("gk", GriffinKumarMaintainer), ("recompute", RecomputeMaintainer)
        ):
            baseline = BareSystem(system.db, v3(), cls)
            times = sweep(baseline, stream, 60, rounds=4)
            out[f"baselines.{label}_over_oj_ratio"] = ratio(
                median(times[INSERT] + times[DELETE]), ours
            )
        return out


def sweep(system: BareSystem, stream, batch, rounds) -> Dict[str, List[float]]:
    """Maintenance seconds (``MaintenanceReport.elapsed_seconds``: the
    view work, without the base-table apply) per insert and delete."""
    times: Dict[str, List[float]] = {INSERT: [], DELETE: []}
    for _ in range(rounds):
        for op in (stream.insert(batch), stream.delete(batch)):
            report = execute(system, op)[system.name]
            times[op.kind].append(report.elapsed_seconds)
    return times


# ---------------------------------------------------------------------------
# the 16-view local warehouse (durable_small and serving_mixed)
# ---------------------------------------------------------------------------
class LocalWarehouse(Workload):
    def warehouse(self, db, tmp: str, size: int) -> Warehouse:
        raise NotImplementedError

    def timed_ops(self, stream, keys, size) -> List[Op]:
        raise NotImplementedError

    def build(self, seed, size):
        generator, db = instance(self.scale, seed)
        os.makedirs(OUT_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT_DIR)
        wh = self.warehouse(db, tmp, size)
        definitions = {d.name: d for d in view_set(db)}
        started = time.perf_counter()
        for name, definition in definitions.items():
            wh.create_view(name, definition)
        materialize_s = time.perf_counter() - started
        stream = WriteStream(generator, db, seed)
        keys = ProbeKeys(random.Random(seed + 1))
        for view in PROBE_VIEWS:
            keys.add_view(definitions[view], db, wh.query(view))
        warm = []
        for group in range(WARMUP_ROUNDS - 1):
            warm += [
                stream.insert(SMALL_BATCH, group=group),
                stream.delete(SMALL_BATCH, group=group),
            ]
        warm += [
            stream.dimension_insert(table, SMALL_BATCH, group=9)
            for table in ("customer", "part")
        ]
        ops = self.timed_ops(stream, keys, size)
        warmup = closed_loop([wh], warm, [Observer()], None, NO_DEADLINE)
        return State(
            [wh], ops, [Observer(wh)], warmup, materialize_s, definitions,
            tmp=tmp, extra={"seed": seed},
        )

    def plan_caches(self, state):
        wh = state.systems[0]
        return [wh.maintainer(name).plan_cache for name in wh.view_names]

    def trace(self, state, tracer):
        trace_local_warehouse(state.systems[0], tracer)


class WarehouseDurableSmall(LocalWarehouse):
    name = "warehouse_durable_small"
    per_second = 10.0
    # 60 % lineitem insert, 30 % lineitem delete, 5 % + 5 % dimension insert
    mix = (INSERT,) * 12 + (DELETE,) * 6 + ("customer", "part")

    def warehouse(self, db, tmp, size):
        # three checkpoint cycles inside the timed changes
        interval = max(4, (size + 2 * WARMUP_ROUNDS) // 3 - 2)
        return Warehouse(
            db,
            wal_path=os.path.join(tmp, "wal"),
            fsync_batch=1,
            checkpoint_dir=os.path.join(tmp, "ckpt"),
            checkpoint_interval=interval,
            workers=0,
        )

    def timed_ops(self, stream, keys, size):
        # exact shares in a seeded order: every seed does the same work
        kinds = [self.mix[i % len(self.mix)] for i in range(size)]
        random.Random(stream.seed + 2).shuffle(kinds)
        ops: List[Op] = []
        for group, kind in enumerate(kinds):
            if kind == INSERT:
                ops.append(stream.insert(SMALL_BATCH, group=group))
            elif kind == DELETE:
                ops.append(stream.delete(SMALL_BATCH, group=group))
            else:
                ops.append(
                    stream.dimension_insert(kind, SMALL_BATCH, group=group)
                )
            ops += [keys.draw(view, group=group) for view in PROBE_VIEWS]
            if group % 5 == 4:
                ops.append(Op(SCAN, PROBE_VIEWS[0], group=group))
        return ops

    def verify(self, state):
        return super().verify(state) + self.crash_recovery(state)

    def crash_recovery(self, state) -> List[str]:
        """Crash after the last acknowledged change (no final
        checkpoint, no close): copy the WAL and checkpoint directories,
        recover a fresh warehouse on the copy, compare with the live
        one."""
        live = state.systems[0]
        copy = os.path.join(state.tmp, "crash")
        for part in ("wal", "ckpt"):
            shutil.copytree(
                os.path.join(state.tmp, part), os.path.join(copy, part)
            )
        _, db = instance(self.scale, state.extra["seed"])
        fresh = Warehouse(
            db,
            wal_path=os.path.join(copy, "wal"),
            checkpoint_dir=os.path.join(copy, "ckpt"),
            workers=0,
        )
        problems = []
        try:
            for name, definition in state.definitions.items():
                fresh.create_view(name, definition)
            last = live.wal.last_lsn
            if fresh.wal.last_lsn != last or not all(
                fresh.wal.is_acked(lsn) for lsn in range(1, last + 1)
            ):
                problems.append("an acknowledged LSN is missing in the copy")
            # replayed entries go through the scheduler; the rest of
            # recover() is restoring the checkpoint
            tracer = Tracer()
            tracer.wrap_submit(fresh.scheduler)
            started = time.perf_counter()
            fresh.recover()
            recover_s = time.perf_counter() - started
            replay_s = sum(
                s.duration
                for s in tracer.spans
                if s.name == "runtime.scheduler.submit"
            )
            state.extra["recovery"] = {
                "recover_s": recover_s,
                "warehouse.recover.restore_s": recover_s - replay_s,
                "warehouse.recover.replayed_entries": (
                    fresh.last_recovery["replayed"]
                ),
            }
            for name in live.view_names:
                if set(fresh.view(name).rows()) != set(live.view(name).rows()):
                    problems.append(f"recovered view {name} differs")
        finally:
            fresh.scheduler.shutdown()
            fresh.wal.close()
        return problems

    def layer_extras(self, state, outcome, plain, seed, metrics):
        out = dict(state.extra.get("recovery", {}))
        paths = state.systems[0].checkpoints.checkpoint_paths()
        if paths:
            out["runtime.checkpoint.bytes"] = os.path.getsize(paths[-1])
        return out


class ServingMixed(LocalWarehouse):
    name = "serving_mixed"
    per_second = 0.9  # seconds of open-loop traffic per ``--seconds``
    read_rate = 500.0
    scan_rate = 20.0
    write_rate = 6.0

    def size(self, seconds):
        return self.per_second * seconds

    def warehouse(self, db, tmp, size):
        return Warehouse(
            db,
            Telemetry(),  # enabled, as a serving deployment would run
            wal_path=os.path.join(tmp, "wal"),
            workers=1,
        )

    def timed_ops(self, stream, keys, duration):
        """The reader's and the writer's schedules in one list, in due
        order; each thread takes its own kinds."""
        rng = random.Random(stream.seed + 2)

        def schedule(rate):
            return arrivals(int(rate * duration), duration, rng)

        reads = sorted(
            [(due, PROBE) for due in schedule(self.read_rate)]
            + [(due, SCAN) for due in schedule(self.scan_rate)]
        )
        ops = [
            stream.insert(SMALL_BATCH, group=index, due=due)
            for index, due in enumerate(schedule(self.write_rate))
        ]
        for index, (due, kind) in enumerate(reads):
            if kind == PROBE:
                view = PROBE_VIEWS[index % len(PROBE_VIEWS)]
                ops.append(keys.draw(view, group=index, due=due))
            else:
                ops.append(Op(SCAN, PROBE_VIEWS[0], group=index, due=due))
        return sorted(ops, key=lambda op: op.due)

    def run(self, state, tracer, deadline):
        """Open loop: every request is timed from when it was *due*, so
        a stall is charged to the requests it delayed."""
        wh, observer = state.systems[0], state.observers[0]
        out = Outcome()
        out.open_loop = True
        out.attempted = len(state.ops)
        calibrate = Calibrator()
        lags: List[float] = []
        ages: List[float] = []
        lock = threading.Lock()
        base = time.perf_counter() + 0.05

        def wait_until(due):
            target = base + due
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            return target

        def completed(op, target, result):
            # dispatcher thread, after the change was acknowledged
            now = time.perf_counter()
            with lock:
                if result.ok:
                    out.samples.append((op, now - target))
                    observer.note_write(op, result.reports)
                else:
                    out.failed += 1

        def writer():
            for index, op in enumerate(state.ops):
                if op.kind not in WRITES:
                    continue
                # the kernel runs just ahead of the due time, when the
                # dispatcher has most likely finished the previous change
                wait_until(op.due - 0.004)
                calibrate()
                target = wait_until(op.due)
                span = None
                if tracer is not None:
                    span = tracer.begin(
                        "change", cid=index, root=True,
                        kind=op.kind, target=op.target,
                    )
                try:
                    ticket = wh.apply_async(op.target, op.kind, op.rows)
                except Exception:
                    with lock:
                        out.failed += 1
                    continue
                finally:
                    if span is not None:
                        tracer.end(span)
                ticket.add_done_callback(
                    lambda result, op=op, target=target: completed(
                        op, target, result
                    )
                )

        def reader():
            for index, op in enumerate(state.ops):
                if op.kind in WRITES:
                    continue
                target = wait_until(op.due)
                lags.append(time.perf_counter() - target)
                span = None
                if tracer is not None:
                    span = tracer.begin(
                        ROOT_SPAN[op.kind], cid=index, root=True
                    )
                try:
                    result = execute(wh, op)
                    latency = time.perf_counter() - target
                except Exception:
                    with lock:
                        out.failed += 1
                    continue
                finally:
                    if span is not None:
                        tracer.end(span)
                ages.append(wh.snapshots.latest().age_seconds())
                with lock:
                    out.samples.append((op, latency))
                observer(op, result)

        events_before = obs_events(wh.telemetry)
        threads = [
            threading.Thread(target=writer, name="perf-writer"),
            threading.Thread(target=reader, name="perf-reader"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            wh.flush()
        except Exception:
            out.failed += 1
        out.wall = time.perf_counter() - base  # every write acknowledged
        out.machine_factor = calibrate.factor(0.2)
        reads = out.times(PROBE)
        writes = out.times(INSERT) + out.times(DELETE)
        out.extra = {
            "serving.issue_lag_p50_us": median(lags) * 1e6,
            "serving.issue_lag_p99_us": percentile(lags, 0.99) * 1e6,
            "serving.read_p99_us": percentile(reads, 0.99) * 1e6,
            "serving.write_p99_ms": percentile(writes, 0.99) * 1e3,
            "serving.snapshot_age_ms_p50": median(ages) * 1e3,
            "obs.events_per_change": ratio(
                obs_events(wh.telemetry) - events_before, len(writes)
            ),
        }
        return out

    def layer_extras(self, state, outcome, plain, seed, metrics):
        return dict(outcome.extra)


OBS_OCCURRENCE_COUNTERS = (
    "repro_events_total",
    "repro_maintenance_passes_total",
    "repro_plan_cache_requests_total",
    "repro_wal_appends_total",
    "repro_snapshots_published_total",
)


def obs_events(telemetry) -> float:
    """Occurrences the enabled telemetry recorded so far, read from its
    own registry (counters that tick once per recorded event)."""
    return sum(
        telemetry.metrics.get(name).total()
        for name in OBS_OCCURRENCE_COUNTERS
    )


# ---------------------------------------------------------------------------
# sharded_bulk
# ---------------------------------------------------------------------------
class ShardedBulk(Workload):
    name = "sharded_bulk"
    per_second = 2.7
    view = PROBE_VIEWS[0]
    shards = 2
    has_workers = True

    def build(self, seed, size, shards=None):
        generator, db = instance(self.scale, seed)
        wh = Warehouse(
            db, shards=shards or self.shards, shard_backend="process",
            workers=0,
        )
        try:
            definitions = {d.name: d for d in view_set(db)}
            started = time.perf_counter()
            for name, definition in definitions.items():
                wh.create_view(name, definition)
            materialize_s = time.perf_counter() - started
            stream = WriteStream(generator, db, seed)
            keys = ProbeKeys(random.Random(seed + 1))
            keys.add_view(definitions[self.view], db, wh.query(self.view))
            warm = bulk_rounds(stream, keys, WARMUP_ROUNDS, self.view)
            ops = bulk_rounds(
                stream, keys, size, self.view, first=WARMUP_ROUNDS
            )
            warmup = closed_loop([wh], warm, [Observer()], None, NO_DEADLINE)
        except BaseException:
            wh.close()
            raise
        return State(
            [wh], ops, [Observer()], warmup, materialize_s, definitions
        )

    def trace(self, state, tracer):
        wh = state.systems[0]
        inner = wh.router.split_rows

        def split_rows(table, rows):
            span = tracer.begin("runtime.sharding.split_rows", rows=len(rows))
            try:
                parts = inner(table, rows)
            finally:
                tracer.end(span)
            sizes = [len(part) for part in parts.values()]
            span.attrs["skew"] = ratio(
                max(sizes), sum(sizes) / wh.shards
            )
            return parts

        wh.router.split_rows = split_rows
        # the handles are only reachable through the private list
        for handle in wh._handles:
            tracer.wrap(handle, "submit", "runtime.shardproc.submit")

    def layer_extras(self, state, outcome, plain, seed, metrics):
        wh = state.systems[0]
        handles = wh._handles
        pings = []
        for _ in range(50):
            started = time.perf_counter()
            handles[0].call("ping")
            pings.append(time.perf_counter() - started)
        fragments = [
            decode_rows(
                handle.call("query", view=self.view, equalities={}, seq=None)[
                    "rows"
                ]
            )
            for handle in handles
        ]
        plan = plan_view(state.definitions[self.view], wh.db, wh.spec)
        merges = []
        for _ in range(5):
            started = time.perf_counter()
            merged = merge_view_rows(plan, fragments)
            merges.append(time.perf_counter() - started)
        # the same operation list on one shard, as the reference
        reference = self.build(seed, len({op.group for op in state.ops}), 1)
        try:
            single = self.run(reference, None, NO_DEADLINE)
        finally:
            self.teardown(reference)
        return {
            "runtime.shardproc.roundtrip_ms_p50": median(pings) * 1e3,
            "runtime.sharding.merge_ms_per_krow": ratio(
                median(merges) * 1e6, len(merged)
            ),
            "sharded.probe_p50_us": median(outcome.times(PROBE)) * 1e6,
            # what the coordinator cannot see into: its root span minus
            # its own traced calls (encode, worker time, report merge)
            "sharded.worker_opaque_ms_per_change": metrics[
                "warehouse.self_ms_per_change"
            ],
            "sharded.speedup_vs_1shard": ratio(
                ratio(plain.write_rows(), plain.wall),
                ratio(single.write_rows(), single.wall),
            ),
        }


WORKLOADS = {
    w.name: w
    for w in (
        PaperRefreshBulk(),
        WarehouseDurableSmall(),
        ServingMixed(),
        ShardedBulk(),
    )
}


def wire_cost(ops) -> Dict[str, float]:
    """``encode_rows`` / ``decode_rows`` called directly on the
    workload's own write batches."""
    batches = [op.rows for op in ops if op.kind in WRITES][:50]
    rows = sum(len(batch) for batch in batches)
    started = time.perf_counter()
    encoded = [encode_rows(batch) for batch in batches]
    middle = time.perf_counter()
    for blob in encoded:
        decode_rows(blob)
    ended = time.perf_counter()
    return {
        "planner.wire.encode_us_per_krow": ratio(
            (middle - started) * 1e9, rows
        ),
        "planner.wire.decode_us_per_krow": ratio((ended - middle) * 1e9, rows),
    }
