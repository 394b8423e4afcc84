"""Shared machinery of the perf workloads: statistics, the closed loop,
the bare-maintainer shim, between-operation bookkeeping and the
per-layer ledger computed from spans."""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.core import MaterializedView, ViewMaintainer

from fixtures import DELETE, INSERT, PROBE, SCAN, WRITES, Op, family
from tracing import Span, Tracer, self_times

ROOT_SPAN = {INSERT: "change", DELETE: "change", PROBE: "read", SCAN: "scan"}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------
KERNEL_LOOPS = 40_000
KERNEL_REFERENCE_S = 1.7e-3  # this box's usual kernel time


class Calibrator:
    """A fixed pure-Python kernel, timed between operations.

    This sandbox's execution speed drifts by a quarter on every scale
    from seconds to minutes (README.md, "Machine speed"), so identical
    runs differ by more than any bound the benchmark could fix.  The
    kernel runs before every write operation, outside every timed call,
    and :meth:`factor` is how much slower than the reference the machine
    ran *during this run*.  End-to-end times are divided by it.  The
    kernel allocates no container, so it never triggers a collection
    over the program's heap, and it is timed in thread CPU time, so
    waiting for the GIL does not count.
    """

    def __init__(self):
        self.samples: List[float] = []

    def __call__(self) -> None:
        started = time.thread_time()
        total = 0
        for i in range(KERNEL_LOOPS):
            total += i * i
        self.samples.append(time.thread_time() - started)

    def factor(self, q: float = 0.5) -> float:
        """Kernel time over the reference.  A closed loop takes the
        median: nothing else runs, and slow phases slow the operations
        alike.  The open loop takes the fastest fifth (``q=0.2``): a
        sample the reader thread interrupts is slower for reasons that
        belong to the program, not to the machine."""
        return percentile(self.samples, q) / KERNEL_REFERENCE_S


# ---------------------------------------------------------------------------
# systems under test
# ---------------------------------------------------------------------------
class BareSystem:
    """One bare :class:`ViewMaintainer` behind the warehouse's
    ``insert`` / ``delete`` / ``query`` surface, so the closed loop
    drives all workloads alike.  No ``repro.warehouse`` / ``runtime`` /
    ``obs`` code runs behind it."""

    def __init__(self, db, definition, maintainer_class=ViewMaintainer):
        self.db = db
        self.name = definition.name
        self.view = MaterializedView.materialize(definition, db)
        self.maintainer = maintainer_class(db, self.view)

    def insert(self, table, rows):
        return {self.name: self.maintainer.insert(table, rows)}

    def delete(self, table, rows):
        return {self.name: self.maintainer.delete(table, rows)}

    def query(self, view, **equalities):
        if equalities:
            return self.view.lookup(**equalities)
        return self.view.rows()

    def check_consistency(self):
        self.maintainer.check_consistency()


def execute(system, op: Op):
    if op.kind == INSERT:
        return system.insert(op.target, op.rows)
    if op.kind == DELETE:
        return system.delete(op.target, op.rows)
    if op.kind == PROBE:
        return system.query(op.target, **op.key)
    return system.query(op.target)


# ---------------------------------------------------------------------------
# between-operation bookkeeping (never inside a timed operation)
# ---------------------------------------------------------------------------
class Observer:
    """Checks read results and keeps the exact counts of a pass.

    *warehouse* is a local (unsharded) warehouse whose snapshot and WAL
    state the benchmark can see; ``None`` for bare and sharded systems.
    """

    def __init__(self, warehouse=None):
        self.warehouse = warehouse
        self.read_errors: List[str] = []
        self.base_rows = 0
        self.writes = 0
        self.primary_rows = 0
        self.secondary_rows = 0
        self.rows_copied = 0
        self.wal_bytes = 0
        self.wal_rows = 0
        self._versions: Dict[str, int] = {}
        self._wal_size = 0
        self._published = 0
        if warehouse is not None:
            self._published = warehouse.snapshots.published_count
            self._changed_rows()
            if warehouse.wal is not None:
                self._wal_size = warehouse.wal.disk_bytes()

    def __call__(self, op: Op, result) -> None:
        if op.kind == PROBE:
            # a full-key probe finds at most one row, holding the key
            if len(result) > 1 or (
                result and not all(v in result[0] for v in op.key.values())
            ):
                self.read_errors.append(f"probe {op.target} {op.key}")
        elif op.kind == SCAN:
            if not result:
                self.read_errors.append(f"scan {op.target} returned nothing")
        else:
            self.note_write(op, result)

    def note_write(self, op: Op, reports) -> None:
        self.writes += 1
        self.base_rows += len(op.rows)
        for report in reports.values():
            self.primary_rows += report.primary_rows
            self.secondary_rows += sum(report.secondary_rows.values())
        wh = self.warehouse
        if wh is None:
            return
        self.rows_copied += self._changed_rows()
        if wh.wal is not None:
            size = wh.wal.disk_bytes()
            # a checkpoint compacts the log: skip that change's delta
            if size > self._wal_size:
                self.wal_bytes += size - self._wal_size
                self.wal_rows += len(op.rows)
            self._wal_size = size

    def _changed_rows(self) -> int:
        """Rows a snapshot publication copies now: the size of every
        table and view whose version moved since the last look."""
        wh = self.warehouse
        objects = list(wh.db.tables.items())
        objects += [(name, wh.view(name)) for name in wh.view_names]
        copied = 0
        for name, obj in objects:
            if self._versions.get(name) != obj.version:
                self._versions[name] = obj.version
                copied += len(obj)
        return copied

    def counts(self) -> Dict[str, float]:
        wh = self.warehouse
        return {
            "published": (
                wh.snapshots.published_count - self._published if wh else 0
            ),
            "writes": self.writes,
            "base_rows": self.base_rows,
            "primary_rows": self.primary_rows,
            "secondary_rows": self.secondary_rows,
            "rows_copied": self.rows_copied,
            "wal_bytes": self.wal_bytes,
            "wal_rows": self.wal_rows,
        }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
class Outcome:
    """What one pass over an operation list produced."""

    def __init__(self):
        self.samples: List[tuple] = []  # (op, seconds)
        self.failed = 0
        self.attempted = 0
        self.wall = 0.0
        self.truncated = False
        self.open_loop = False
        self.machine_factor = 1.0
        self.extra: Dict[str, object] = {}

    def times(self, kind=None, target=None, lane=0) -> List[float]:
        return [
            seconds
            for op, seconds in self.samples
            if (kind is None or op.kind == kind)
            and (target is None or op.target == target)
            and op.lane == lane
        ]

    def write_rows(self) -> int:
        return sum(
            len(op.rows) for op, _ in self.samples if op.kind in WRITES
        )


def closed_loop(
    systems: Sequence,
    ops: Sequence[Op],
    observers: Sequence[Observer],
    tracer: Optional[Tracer],
    deadline: float,
) -> Outcome:
    """One client: each operation starts when the previous returned.
    The list is fixed (so counts repeat exactly); *deadline* only stops
    a run that has fallen far behind, at a group boundary."""
    out = Outcome()
    calibrate = Calibrator()
    group = None
    started = time.perf_counter()
    for index, op in enumerate(ops):
        if op.group != group:
            group = op.group
            if time.perf_counter() > deadline:
                out.truncated = True
                break
        if op.kind in WRITES:
            calibrate()
        out.attempted += 1
        span = None
        if tracer is not None:
            span = tracer.begin(
                ROOT_SPAN[op.kind], cid=index, root=True,
                kind=op.kind, target=op.target, lane=op.lane,
            )
        begun = time.perf_counter()
        try:
            result = execute(systems[op.lane], op)
            elapsed = time.perf_counter() - begun
        except Exception:
            out.failed += 1
            if out.failed == 1:
                traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if span is not None:
                tracer.end(span)
        out.samples.append((op, elapsed))
        observers[op.lane](op, result)
    out.wall = time.perf_counter() - started
    out.machine_factor = calibrate.factor()
    return out


# ---------------------------------------------------------------------------
# the per-layer ledger
# ---------------------------------------------------------------------------
class Ledger:
    """Per-layer numbers of one traced pass, read off its spans."""

    def __init__(self, tracer: Tracer):
        self.spans = list(tracer.spans)  # later probes may add more
        self.samples = tracer.samples
        self.self = self_times(self.spans)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)
        self.changes = [
            s for s in self.by_name["change"] if s.attrs.get("lane", 0) == 0
        ]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.by_name[name])

    def total_self(self, name: str) -> float:
        return sum(self.self[s.id] for s in self.by_name[name])

    def per_change_ms(self, seconds: float) -> float:
        return ratio(seconds * 1e3, len(self.changes))

    def p50_ms(self, name: str) -> float:
        return median([s.duration for s in self.by_name[name]]) * 1e3

    def metrics(self) -> Dict[str, float]:
        maintain = self.by_name["core.maintain"]
        by_change: Dict[object, List[float]] = defaultdict(list)
        by_family: Dict[str, float] = defaultdict(float)
        for span in maintain:
            by_change[span.cid].append(span.duration)
            by_family[family(span.attrs["view"])] += span.duration
        shortcut = [
            s.duration
            for s in self.changes
            if s.attrs["target"] in ("customer", "part")
        ]
        out = {
            "engine.db_apply_ms_per_change": self.per_change_ms(
                self.total("engine.db.insert")
                + self.total("engine.db.delete")
            ),
            "warehouse.self_ms_per_change": self.per_change_ms(
                sum(self.self[s.id] for s in self.changes)
            ),
            "warehouse.fk_shortcut_change_ms": median(shortcut) * 1e3,
            "runtime.wal.append_ms_p50": self.p50_ms("runtime.wal.append"),
            "runtime.wal.ack_ms_p50": self.p50_ms("runtime.wal.ack"),
            "runtime.scheduler.overhead_ms_per_change": self.per_change_ms(
                self.total_self("runtime.scheduler.submit")
                + self.total_self("runtime.scheduler.dispatch")
            ),
            "runtime.scheduler.queue_wait_ms_p50": median(
                self.samples["queue_wait"]
            ) * 1e3,
            "core.maintain.sum_ms_per_change": self.per_change_ms(
                sum(s.duration for s in maintain)
            ),
            "core.maintain.max_view_ms_per_change": self.per_change_ms(
                sum(max(times) for times in by_change.values())
            ),
            "core.view.apply_ms_per_change": self.per_change_ms(
                self.total("core.view.apply")
            ),
            "runtime.snapshots.publish_ms_p50": self.p50_ms(
                "runtime.snapshots.publish"
            ),
            "runtime.snapshots.query_p50_us": median(
                [s.duration for s in self.by_name["read"]]
            ) * 1e6,
            "runtime.checkpoint.write_s_p50": median(
                [s.duration for s in self.by_name["runtime.checkpoint.write"]]
            ),
            "runtime.checkpoint.count": len(
                self.by_name["runtime.checkpoint.write"]
            ),
            "runtime.sharding.split_us_per_krow": ratio(
                self.total("runtime.sharding.split_rows") * 1e9,
                sum(
                    s.attrs["rows"]
                    for s in self.by_name["runtime.sharding.split_rows"]
                ),
            ),
        }
        splits = self.by_name["runtime.sharding.split_rows"]
        out["runtime.sharding.fanout_skew"] = median(
            [s.attrs["skew"] for s in splits]
        )
        for name in ("v3", "v2", "oj"):
            out[f"core.maintain.{name}_ms"] = self.per_change_ms(
                by_family[name]
            )
        return out

    def completeness(self) -> Dict[str, object]:
        """Where the median change went: self time per span name, and
        the share of the root span that named layers account for."""
        if not self.changes:
            return {"coverage": 0.0, "rows": []}
        roots = {root.cid: root for root in self.changes}
        by_cid: Dict[object, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        calls: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span.cid in roots and span.attrs.get("lane", 0) == 0:
                by_cid[span.cid][span.name] += self.self[span.id]
                calls[span.name] += 1
        # with a dispatcher thread the change continues, parentless,
        # after its root span returned: measure against both
        whole: Dict[object, float] = defaultdict(float)
        for span in self.spans:
            if span.cid in roots and span.parent is None:
                whole[span.cid] += span.duration
        coverages = [
            ratio(
                sum(t for n, t in by_cid[cid].items() if n != "change"),
                whole[cid],
            )
            for cid in roots
        ]
        count = len(roots)
        rows = [
            {
                "span": name,
                "calls_per_change": calls[name] / count,
                "self_ms_per_change": sum(
                    by_cid[cid].get(name, 0.0) for cid in roots
                ) * 1e3 / count,
            }
            for name in sorted(calls)
        ]
        return {
            "coverage": median(coverages),
            "root_ms_p50": median(list(whole.values())) * 1e3,
            "rows": rows,
        }


def trace_local_warehouse(wh, tracer: Tracer) -> None:
    """Install the span wrappers on a local :class:`Warehouse` the
    benchmark constructed (and on its views, WAL, scheduler, ...)."""
    tracer.wrap(wh.db, "insert", "engine.db.insert")
    tracer.wrap(wh.db, "delete", "engine.db.delete")
    if wh.wal is not None:
        tracer.wrap(wh.wal, "append", "runtime.wal.append")
        tracer.wrap(wh.wal, "ack", "runtime.wal.ack")
        tracer.wrap(wh.wal, "sync", "runtime.wal.sync")
    tracer.wrap_submit(wh.scheduler)
    tracer.wrap(wh.snapshots, "publish", "runtime.snapshots.publish")
    if wh.checkpoints is not None:
        tracer.wrap(wh.checkpoints, "write", "runtime.checkpoint.write")
    for name in wh.view_names:
        trace_maintainer(wh.maintainer(name), tracer, name)


def trace_maintainer(maintainer, tracer: Tracer, name: str) -> None:
    tracer.wrap(maintainer, "maintain", "core.maintain", view=name)
    tracer.wrap(maintainer.view, "insert_rows", "core.view.apply")
    tracer.wrap(maintainer.view, "delete_rows", "core.view.apply")
