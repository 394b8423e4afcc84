"""Benchmark harness regenerating the paper's evaluation (Section 7).

Run individual experiments or everything::

    python -m repro.bench table1      # Table 1: term cardinalities
    python -m repro.bench figure5a    # Figure 5(a): insertion costs
    python -m repro.bench figure5b    # Figure 5(b): deletion costs
    python -m repro.bench fkshortcut  # §7 prose: customer/part updates
    python -m repro.bench ablations   # A1–A3 design-choice ablations
    python -m repro.bench scaling     # incremental vs recompute at growing SF
    python -m repro.bench all

Runtime numbers (durability, serving, sharding, telemetry overhead, plan
cache) are not measured here: ``perf/run.py`` is the one runtime
benchmark (see docs/PERFORMANCE.md).

Pass ``--trace PATH`` to run the experiments with telemetry enabled:
maintenance passes emit spans to a JSON-lines file, the per-phase
*measured* costs are printed after the tables, and ``--metrics PATH``
additionally dumps the Prometheus registry.

Scale: the paper used a 10 GB TPC-H database and batches of 60–60,000
lineitems on SQL Server.  This harness runs a pure-Python engine, so it
defaults to SF 0.01 (~60k lineitems) with batches scaled by 1/100
(6–6,000 rows); pass ``--scale``/``--batch-scale`` to change.  Absolute
times are not comparable to the paper's; the *shape* — outer-join view ≈
core view, Griffin–Kumar degrading with batch size and much worse on
deletes — is the reproduced result and is what EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .baselines import (
    GriffinKumarMaintainer,
    RecomputeMaintainer,
    core_view_definition,
)
from .obs import Telemetry
from .core import (
    MaintenanceOptions,
    MaterializedView,
    SECONDARY_FROM_BASE,
    ViewMaintainer,
)
from .tpch import cached_instance, v3

DEFAULT_SCALE = 0.01
DEFAULT_BATCH_SCALE = 0.01
PAPER_BATCHES = (60, 600, 6_000, 60_000)
EXPERIMENTS = (
    "table1",
    "figure5a",
    "figure5b",
    "fkshortcut",
    "ablations",
    "scaling",
    "all",
)


# ---------------------------------------------------------------------------
# infrastructure
# ---------------------------------------------------------------------------
class Workbench:
    """One TPC-H instance plus cloning helpers for repeatable timing."""

    def __init__(self, scale: float, seed: int = 20070415):
        started = time.perf_counter()
        self.generator, self.db = cached_instance(scale, seed)
        self.build_seconds = time.perf_counter() - started

    def fresh_state(self, definition):
        """(db copy, materialized view) — isolated per measurement."""
        db = self.db.copy()
        view = MaterializedView.materialize(definition, db)
        return db, view


def timed(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def print_table(title: str, headers: Sequence[str], rows: List[Sequence]):
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# E1 — Table 1: term cardinalities and rows affected
# ---------------------------------------------------------------------------
TERM_ORDER = (
    ("{customer,lineitem,orders,part}", "COLP"),
    ("{customer,lineitem,orders}", "COL"),
    ("{customer}", "C"),
    ("{part}", "P"),
)


def run_table1(
    scale: float = DEFAULT_SCALE,
    batch_scale: float = DEFAULT_BATCH_SCALE,
    seed: int = 20070415,
    quiet: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, Tuple[int, int]]:
    """Reproduce Table 1: per-term view cardinality plus rows affected by
    a scaled 60,000-row lineitem insertion.  Returns
    ``{label: (cardinality, affected)}``."""
    bench = Workbench(scale, seed)
    defn = v3()
    db, view = bench.fresh_state(defn)

    # cardinalities by term signature
    signatures: Dict[str, int] = {label: 0 for __, label in TERM_ORDER}
    schema = view.schema
    probes = {
        "C": schema.index_of("customer.c_custkey"),
        "O": schema.index_of("orders.o_orderkey"),
        "L": schema.index_of("lineitem.l_linenumber"),
        "P": schema.index_of("part.p_partkey"),
    }
    for row in view.rows():
        sig = "".join(
            letter for letter in "COLP" if row[probes[letter]] is not None
        )
        if sig in signatures:
            signatures[sig] += 1

    batch_size = max(1, int(60_000 * batch_scale))
    maintainer = ViewMaintainer(
        db, view, MaintenanceOptions(count_term_rows=True),
        telemetry=telemetry,
    )
    batch = bench.generator.lineitem_insert_batch(batch_size, seed=1)
    report = maintainer.insert("lineitem", batch)
    maintainer.check_consistency()

    affected: Dict[str, int] = {}
    for source_label, label in TERM_ORDER:
        direct = report.primary_term_rows.get(source_label, 0)
        secondary = report.secondary_rows.get(source_label, 0)
        affected[label] = direct + secondary

    results = {
        label: (signatures[label], affected[label])
        for __, label in TERM_ORDER
    }
    if not quiet:
        print_table(
            f"Table 1 — terms of V3 (SF={scale}, insert {batch_size} lineitems)",
            ["Term", "Cardinality", "Rows affected"],
            [
                (label, card, aff)
                for label, (card, aff) in results.items()
            ],
        )
    return results


# ---------------------------------------------------------------------------
# E2/E3 — Figure 5: maintenance cost vs batch size
# ---------------------------------------------------------------------------
ALGORITHMS = ("core", "ours", "gk")


def _make_maintainer(name: str, db, view, telemetry=None):
    if name == "gk":
        return GriffinKumarMaintainer(db, view)
    return ViewMaintainer(db, view, telemetry=telemetry)


def run_figure5(
    operation: str,
    scale: float = DEFAULT_SCALE,
    batch_scale: float = DEFAULT_BATCH_SCALE,
    seed: int = 20070415,
    algorithms: Sequence[str] = ALGORITHMS,
    include_recompute: bool = False,
    quiet: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> List[Dict[str, float]]:
    """Reproduce Figure 5(a) (``operation="insert"``) or 5(b)
    (``operation="delete"``): elapsed maintenance time for each batch
    size and algorithm.  Returns one dict per batch size."""
    bench = Workbench(scale, seed)
    outer_defn = v3()
    core_defn = core_view_definition(outer_defn)

    batches = [max(1, int(b * batch_scale)) for b in PAPER_BATCHES]
    rows: List[Dict[str, float]] = []
    for batch_index, batch_size in enumerate(batches):
        record: Dict[str, float] = {"batch": batch_size}
        insert_batch = bench.generator.lineitem_insert_batch(
            batch_size, seed=100 + batch_index
        )
        for name in algorithms:
            defn = core_defn if name == "core" else outer_defn
            db, view = bench.fresh_state(defn)
            maintainer = _make_maintainer(name, db, view, telemetry)
            if operation == "insert":
                record[name] = timed(
                    lambda m=maintainer: m.insert("lineitem", list(insert_batch))
                )
            else:
                doomed = bench.generator.lineitem_delete_batch(
                    db, batch_size, seed=200 + batch_index
                )
                record[name] = timed(
                    lambda m=maintainer, d=doomed: m.delete("lineitem", d)
                )
            maintainer.check_consistency()
        if include_recompute:
            db, view = bench.fresh_state(outer_defn)
            rm = RecomputeMaintainer(db, view)
            if operation == "insert":
                record["recompute"] = timed(
                    lambda: rm.insert("lineitem", list(insert_batch))
                )
            else:
                doomed = bench.generator.lineitem_delete_batch(
                    db, batch_size, seed=200 + batch_index
                )
                record["recompute"] = timed(
                    lambda: rm.delete("lineitem", doomed)
                )
        rows.append(record)

    if not quiet:
        names = list(algorithms) + (
            ["recompute"] if include_recompute else []
        )
        label = "5(a) insertion" if operation == "insert" else "5(b) deletion"
        print_table(
            f"Figure {label} costs, seconds (SF={scale})",
            ["lineitem rows"] + [n for n in names],
            [
                [r["batch"]] + [f"{r[n]:.3f}" for n in names]
                for r in rows
            ],
        )
    return rows


# ---------------------------------------------------------------------------
# E4 — the §7 prose claim: customer/part updates are nearly free
# ---------------------------------------------------------------------------
def run_fkshortcut(
    scale: float = DEFAULT_SCALE,
    seed: int = 20070415,
    batch: int = 100,
    quiet: bool = False,
) -> Dict[str, float]:
    """Customer/part inserts on V3 cost O(batch), not O(view):
    the FK machinery reduces them to padded inserts, while a recompute
    pays the full materialization price."""
    bench = Workbench(scale, seed)
    defn = v3()
    results: Dict[str, float] = {}

    for table, maker in (
        ("customer", bench.generator.customer_insert_batch),
        ("part", bench.generator.part_insert_batch),
    ):
        db, view = bench.fresh_state(defn)
        maintainer = ViewMaintainer(db, view)
        results[f"{table}/incremental"] = timed(
            lambda m=maintainer, t=table: m.insert(t, maker(batch))
        )
        maintainer.check_consistency()

        db, view = bench.fresh_state(defn)
        rm = RecomputeMaintainer(db, view)
        results[f"{table}/recompute"] = timed(
            lambda t=table: rm.insert(t, maker(batch, seed=2))
        )

    # orders updates: provably no-ops
    db, view = bench.fresh_state(defn)
    maintainer = ViewMaintainer(db, view)
    report = maintainer.insert(
        "orders",
        [
            (
                10_000_000,
                1,
                "O",
                100.0,
                "1994-07-01",
                "Clerk#000000001",
            )
        ],
    )
    maintainer.check_consistency()
    results["orders/view_changes"] = report.total_view_changes

    if not quiet:
        print_table(
            f"FK short-circuit (SF={scale}, {batch} rows)",
            ["Update", "Seconds / rows"],
            [
                (k, f"{v:.4f}" if isinstance(v, float) else v)
                for k, v in results.items()
            ],
        )
    return results


# ---------------------------------------------------------------------------
# E5 — extended evaluation: scaling in database size
# ---------------------------------------------------------------------------
def run_scaling(
    scales: Sequence[float] = (0.002, 0.005, 0.01, 0.02),
    batch: int = 60,
    seed: int = 20070415,
    quiet: bool = False,
) -> List[Dict[str, float]]:
    """Not a paper figure, but its implicit claim: incremental
    maintenance cost tracks the *delta*, recompute cost tracks the
    *database*.  Fix the batch at 60 lineitems and sweep the scale
    factor; the incremental column should stay nearly flat while the
    recompute column grows linearly."""
    defn = v3()
    rows: List[Dict[str, float]] = []
    for scale in scales:
        bench = Workbench(scale, seed)
        record: Dict[str, float] = {
            "scale": scale,
            "lineitems": len(bench.db.table("lineitem")),
        }

        db, view = bench.fresh_state(defn)
        maintainer = ViewMaintainer(db, view)
        insert_batch = bench.generator.lineitem_insert_batch(batch, seed=61)
        record["incremental"] = timed(
            lambda: maintainer.insert("lineitem", insert_batch)
        )
        maintainer.check_consistency()

        db, view = bench.fresh_state(defn)
        rm = RecomputeMaintainer(db, view)
        insert_batch = bench.generator.lineitem_insert_batch(batch, seed=62)
        record["recompute"] = timed(
            lambda: rm.insert("lineitem", insert_batch)
        )
        rows.append(record)

    if not quiet:
        print_table(
            f"Scaling sweep: insert {batch} lineitems at growing SF",
            ["SF", "lineitem rows", "incremental s", "recompute s"],
            [
                (
                    r["scale"],
                    r["lineitems"],
                    f"{r['incremental']:.4f}",
                    f"{r['recompute']:.3f}",
                )
                for r in rows
            ],
        )
    return rows


# ---------------------------------------------------------------------------
# A1–A3 — ablations
# ---------------------------------------------------------------------------
def run_ablations(
    scale: float = DEFAULT_SCALE,
    batch_scale: float = DEFAULT_BATCH_SCALE,
    seed: int = 20070415,
    quiet: bool = False,
) -> Dict[str, Dict[str, float]]:
    """Flip one design choice at a time on the V3 workload: left-deep
    trees (A1), secondary-delta strategy (A2), FK exploitation (A3).

    Three measurements per variant: a lineitem insert, a lineitem delete
    (fact-table churn) and a part insert (where FK exploitation is the
    whole story: with it the insert is a padded append, without it the
    delta joins run and the orphan terms are probed)."""
    bench = Workbench(scale, seed)
    defn = v3()
    batch_size = max(1, int(6_000 * batch_scale))

    variants: Dict[str, MaintenanceOptions] = {
        "full algorithm": MaintenanceOptions(),
        "A1 bushy ΔV^D": MaintenanceOptions(left_deep=False),
        "A2 secondary from base": MaintenanceOptions(
            secondary_strategy=SECONDARY_FROM_BASE
        ),
        "A3 no FK exploitation": MaintenanceOptions(use_foreign_keys=False),
    }

    out: Dict[str, Dict[str, float]] = {}
    for label, options in variants.items():
        insert_batch = bench.generator.lineitem_insert_batch(
            batch_size, seed=31
        )
        db, view = bench.fresh_state(defn)
        maintainer = ViewMaintainer(db, view, options)
        insert_time = timed(
            lambda: maintainer.insert("lineitem", list(insert_batch))
        )
        maintainer.check_consistency()

        db, view = bench.fresh_state(defn)
        maintainer = ViewMaintainer(db, view, options)
        doomed = bench.generator.lineitem_delete_batch(db, batch_size, seed=32)
        delete_time = timed(lambda: maintainer.delete("lineitem", doomed))
        maintainer.check_consistency()

        db, view = bench.fresh_state(defn)
        maintainer = ViewMaintainer(db, view, options)
        parts = bench.generator.part_insert_batch(100, seed=33)
        part_time = timed(lambda: maintainer.insert("part", parts))
        maintainer.check_consistency()
        out[label] = {
            "insert": insert_time,
            "delete": delete_time,
            "part_insert": part_time,
        }

    if not quiet:
        print_table(
            f"Ablations on V3 (SF={scale}, lineitem batch {batch_size}, "
            "part batch 100)",
            ["Variant", "Insert s", "Delete s", "Part ins s"],
            [
                (
                    k,
                    f"{v['insert']:.3f}",
                    f"{v['delete']:.3f}",
                    f"{v['part_insert']:.4f}",
                )
                for k, v in out.items()
            ],
        )
    return out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def write_csv(path: str, rows: List[Dict[str, float]]) -> None:
    """Dump a list of result records (one dict per row) as CSV."""
    import csv as _csv

    if not rows:
        return
    columns: List[str] = []
    for record in rows:
        for key in record:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="") as handle:
        writer = _csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument(
        "--batch-scale", type=float, default=DEFAULT_BATCH_SCALE
    )
    parser.add_argument("--seed", type=int, default=20070415)
    parser.add_argument(
        "--recompute",
        action="store_true",
        help="include the full-recompute ceiling in Figure 5 output",
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        help="also dump the Figure 5 / scaling series as CSV (suffix "
        "-insert/-delete/-scaling is appended per experiment)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="enable telemetry: emit maintenance spans as JSON lines to "
        "PATH and print measured per-phase costs after the tables",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="with --trace: also dump the Prometheus registry to PATH",
    )
    args = parser.parse_args(argv)

    telemetry = Telemetry(trace_path=args.trace) if args.trace else None

    chosen = args.experiment
    if chosen in ("table1", "all"):
        run_table1(args.scale, args.batch_scale, args.seed, telemetry=telemetry)
    if chosen in ("figure5a", "all"):
        rows = run_figure5(
            "insert",
            args.scale,
            args.batch_scale,
            args.seed,
            include_recompute=args.recompute,
            telemetry=telemetry,
        )
        if args.csv:
            write_csv(_csv_path(args.csv, "insert"), rows)
    if chosen in ("figure5b", "all"):
        rows = run_figure5(
            "delete",
            args.scale,
            args.batch_scale,
            args.seed,
            include_recompute=args.recompute,
            telemetry=telemetry,
        )
        if args.csv:
            write_csv(_csv_path(args.csv, "delete"), rows)
    if chosen in ("fkshortcut", "all"):
        run_fkshortcut(args.scale, args.seed)
    if chosen in ("ablations", "all"):
        run_ablations(args.scale, args.batch_scale, args.seed)
    if chosen in ("scaling", "all"):
        rows = run_scaling(seed=args.seed)
        if args.csv:
            write_csv(_csv_path(args.csv, "scaling"), rows)
    if telemetry is not None:
        print()
        print("Measured costs (telemetry):")
        print(telemetry.dashboard())
        if args.metrics:
            telemetry.write_metrics(args.metrics)
        telemetry.flush()
    return 0


def _csv_path(base: str, suffix: str) -> str:
    if base.endswith(".csv"):
        return f"{base[:-4]}-{suffix}.csv"
    return f"{base}-{suffix}.csv"


if __name__ == "__main__":
    sys.exit(main())
