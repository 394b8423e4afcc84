"""The paper's evaluation (Section 7) as one declarative experiment table.

    python -m repro.bench table1      # Table 1: term cardinalities
    python -m repro.bench figure5a    # Figure 5(a): insertion costs
    python -m repro.bench figure5b    # Figure 5(b): deletion costs
    python -m repro.bench fkshortcut  # §7 prose: customer/part updates
    python -m repro.bench ablations   # A1–A3 design-choice ablations
    python -m repro.bench scaling     # incremental vs recompute at growing SF
    python -m repro.bench all

An experiment is a list of cells over the axes scale × view × maintainer
× table × operation × batch (:func:`cells`).  :meth:`Workbench.measure`
runs one cell on a fresh clone, checks the view against a full recompute
and returns one record; every experiment's records have the same keys.
``seconds`` is always the maintainer's ``MaintenanceReport.elapsed_seconds``:
the view work, without the base-table update.  :func:`print_records`
pivots the records into the paper's tables; ``--csv PATH`` writes them.
Runtime numbers are not measured here: ``perf/run.py`` is the one
runtime benchmark (see docs/PERFORMANCE.md).

``--trace PATH`` turns telemetry on: maintenance spans are appended to
PATH as JSON lines and the measured per-phase costs are printed after
the tables; ``--metrics PATH`` also dumps the Prometheus registry.

The paper ran SF 10 with batches of 60–60,000 lineitems on SQL Server;
this pure-Python engine defaults to SF 0.01 with batches scaled by 1/100.
Absolute times are not comparable; the *shape* — outer-join view ≈ core
view, Griffin–Kumar degrading with batch size and much worse on deletes —
is the reproduced result, recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import Q, eq
from .baselines import GriffinKumarMaintainer, RecomputeMaintainer, core_view_definition
from .core import (SECONDARY_FROM_BASE, MaintenanceOptions, MaterializedView, ViewDefinition,
                   ViewMaintainer)
from .engine import Database
from .obs import Telemetry
from .tpch import cached_instance, v3

DEFAULT_SCALE = 0.01
DEFAULT_BATCH_SCALE = 0.01
DEFAULT_SEED = 20070415
PAPER_BATCHES = (60, 600, 6_000, 60_000)
SCALING_SCALES = (0.002, 0.005, 0.01, 0.02)
EXPERIMENTS = ("table1", "figure5a", "figure5b", "fkshortcut", "ablations", "scaling", "all")

# The ViewMaintainer-based maintainers by label; "gk" and "recompute"
# are the two baselines.  "ours+terms" also counts the rows each term
# receives (Table 1).
OPTIONS: Dict[str, MaintenanceOptions] = {
    "ours": MaintenanceOptions(),
    "ours+terms": MaintenanceOptions(count_term_rows=True),
    "A1 bushy ΔV^D": MaintenanceOptions(left_deep=False),
    "A2 secondary from base": MaintenanceOptions(secondary_strategy=SECONDARY_FROM_BASE),
    "A3 no FK exploitation": MaintenanceOptions(use_foreign_keys=False),
}
ABLATIONS = ("ours", "A1 bushy ΔV^D", "A2 secondary from base", "A3 no FK exploitation")
# Figure 5's columns: "core" is ours on V3's inner-join core view
FIGURE5 = ("core", "ours", "gk", "recompute")
# Table 1's terms of V3, named by the tables they keep non-null
TERMS = {"{customer,lineitem,orders,part}": "COLP", "{customer,lineitem,orders}": "COL",
         "{customer}": "C", "{part}": "P"}
# Table 1's letters, each with a column that is non-null where its table is
TERM_PROBES = {"C": "customer.c_custkey", "O": "orders.o_orderkey",
               "L": "lineitem.l_linenumber", "P": "part.p_partkey"}
DIMENSION_BATCH = 100  # customer/part inserts (the FK short-circuit)
SCALING_BATCH = 60
FK_LABELS = {"ours": "incremental", "recompute": "recompute"}
# the five-table full-outer-join chain: 15 normal-form terms, up to 9
# indirectly affected by a middle-table update, where the §5.2 and §5.3
# secondary-delta strategies separate (V3 has only two such terms)
CHAIN_TABLES, CHAIN_ROWS, CHAIN_VALUES, CHAIN_BATCH = 5, 200, 50, 30


@dataclass(frozen=True)
class Cell:
    """The axes of one measurement."""

    experiment: str
    scale: float
    view: str  # "v3", "core" (V3's inner-join core) or "chain"
    maintainer: str  # a key of OPTIONS, "gk" or "recompute"
    table: str
    operation: str  # "insert" or "delete"
    batch: int


def scaled_batches(batch_scale: float, paper: Sequence[int] = PAPER_BATCHES) -> List[int]:
    """The paper's batch sizes times *batch_scale*: at least one row each,
    deduplicated, increasing."""
    return sorted({max(1, int(size * batch_scale)) for size in paper})


def cells(
    experiment: str, scale: float = DEFAULT_SCALE, batch_scale: float = DEFAULT_BATCH_SCALE
) -> List[Cell]:
    """Every cell of *experiment*."""
    one = (scale,)
    li_insert, li_delete = ("lineitem", "insert"), ("lineitem", "delete")
    figure5 = [("core", "ours")] + [("v3", name) for name in FIGURE5[1:]]
    ablated = [("v3", name) for name in ABLATIONS]
    chain = [("chain", "ours"), ("chain", "A2 secondary from base")]
    paper = scaled_batches(batch_scale)
    # blocks of (scales, [(view, maintainer)], [(table, operation)], batches)
    blocks: Dict[str, List[Tuple]] = {
        "table1": [(one, [("v3", "ours+terms")], [li_insert], paper[-1:])],
        "figure5a": [(one, figure5, [li_insert], paper)],
        "figure5b": [(one, figure5, [li_delete], paper)],
        "fkshortcut": [
            (one, [("v3", "ours"), ("v3", "recompute")],
             [("customer", "insert"), ("part", "insert")], [DIMENSION_BATCH]),
            (one, [("v3", "ours")], [("orders", "insert")], [1]),
        ],
        "ablations": [
            (one, ablated, [li_insert, li_delete], scaled_batches(batch_scale, (6_000,))),
            (one, ablated, [("part", "insert")], [DIMENSION_BATCH]),
            (one, chain, [("t2", "insert"), ("t2", "delete")], [CHAIN_BATCH]),
        ],
        "scaling": [
            (SCALING_SCALES, [("v3", "ours"), ("v3", "recompute")], [li_insert], [SCALING_BATCH])
        ],
    }
    return [
        Cell(experiment, sf, view, maintainer, table, operation, batch)
        for scales, maintainers, updates, batches in blocks[experiment]
        for sf in scales
        for batch in batches
        for table, operation in updates
        for view, maintainer in maintainers
    ]


def chain_definition() -> ViewDefinition:
    q = Q.table("t0")
    for i in range(1, CHAIN_TABLES):
        q = q.full_outer_join(f"t{i}", on=eq(f"t{i - 1}.v", f"t{i}.v"))
    return ViewDefinition("chain", q.build())


def chain_database() -> Database:
    rng = random.Random(11)
    db = Database()
    for i in range(CHAIN_TABLES):
        db.create_table(f"t{i}", ["k", "v"], key=["k"])
        db.insert(f"t{i}", [(k, rng.randrange(CHAIN_VALUES)) for k in range(CHAIN_ROWS)])
    return db


class Workbench:
    """One TPC-H instance (and the chain database) at one scale, with a
    materialized template per view that every measurement clones."""

    def __init__(self, scale: float, seed: int = DEFAULT_SEED):
        self.scale = scale
        self.generator, self.db = cached_instance(scale, seed)
        self._templates: Dict[str, Tuple[Database, MaterializedView]] = {}

    def template(self, view: str) -> Tuple[Database, MaterializedView]:
        """The shared (db, materialized view) pair; never maintained."""
        if view not in self._templates:
            db = chain_database() if view == "chain" else self.db
            definition = {"v3": v3, "core": lambda: core_view_definition(v3()),
                          "chain": chain_definition}[view]()
            self._templates[view] = (db, MaterializedView.materialize(definition, db))
        return self._templates[view]

    def fresh_state(self, view: str) -> Tuple[Database, MaterializedView]:
        """(db copy, view clone) — isolated per measurement."""
        db, template = self.template(view)
        return db.copy(), template.clone()

    def term_counts(self) -> Counter:
        """Rows of V3 per normal-form term, by Table 1's label."""
        __, view = self.template("v3")
        probes = {letter: view.schema.index_of(c) for letter, c in TERM_PROBES.items()}
        return Counter(
            "".join(letter for letter, i in probes.items() if row[i] is not None)
            for row in view.rows()
        )

    def _batch(self, cell: Cell, db: Database) -> List[Tuple]:
        rng = random.Random(cell.batch)
        if cell.operation == "delete" and cell.view == "chain":
            return rng.sample(db.table(cell.table).rows, cell.batch)
        if cell.operation == "delete":
            return self.generator.lineitem_delete_batch(db, cell.batch, seed=cell.batch)
        if cell.view == "chain":
            return [(CHAIN_ROWS + i, rng.randrange(CHAIN_VALUES)) for i in range(cell.batch)]
        if cell.table == "orders":  # no lineitem refers to a new order
            return [
                (10_000_000 + i, 1, "O", 100.0, "1994-07-01", "Clerk#000000001")
                for i in range(cell.batch)
            ]
        maker = getattr(self.generator, f"{cell.table}_insert_batch")
        return maker(cell.batch, seed=cell.batch)

    def measure(self, cell: Cell, telemetry: Optional[Telemetry] = None) -> Dict:
        """Run *cell* on a fresh clone, check the view against a full
        recompute, and return the cell's axes plus what the pass did."""
        db, view = self.fresh_state(cell.view)
        if cell.maintainer == "gk":
            maintainer = GriffinKumarMaintainer(db, view)
        elif cell.maintainer == "recompute":
            maintainer = RecomputeMaintainer(db, view)
        else:
            maintainer = ViewMaintainer(db, view, OPTIONS[cell.maintainer], telemetry=telemetry)
        table_rows = len(db.table(cell.table))
        report = getattr(maintainer, cell.operation)(cell.table, self._batch(cell, db))
        maintainer.check_consistency()
        terms = Counter(report.primary_term_rows)
        terms.update(report.secondary_rows)
        return {
            **asdict(cell),
            "seconds": report.elapsed_seconds,
            "table_rows": table_rows,
            "base_rows": report.base_rows,
            "primary_rows": report.primary_rows,
            "primary_skipped": report.primary_skipped,
            "indirect_terms": len(report.indirect_terms),
            "secondary_rows": sum(report.secondary_rows.values()),
            "term_rows": dict(terms),
            "view_changes": report.total_view_changes,
        }


def run(
    experiment: str,
    scale: float = DEFAULT_SCALE,
    batch_scale: float = DEFAULT_BATCH_SCALE,
    seed: int = DEFAULT_SEED,
    telemetry: Optional[Telemetry] = None,
    quiet: bool = False,
) -> List[Dict]:
    """Measure every cell of *experiment* (``"all"``: of every one),
    printing each experiment's table unless *quiet*; return the records."""
    names = EXPERIMENTS[:-1] if experiment == "all" else (experiment,)
    records: List[Dict] = []
    bench: Optional[Workbench] = None
    for name in names:
        rows = []
        for cell in cells(name, scale, batch_scale):
            if bench is None or bench.scale != cell.scale:
                bench = Workbench(cell.scale, seed)
            rows.append(bench.measure(cell, telemetry))
        if not quiet:
            print_records(name, rows, bench)
        records += rows
    return records


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


def _pivot(records: List[Dict], row: Callable, column: Callable) -> Dict[object, Dict]:
    """``{row key: {column key: record}}``, rows in first-seen order."""
    grid: Dict[object, Dict] = {}
    for record in records:
        grid.setdefault(row(record), {})[column(record)] = record
    return grid


def _seconds(record: Optional[Dict], digits: int) -> str:
    return "-" if record is None else f"{record['seconds']:.{digits}f}"


def print_records(experiment: str, records: List[Dict], bench: Workbench) -> None:
    """Pivot one experiment's records into the paper's table."""
    first = records[0]
    sf, batch = first["scale"], first["batch"]
    if experiment == "table1":
        counts = bench.term_counts()
        title = f"Table 1 — terms of V3 (SF={sf}, insert {batch} lineitems)"
        headers = ["Term", "Cardinality", "Rows affected"]
        rows = [
            (label, counts[label], first["term_rows"].get(term, 0))
            for term, label in TERMS.items()
        ]
    elif experiment in ("figure5a", "figure5b"):
        label = "5(a) insertion" if experiment == "figure5a" else "5(b) deletion"
        title = f"Figure {label} costs, seconds (SF={sf})"
        headers = ["lineitem rows", *FIGURE5]
        grid = _pivot(records, itemgetter("batch"),
                      lambda r: "core" if r["view"] == "core" else r["maintainer"])
        rows = [[n] + [_seconds(row[name], 3) for name in FIGURE5] for n, row in grid.items()]
    elif experiment == "fkshortcut":
        title = f"FK short-circuit (SF={sf}, {DIMENSION_BATCH} rows)"
        headers = ["Update", "Seconds / rows"]
        rows = [
            (f"{r['table']}/view_changes", r["view_changes"])
            if r["table"] == "orders"
            else (f"{r['table']}/{FK_LABELS[r['maintainer']]}", _seconds(r, 4))
            for r in records
        ]
    elif experiment == "ablations":
        title = f"Ablations on V3 (SF={sf}, lineitem batch {batch}, part batch {DIMENSION_BATCH})"
        headers = ["Variant", "Insert s", "Delete s", "Part ins s"]
        grid = _pivot(
            records,
            lambda r: ("full algorithm" if r["maintainer"] == "ours" else r["maintainer"])
            + (" (chain)" if r["view"] == "chain" else ""),
            lambda r: (r["table"] == "part", r["operation"]),
        )
        rows = [
            (variant, _seconds(row.get((False, "insert")), 3),
             _seconds(row.get((False, "delete")), 3), _seconds(row.get((True, "insert")), 4))
            for variant, row in grid.items()
        ]
    else:
        title = f"Scaling sweep: insert {batch} lineitems at growing SF"
        headers = ["SF", "lineitem rows", "incremental s", "recompute s"]
        grid = _pivot(records, itemgetter("scale"), itemgetter("maintainer"))
        rows = [
            (scale, row["ours"]["table_rows"], _seconds(row["ours"], 4),
             _seconds(row["recompute"], 3))
            for scale, row in grid.items()
        ]
    print_table(title, headers, rows)


def write_csv(path: str, rows: List[Dict]) -> None:
    """Dump records (one dict per row) as CSV; dict values as JSON."""
    if not rows:
        return
    columns = list(dict.fromkeys(key for record in rows for key in record))
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for record in rows:
            writer.writerow(
                {k: json.dumps(v) if isinstance(v, dict) else v for k, v in record.items()}
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench", description=__doc__)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--batch-scale", type=float, default=DEFAULT_BATCH_SCALE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--csv", metavar="PATH", help="also write every record to PATH as CSV")
    parser.add_argument("--trace", metavar="PATH", help="enable telemetry: append maintenance "
                        "spans to PATH as JSON lines and print the measured per-phase costs")
    parser.add_argument("--metrics", metavar="PATH",
                        help="with --trace: also dump the Prometheus registry to PATH")
    args = parser.parse_args(argv)
    if args.metrics and not args.trace:
        parser.error("--metrics needs --trace")

    telemetry = Telemetry(trace_path=args.trace) if args.trace else None
    records = run(args.experiment, args.scale, args.batch_scale, args.seed, telemetry)
    if args.csv:
        write_csv(args.csv, records)
    if telemetry is not None:
        print()
        print("Measured costs (telemetry):")
        print(telemetry.dashboard())
        if args.metrics:
            telemetry.write_metrics(args.metrics)
        telemetry.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
