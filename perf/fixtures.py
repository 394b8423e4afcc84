"""Seeded inputs for the perf workloads.

Everything a workload feeds the program is built here from the seed,
before timing starts, through public ``repro.tpch`` / ``repro.core`` /
``repro.algebra`` APIs only: the TPC-H instance (cached on disk), the
16-view set, the operation lists, key popularity and arrival schedules.
Deletes are sampled from :class:`Mirror`, the generator's *own* copy of
the live ``lineitem`` rows — inputs never depend on program state.
"""

from __future__ import annotations

import bisect
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra import Project
from repro.algebra.predicates import Comparison
from repro.core import ViewDefinition
from repro.tpch import cached_instance, oj_view, v2, v3

DEFAULT_SEED = 20070415
HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(HERE, ".cache")
OUT_DIR = os.path.join(HERE, "out")

INSERT, DELETE, PROBE, SCAN = "insert", "delete", "probe", "scan"
WRITES = (INSERT, DELETE)

# one probe view per family; reads draw their keys from these
PROBE_VIEWS = ("v3_win0", "v2_bal0", "oj_copy0")
KEY_UNIVERSE = 2000  # distinct probe keys per view, ranked by popularity
ZIPF_S = 1.1

Row = Tuple


@dataclass
class Op:
    """One operation of a workload: a base-table change or a view read."""

    kind: str  # INSERT | DELETE | PROBE | SCAN
    target: str  # base table (writes) or view name (reads)
    rows: Sequence = ()  # writes: the base rows
    key: Optional[Dict[str, object]] = None  # PROBE: full view key
    lane: int = 0  # which system of the workload runs it
    group: int = 0  # round / change number the op belongs to
    due: float = 0.0  # open loop: seconds after the start it is due


def instance(scale: float, seed: int):
    """``(generator, database)`` for one TPC-H instance, from the disk
    cache under ``perf/.cache/`` when it is warm."""
    return cached_instance(scale, seed, directory=CACHE_DIR)


# ---------------------------------------------------------------------------
# the 16-view set
# ---------------------------------------------------------------------------
def renamed(definition: ViewDefinition, name: str, db) -> ViewDefinition:
    return ViewDefinition(
        name, Project(definition.join_expr, definition.output_columns(db))
    )


def view_set(db) -> List[ViewDefinition]:
    """16 lineitem-centred views: 8 V3 date windows, 4 V2 balance
    floors, 4 copies of Example 1's outer-join view."""
    views = [
        renamed(
            v3(f"1994-{i + 1:02d}-01", f"1994-{min(12, i + 6):02d}-28"),
            f"v3_win{i}",
            db,
        )
        for i in range(8)
    ]
    views += [
        renamed(
            v2(Comparison("customer.c_acctbal", ">=", floor)),
            f"v2_bal{i}",
            db,
        )
        for i, floor in enumerate((0.0, 1_000.0, 2_500.0, 5_000.0))
    ]
    views += [renamed(oj_view(), f"oj_copy{i}", db) for i in range(4)]
    return views


def family(view_name: str) -> str:
    """``v3`` / ``v2`` / ``oj`` — the per-family ledger key."""
    return view_name.split("_", 1)[0]


# ---------------------------------------------------------------------------
# the live-row mirror and write batches
# ---------------------------------------------------------------------------
class Mirror:
    """The generator's copy of the live ``lineitem`` rows."""

    def __init__(self, rows: Sequence[Row], rng: random.Random):
        self.rows = list(rows)
        self.rng = rng

    def add(self, rows: Sequence[Row]) -> None:
        self.rows.extend(rows)

    def take(self, count: int) -> List[Row]:
        """Remove and return *count* uniformly sampled live rows."""
        out = []
        for _ in range(count):
            i = self.rng.randrange(len(self.rows))
            self.rows[i], self.rows[-1] = self.rows[-1], self.rows[i]
            out.append(self.rows.pop())
        return out


class WriteStream:
    """Seeded write batches over one TPC-H instance.  Batch seeds count
    up from 1, so the n-th batch of a kind is a function of the seed."""

    def __init__(self, generator, db, seed: int):
        self.generator = generator
        self.seed = seed
        self.mirror = Mirror(
            db.table("lineitem").rows, random.Random(seed ^ 0x5EED)
        )
        self._next = {"lineitem": 0, "customer": 0, "part": 0}

    def _seed(self, table: str) -> int:
        self._next[table] += 1
        return self._next[table]

    def insert(self, size: int, **op) -> Op:
        rows = self.generator.lineitem_insert_batch(
            size, seed=self._seed("lineitem")
        )
        self.mirror.add(rows)
        return Op(INSERT, "lineitem", rows, **op)

    def delete(self, size: int, **op) -> Op:
        return Op(DELETE, "lineitem", self.mirror.take(size), **op)

    def dimension_insert(self, table: str, size: int, **op) -> Op:
        """Fresh ``customer`` / ``part`` rows: the paper's §6 FK
        shortcut proves every view's delta empty for these."""
        batch = getattr(self.generator, f"{table}_insert_batch")
        return Op(INSERT, table, batch(size, seed=self._seed(table)), **op)


# ---------------------------------------------------------------------------
# reads: key universes, Zipf popularity, arrival schedules
# ---------------------------------------------------------------------------
class ProbeKeys:
    """A popularity-ranked universe of full view keys per probe view,
    drawn Zipf(1.1): rank *i* with probability ∝ 1/(i+1)**s."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.keys: Dict[str, List[Dict[str, object]]] = {}
        weights = [1.0 / (i + 1) ** ZIPF_S for i in range(KEY_UNIVERSE)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)

    def add_view(self, definition: ViewDefinition, db, rows) -> None:
        """Rank the keys of *rows* (the view's initial contents)."""
        columns = definition.output_columns(db)
        key_cols = definition.key_columns(db)
        positions = [columns.index(c) for c in key_cols]
        keys = [
            {c: row[p] for c, p in zip(key_cols, positions)} for row in rows
        ]
        self.rng.shuffle(keys)
        self.keys[definition.name] = keys[:KEY_UNIVERSE]

    def draw(self, view: str, **op) -> Op:
        keys = self.keys[view]
        rank = bisect.bisect_left(self._cdf, self.rng.random())
        return Op(PROBE, view, key=keys[min(rank, len(keys) - 1)], **op)


def arrivals(count: int, duration: float, rng: random.Random) -> List[float]:
    """*count* arrival offsets of a Poisson process over *duration*
    seconds.  Conditioning on the count (sorted uniforms) keeps the
    offered load identical from seed to seed."""
    return sorted(rng.uniform(0.0, duration) for _ in range(count))
