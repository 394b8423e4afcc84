"""Deterministic synthetic TPC-H data generator.

A laptop-scale replacement for ``dbgen``: same schema, same keys and
foreign keys, and the value distributions the paper's experiment depends
on —

* ``p_retailprice`` follows the TPC-H formula, so the V3 join condition
  ``p_retailprice < 2000`` keeps roughly the benchmark's fraction of
  parts;
* ``o_orderdate`` is uniform over 1992-01-01 .. 1998-08-02, so the V3
  range ``1994-06-01 .. 1994-12-31`` selects ≈ 8.8 % of orders;
* each order has 1–7 lineitems;
* a configurable share of parts is never referenced by any lineitem and a
  share of orders has no lineitems in the date window — these populate
  the orphan terms (``P`` and ``C``) of Table 1.

Everything is a pure function of ``(scale_factor, seed)``.
"""

from __future__ import annotations

import random
from datetime import date, timedelta
from typing import Dict, List, Optional, Tuple

from ..engine.catalog import Database
from .schema import cardinalities, create_schema

_START = date(1992, 1, 1)
_END = date(1998, 8, 2)
_DAYS = (_END - _START).days

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
_TYPES = ("ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD")
_FLAGS = ("A", "N", "R")


def _iso(offset_days: int) -> str:
    return (_START + timedelta(days=offset_days)).isoformat()


def retail_price(partkey: int) -> float:
    """p_retailprice with the TPC-H value *distribution* at any scale.

    The benchmark's formula,
    ``(90000 + (p/10 mod 20001) + 100·(p mod 1000)) / 100``,
    spans [900, 2098.99] only once partkey exceeds ~200k — at laptop
    scales the ``p/10 mod 20001`` component never cycles and every part
    would fall under the V3 condition ``p_retailprice < 2000``, emptying
    the COL term of Table 1.  Mixing the key with two coprime multipliers
    makes both components uniform at every scale, so the fraction of
    parts at ≥ 2000 stays at full-scale TPC-H's ≈ 2.5 %.
    """
    mixed_high = (104729 * partkey) % 20001
    mixed_low = (7919 * partkey) % 1000
    return (90000 + mixed_high + 100 * mixed_low) / 100.0


class TPCHGenerator:
    """Generates and loads a scaled TPC-H database.

    Parameters
    ----------
    scale_factor:
        Fraction of TPC-H SF 1 (0.01 → ~60k lineitems).
    seed:
        PRNG seed; identical seeds give identical databases.
    unordered_part_fraction:
        Share of parts no lineitem ever references (orphan parts).
    """

    def __init__(
        self,
        scale_factor: float = 0.01,
        seed: int = 20070415,
        unordered_part_fraction: float = 0.3,
        childless_order_fraction: float = 0.1,
    ):
        self.scale_factor = scale_factor
        self.seed = seed
        self.unordered_part_fraction = unordered_part_fraction
        # TPC-H's RF1 refresh inserts lineitems for *new* (previously
        # childless) orders; keeping a slice of orders childless lets
        # insert batches de-orphan customers the way the paper's Table 1
        # reports (the C term's "rows affected").
        self.childless_order_fraction = childless_order_fraction
        self.counts = cardinalities(scale_factor)
        self._rng = random.Random(seed)
        self.next_orderkey = self.counts["orders"] + 1
        self.max_linenumber: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def build(self, check: bool = False) -> Database:
        """Create schema and load all tables; returns the database."""
        db = create_schema(Database())
        rng = self._rng
        counts = self.counts

        db.insert(
            "region",
            [(k, f"REGION#{k}") for k in range(counts["region"])],
            check=check,
        )
        db.insert(
            "nation",
            [
                (k, f"NATION#{k}", k % counts["region"])
                for k in range(counts["nation"])
            ],
            check=check,
        )
        db.insert(
            "supplier",
            [
                (
                    k,
                    f"Supplier#{k:09d}",
                    rng.randrange(counts["nation"]),
                    round(rng.uniform(-999.99, 9999.99), 2),
                )
                for k in range(1, counts["supplier"] + 1)
            ],
            check=check,
        )
        db.insert(
            "customer",
            [
                (
                    k,
                    f"Customer#{k:09d}",
                    rng.randrange(counts["nation"]),
                    rng.choice(_SEGMENTS),
                    round(rng.uniform(-999.99, 9999.99), 2),
                )
                for k in range(1, counts["customer"] + 1)
            ],
            check=check,
        )
        db.insert(
            "part",
            [
                (
                    k,
                    f"Part#{k:09d}",
                    rng.choice(_TYPES),
                    f"Brand#{rng.randrange(1, 6)}{rng.randrange(1, 6)}",
                    retail_price(k),
                )
                for k in range(1, counts["part"] + 1)
            ],
            check=check,
        )
        db.insert(
            "partsupp",
            [
                (p, 1 + (p + s) % counts["supplier"], rng.randrange(1, 10000),
                 round(rng.uniform(1.0, 1000.0), 2))
                for p in range(1, counts["part"] + 1)
                for s in range(2)
            ],
            check=check,
        )

        orders_rows = []
        for k in range(1, counts["orders"] + 1):
            orders_rows.append(
                (
                    k,
                    rng.randrange(1, counts["customer"] + 1),
                    rng.choice("OFP"),
                    round(rng.uniform(800.0, 500000.0), 2),
                    _iso(rng.randrange(_DAYS)),
                    f"Clerk#{rng.randrange(1, 1000):09d}",
                )
            )
        db.insert("orders", orders_rows, check=check)

        # Parts above this key are never ordered → the P term's orphans.
        orderable_parts = max(
            1,
            int(counts["part"] * (1.0 - self.unordered_part_fraction)),
        )
        lineitem_rows = []
        for orderkey in range(1, counts["orders"] + 1):
            if rng.random() < self.childless_order_fraction:
                self.max_linenumber[orderkey] = 0
                continue
            lines = rng.randrange(1, 8)
            self.max_linenumber[orderkey] = lines
            for line in range(1, lines + 1):
                lineitem_rows.append(
                    self._lineitem_row(rng, orderkey, line, orderable_parts)
                )
        db.insert("lineitem", lineitem_rows, check=check)
        return db

    # ------------------------------------------------------------------
    def _lineitem_row(
        self,
        rng: random.Random,
        orderkey: int,
        linenumber: int,
        orderable_parts: Optional[int] = None,
    ) -> Tuple:
        limit = orderable_parts or self.counts["part"]
        quantity = rng.randrange(1, 51)
        partkey = rng.randrange(1, limit + 1)
        return (
            orderkey,
            linenumber,
            partkey,
            rng.randrange(1, self.counts["supplier"] + 1),
            quantity,
            round(quantity * retail_price(partkey) / 100.0, 2),
            rng.choice(_FLAGS),
            _iso(rng.randrange(_DAYS)),
        )

    # ------------------------------------------------------------------
    # refresh streams (the Figure 5 update batches)
    # ------------------------------------------------------------------
    def lineitem_insert_batch(
        self, size: int, seed: Optional[int] = None, spread_parts: bool = True
    ) -> List[Tuple]:
        """*size* fresh lineitem rows for existing orders (new line
        numbers, so keys never collide).  With *spread_parts* the rows may
        reference orphan parts, exercising the secondary delta exactly as
        the paper's insert experiment does."""
        rng = random.Random(self.seed + 7919 * (seed or 1))
        rows = []
        limit = self.counts["part"] if spread_parts else max(
            1, int(self.counts["part"] * (1 - self.unordered_part_fraction))
        )
        for __ in range(size):
            orderkey = rng.randrange(1, self.counts["orders"] + 1)
            line = self.max_linenumber.get(orderkey, 0) + 1
            self.max_linenumber[orderkey] = line
            rows.append(self._lineitem_row(rng, orderkey, line, limit))
        return rows

    def lineitem_delete_batch(
        self, db: Database, size: int, seed: Optional[int] = None
    ) -> List[Tuple]:
        """*size* existing lineitem rows, sampled deterministically."""
        rng = random.Random(self.seed + 104729 * (seed or 1))
        table = db.table("lineitem")
        size = min(size, len(table.rows))
        return rng.sample(table.rows, size)

    def customer_insert_batch(self, size: int, seed: Optional[int] = None):
        """Fresh customers (keys above the existing range; distinct seeds
        give disjoint key ranges)."""
        effective = (0 if seed is None else seed) + 1
        rng = random.Random(self.seed + 15485863 * effective)
        base = self.counts["customer"] + 1_000_000 * effective
        return [
            (
                base + i,
                f"Customer#{base + i:09d}",
                rng.randrange(self.counts["nation"]),
                rng.choice(_SEGMENTS),
                round(rng.uniform(-999.99, 9999.99), 2),
            )
            for i in range(size)
        ]

    def part_insert_batch(self, size: int, seed: Optional[int] = None):
        """Fresh parts (keys above the existing range; distinct seeds give
        disjoint key ranges)."""
        effective = (0 if seed is None else seed) + 1
        rng = random.Random(self.seed + 32452843 * effective)
        base = self.counts["part"] + 1_000_000 * effective
        return [
            (
                base + i,
                f"Part#{base + i:09d}",
                rng.choice(_TYPES),
                f"Brand#{rng.randrange(1, 6)}{rng.randrange(1, 6)}",
                retail_price(base + i),
            )
            for i in range(size)
        ]


# ---------------------------------------------------------------------------
# fixture cache
# ---------------------------------------------------------------------------
#: Sources a cached fixture depends on, relative to this package: the
#: generator itself and the engine classes whose instances (``Database``,
#: ``Table``, ``HashIndex``, ...) the pickle holds in their current layout.
_FIXTURE_SOURCES = (
    "generator.py",
    "schema.py",
    "../engine/table.py",
    "../engine/index.py",
    "../engine/catalog.py",
    "../engine/schema.py",
    "../engine/constraints.py",
)


def _source_digest() -> str:
    """Digest of :data:`_FIXTURE_SOURCES`: a change to any of them must
    invalidate cached fixtures."""
    import hashlib
    import os

    digest = hashlib.sha256()
    here = os.path.dirname(__file__)
    for name in _FIXTURE_SOURCES:
        with open(os.path.join(here, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:12]


def cached_instance(
    scale_factor: float,
    seed: int = 20070415,
    directory: Optional[str] = None,
) -> Tuple["TPCHGenerator", Database]:
    """``(generator, database)`` for one deterministic TPC-H instance,
    loaded from the on-disk fixture cache when possible.

    The cache directory comes from *directory* or ``REPRO_FIXTURE_DIR``;
    when neither is set this is exactly a fresh build.  CI warms the
    directory with ``tools/warm_fixtures.py`` and restores it through
    ``actions/cache``, so matrix cells skip the (dominant) data
    generation cost.  Entries embed a digest of the generator and pickled
    engine sources — editing either invalidates them — and the generator is
    pickled *with* its post-build PRNG state, so refresh batches drawn
    from a cached instance match a fresh one exactly.
    """
    import os
    import pickle

    directory = directory or os.environ.get("REPRO_FIXTURE_DIR")
    if not directory:
        generator = TPCHGenerator(scale_factor=scale_factor, seed=seed)
        return generator, generator.build()
    path = os.path.join(
        directory,
        f"tpch-{scale_factor:g}-{seed}-{_source_digest()}.pkl",
    )
    if os.path.exists(path):
        with open(path, "rb") as handle:
            return pickle.load(handle)
    generator = TPCHGenerator(scale_factor=scale_factor, seed=seed)
    db = generator.build()
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        pickle.dump((generator, db), handle)
    os.replace(tmp, path)  # atomic: concurrent warmers never tear
    return generator, db
