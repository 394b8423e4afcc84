"""Horizontal sharding: partitioning specs, routing and view merging.

The sharded warehouse (:mod:`repro.sharded`) hash- or range-partitions a
subset of the base tables on a prefix of their unique keys and replicates
the rest, so that **every** integrity check and every per-view
maintenance pass stays shard-local.  This module holds the pure logic:

* :class:`ShardingSpec` — which tables are partitioned, on which
  *routing columns*, into how many shards, and the validation rules that
  make shard-local maintenance sound;
* :class:`ShardRouter` — row → shard assignment (stable across
  processes and interpreter restarts: no reliance on ``hash()``);
* :func:`plan_view` / :func:`merge_view_rows` — the merge barrier: how
  per-shard view fragments recombine into the global view.

Soundness rules (enforced by :meth:`ShardingSpec.validate`)
-----------------------------------------------------------
1. **Routing ⊆ key.**  Routing columns are a subset of the table's
   unique key, so they are NOT NULL and two rows with equal keys land on
   the same shard — local duplicate-key checks are complete.
2. **FK closure.**  A foreign key whose *target* is partitioned must
   have a partitioned *source* whose routing columns map onto the
   target's routing columns through the FK column pairing.  Then a
   referencing row always lives on the same shard as the row it
   references, and FK checks (outgoing and incoming) are shard-local.
   Partitioned→replicated FKs are always fine (the target exists on
   every shard); replicated→partitioned FKs are rejected.
3. **Co-partitioning.**  All partitioned tables referenced by one view
   must be connected through join equalities that equate their routing
   columns position-by-position, so any joined combination of
   partitioned rows is witnessed entirely within one shard.

The merge barrier
-----------------
Views must output every base table's key columns (a standing
requirement of :class:`~repro.core.view.ViewDefinition`), so every view
row carries the routing values of each partitioned table it joins — or
NULL where that side is null-extended.  Call the output positions of the
partitioned tables' key columns the row's **witnesses**.

* A row with *any* witness non-null embeds at least one partitioned base
  row, and by co-partitioning all of them live on one shard — the row
  appears in exactly that shard's fragment.  The merge takes the union.
* A row whose witnesses are *all* null (e.g. a replicated customer
  null-extended because no partitioned order matched) is derived purely
  from replicated rows.  It belongs to the global view iff **no** shard
  holds a matching partitioned row, i.e. iff it appears in **all** N
  fragments — the merge intersects these "residue" rows by count.

Outer-join matching is monotone in the matched side, so a residue row
killed in some shard is killed globally, and a kill derivation in the
global database lives wholly inside one shard (its partitioned rows are
co-located); together these give fragment-merge = global view.  Views
referencing no partitioned table are identical on every shard and the
same rule degenerates to "take one copy".
"""

from __future__ import annotations

import zlib
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..algebra.expr import Join, NullIf, RelExpr, Select
from ..algebra.predicates import And, Comparison, Predicate
from ..engine.catalog import Database
from ..engine.index import projector
from ..engine.schema import qualify
from ..engine.table import Row
from ..errors import ShardingError

__all__ = [
    "ShardingSpec",
    "ShardRouter",
    "ViewShardPlan",
    "plan_view",
    "merge_view_rows",
    "shard_hash",
]


def shard_hash(values: Tuple) -> int:
    """Deterministic hash of a routing-value tuple.

    ``hash()`` is salted per interpreter (PYTHONHASHSEED), which would
    scatter the same row to different shards in parent and spawned
    worker; CRC32 of the canonical repr is stable everywhere and the
    routing domain (ints, strings, floats, None-free key prefixes) has
    faithful reprs.
    """
    return zlib.crc32(repr(values).encode("utf-8"))


class ShardingSpec:
    """Which tables are partitioned, how, and into how many shards.

    Parameters
    ----------
    shards:
        Shard count (>= 1).
    routing:
        ``{table: (bare routing columns...)}`` for every partitioned
        table.  Must be a prefix-agnostic *subset* of the table's unique
        key.  Tables absent from the mapping are replicated.
    ranges:
        Optional range partitioning: a sorted tuple of ``shards - 1``
        split points over the (single) routing column; row → first shard
        whose split point exceeds its routing value.  Default is hash
        partitioning of the routing tuple.
    """

    def __init__(
        self,
        shards: int,
        routing: Mapping[str, Sequence[str]],
        ranges: Optional[Sequence] = None,
    ):
        if shards < 1:
            raise ShardingError(f"shard count must be >= 1, got {shards}")
        self.shards = int(shards)
        self.routing: Dict[str, Tuple[str, ...]] = {
            table: tuple(columns) for table, columns in routing.items()
        }
        for table, columns in self.routing.items():
            if not columns:
                raise ShardingError(
                    f"partitioned table {table!r} has no routing columns"
                )
        self.ranges: Optional[Tuple] = tuple(ranges) if ranges else None
        if self.ranges is not None:
            if len(self.ranges) != self.shards - 1:
                raise ShardingError(
                    f"range partitioning needs {self.shards - 1} split "
                    f"point(s) for {self.shards} shards, got "
                    f"{len(self.ranges)}"
                )
            if any(len(c) != 1 for c in self.routing.values()):
                raise ShardingError(
                    "range partitioning requires a single routing column"
                )

    # ------------------------------------------------------------------
    @property
    def partitioned(self) -> FrozenSet[str]:
        return frozenset(self.routing)

    def is_partitioned(self, table: str) -> bool:
        return table in self.routing

    def qualified_routing(self, table: str) -> Tuple[str, ...]:
        return tuple(qualify(table, c) for c in self.routing[table])

    # ------------------------------------------------------------------
    @classmethod
    def for_database(cls, db: Database, shards: int) -> "ShardingSpec":
        """Derive a valid spec automatically: partition the largest table
        nobody references through a foreign key on its full key,
        replicate everything else.  Falls back to an all-replicated spec
        when no table qualifies — the machinery still runs, the merge
        barrier just degenerates.
        """
        chosen = max(
            (name for name in db.tables if not db.foreign_keys_to(name)),
            key=lambda name: len(db.tables[name].rows),
            default=None,
        )
        routing: Dict[str, Sequence[str]] = {}
        if chosen is not None:
            table = db.tables[chosen]
            prefix = chosen + "."
            routing[chosen] = [
                c[len(prefix):] for c in (table.key or ())
            ]
            if not routing[chosen]:
                routing = {}
        spec = cls(shards, routing)
        spec.validate(db)
        return spec

    # ------------------------------------------------------------------
    def validate(self, db: Database) -> None:
        """Enforce the module-docstring soundness rules against *db*."""
        for table, columns in self.routing.items():
            if table not in db.tables:
                raise ShardingError(f"unknown partitioned table {table!r}")
            key = tuple(db.tables[table].key or ())
            qualified = self.qualified_routing(table)
            missing = [c for c in qualified if c not in key]
            if missing:
                raise ShardingError(
                    f"routing columns of {table!r} must be part of its "
                    f"unique key; {missing} are not in {list(key)}"
                )
        for fk in db.foreign_keys:
            src_part = self.is_partitioned(fk.source)
            dst_part = self.is_partitioned(fk.target)
            if dst_part and not src_part:
                raise ShardingError(
                    f"foreign key {fk.source!r} -> {fk.target!r}: a "
                    f"replicated table cannot reference a partitioned "
                    f"one (the referenced row exists on one shard only)"
                )
            if src_part and dst_part:
                # source routing must map onto target routing through
                # the FK column pairing, position by position
                pairing = dict(zip(fk.target_columns, fk.source_columns))
                dst_routing = self.qualified_routing(fk.target)
                src_routing = self.qualified_routing(fk.source)
                mapped = tuple(pairing.get(c) for c in dst_routing)
                if mapped != src_routing:
                    raise ShardingError(
                        f"foreign key {fk.source!r} -> {fk.target!r} "
                        f"does not equate the routing columns "
                        f"({src_routing} vs {dst_routing} through "
                        f"{dict(zip(fk.source_columns, fk.target_columns))})"
                    )

    # ------------------------------------------------------------------
    def shard_of_values(self, values: Tuple) -> int:
        """Shard of a routing-value tuple."""
        if self.ranges is not None:
            value = values[0]
            for shard, split in enumerate(self.ranges):
                if value < split:
                    return shard
            return self.shards - 1
        return shard_hash(values) % self.shards


class ShardRouter:
    """A :class:`ShardingSpec` bound to a database schema: resolves
    routing-column positions once and answers row → shard queries."""

    def __init__(self, spec: ShardingSpec, db: Database):
        self.spec = spec
        self._row_positions: Dict[str, Tuple[int, ...]] = {}
        self._key_positions: Dict[str, Tuple[int, ...]] = {}
        for table in spec.routing:
            schema = db.tables[table].schema
            qualified = spec.qualified_routing(table)
            self._row_positions[table] = tuple(
                schema.index_of(c) for c in qualified
            )
            key = tuple(db.tables[table].key or ())
            self._key_positions[table] = tuple(
                key.index(c) for c in qualified
            )

    # ------------------------------------------------------------------
    def shard_of_row(self, table: str, row: Row) -> int:
        positions = self._row_positions[table]
        return self.spec.shard_of_values(tuple(row[p] for p in positions))

    def shard_of_key(self, table: str, key: Row) -> int:
        """Shard from a unique-key tuple (routing ⊆ key, so the key
        alone determines placement — the ``delete_by_key`` fast path)."""
        positions = self._key_positions[table]
        return self.spec.shard_of_values(tuple(key[p] for p in positions))

    def split_rows(
        self, table: str, rows: Iterable[Row]
    ) -> Dict[int, List[Row]]:
        """Partition *rows* of a partitioned table by target shard.
        Shards receiving no rows are absent from the result."""
        out: Dict[int, List[Row]] = {}
        for row in rows:
            out.setdefault(self.shard_of_row(table, row), []).append(row)
        return out

    def split_keys(
        self, table: str, keys: Iterable[Row]
    ) -> Dict[int, List[Row]]:
        out: Dict[int, List[Row]] = {}
        for key in keys:
            out.setdefault(self.shard_of_key(table, key), []).append(key)
        return out


# ---------------------------------------------------------------------------
# per-view merge plans
# ---------------------------------------------------------------------------
class ViewShardPlan:
    """How one view's per-shard fragments merge into the global view."""

    __slots__ = ("view", "partitioned_tables", "witness_positions")

    def __init__(
        self,
        view: str,
        partitioned_tables: Tuple[str, ...],
        witness_positions: Tuple[int, ...],
    ):
        self.view = view
        self.partitioned_tables = partitioned_tables
        self.witness_positions = witness_positions

    @property
    def replicated_only(self) -> bool:
        return not self.partitioned_tables


def _equality_pairs(expr: RelExpr) -> List[Tuple[str, str]]:
    """All column=column equalities in join ON conditions and
    selections of *expr* (qualified names)."""
    pairs: List[Tuple[str, str]] = []

    def from_pred(pred: Predicate) -> None:
        if isinstance(pred, And):
            for part in pred.parts:
                from_pred(part)
        elif isinstance(pred, Comparison) and pred.op == "=":
            left, right = pred.left, pred.right
            if hasattr(left, "qualified") and hasattr(right, "qualified"):
                pairs.append((left.qualified, right.qualified))

    def walk(node: RelExpr) -> None:
        if isinstance(node, (Join, Select, NullIf)):
            from_pred(node.pred)
        for child in node.children():
            walk(child)

    walk(expr)
    return pairs


def plan_view(
    definition, db: Database, spec: ShardingSpec
) -> ViewShardPlan:
    """Validate that *definition* is maintainable shard-locally under
    *spec* and derive its merge plan.

    Raises :class:`~repro.errors.ShardingError` when the view joins two
    partitioned tables without equating their routing columns (rule 3).
    """
    tables = sorted(definition.tables)
    parts = tuple(t for t in tables if spec.is_partitioned(t))
    if len(parts) >= 2:
        # union-find over qualified columns, seeded by join equalities
        parent: Dict[str, str] = {}

        def find(c: str) -> str:
            parent.setdefault(c, c)
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for left, right in _equality_pairs(definition.join_expr):
            union(left, right)
        widths = {len(spec.routing[t]) for t in parts}
        if len(widths) != 1:
            raise ShardingError(
                f"view {definition.name!r} joins partitioned tables with "
                f"different routing widths: { {t: spec.routing[t] for t in parts} }"
            )
        anchor = spec.qualified_routing(parts[0])
        for other in parts[1:]:
            routing = spec.qualified_routing(other)
            for a, b in zip(anchor, routing):
                if find(a) != find(b):
                    raise ShardingError(
                        f"view {definition.name!r} joins partitioned "
                        f"tables {parts[0]!r} and {other!r} without "
                        f"equating routing columns {a} and {b}; rows of "
                        f"a joined pair could live on different shards"
                    )
    output = definition.output_columns(db)
    witnesses: List[int] = []
    for table in parts:
        for column in db.tables[table].key or ():
            try:
                witnesses.append(output.index(column))
            except ValueError:
                # ViewDefinition.validate requires base keys in the
                # output; reaching here means validate() was skipped
                raise ShardingError(
                    f"view {definition.name!r} does not output key "
                    f"column {column!r} of partitioned table {table!r}; "
                    f"fragments cannot be merged"
                ) from None
    return ViewShardPlan(definition.name, parts, tuple(sorted(set(witnesses))))


def merge_view_rows(
    plan: ViewShardPlan, fragments: Sequence[Iterable[Row]]
) -> List[Row]:
    """Recombine per-shard view fragments into the global view rows.

    Witness-bearing rows (some partitioned key non-null) are owned by
    exactly one shard — union.  Residue rows (all witnesses null) are
    global iff present in every fragment — count == N intersection.
    Views over replicated tables only take shard 0's copy verbatim.
    """
    shards = len(fragments)
    if plan.replicated_only:
        return [tuple(row) for row in (fragments[0] if fragments else [])]
    merged: List[Row] = []
    residue_counts: Dict[Row, int] = {}
    witnesses = projector(plan.witness_positions)
    residue = (None,) * len(plan.witness_positions)
    for fragment in fragments:
        for row in fragment:
            row = tuple(row)
            if witnesses(row) == residue:
                residue_counts[row] = residue_counts.get(row, 0) + 1
            else:
                merged.append(row)
    merged.extend(
        row for row, count in residue_counts.items() if count == shards
    )
    return merged
