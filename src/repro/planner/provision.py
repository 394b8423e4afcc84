"""Automatic index provisioning for maintenance plans.

The paper's experimental setup simply *declares* the indexes its plans
probe ("Both views had the same indexes").  The planner reproduces that
decision mechanically: walk a maintenance expression, find every equi
join whose probe side is a plain base relation, and make sure a
persistent :class:`~repro.engine.index.HashIndex` covers the probed
columns.  With the index in place the compiled join does point lookups;
without it, every single-row update would re-hash the base table —
O(|base|) work for O(|delta|) change.

Only base-relation operands are considered (``Bound`` leaves are deltas
or temporaries; derived subtrees don't have persistent indexes).  Both
operands of a join are inspected: after left-deep conversion the base
table sits on the right of each delta join, but bushy trees and the
Section 5.3 expressions can put one on either side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..algebra.evaluate import static_join_plan
from ..algebra.expr import Join, RelExpr, Relation
from ..engine.catalog import Database
from ..engine.index import find_index
from ..engine.schema import Schema
from ..errors import ReproError

ProbeSite = Tuple[str, Tuple[str, ...]]  # (table, qualified columns)


def probe_sites(
    expr: RelExpr,
    db: Database,
    binding_schemas: Optional[Dict[str, Schema]] = None,
) -> List[ProbeSite]:
    """Base-relation equi-join probe sites of *expr*, deduplicated.

    Each site is ``(table, qualified_columns)`` — the columns an equi
    join would probe that table on.  Sites whose columns are already the
    table's key are skipped (every base table carries a key index).
    """
    schemas = dict(binding_schemas or {})
    sites: List[ProbeSite] = []
    seen: Set[ProbeSite] = set()

    def schema_of(node: RelExpr) -> Schema:
        from ..algebra.evaluate import infer_schema

        return infer_schema(node, db, schemas)

    def consider(operand: RelExpr, columns: Tuple[str, ...]) -> None:
        if not isinstance(operand, Relation) or not columns:
            return
        table = db.table(operand.name)
        if table.key is not None and set(columns) == set(table.key):
            return  # the key index already covers this probe
        site = (operand.name, tuple(sorted(columns)))
        if site not in seen:
            seen.add(site)
            sites.append(site)

    stack = [expr]  # pre-order, left to right
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            try:
                pairs, __ = static_join_plan(
                    node, schema_of(node.left), schema_of(node.right)
                )
            except ReproError:
                pairs = []
            if pairs:
                consider(node.left, tuple(lc for lc, __ in pairs))
                consider(node.right, tuple(rc for __, rc in pairs))
        stack.extend(reversed(node.children()))
    return sites


def provision_indexes(
    expr: RelExpr,
    db: Database,
    binding_schemas: Optional[Dict[str, Schema]] = None,
) -> List[ProbeSite]:
    """Create any missing persistent indexes for the probe sites of
    *expr*; returns the sites that were actually provisioned."""
    created: List[ProbeSite] = []
    for table_name, columns in probe_sites(expr, db, binding_schemas):
        table = db.table(table_name)
        if find_index(table, columns) is not None:
            continue
        bare = [c.split(".", 1)[1] for c in columns]
        db.create_index(table_name, bare)
        created.append((table_name, columns))
    return created
