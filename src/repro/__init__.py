"""repro — Efficient Maintenance of Materialized Outer-Join Views.

A complete, from-scratch Python reproduction of Larson & Zhou (ICDE 2007):
an in-memory relational engine, the SPOJ algebra with join-disjunctive
normal form and subsumption graphs, the paper's two-step (primary +
secondary delta) maintenance procedure with foreign-key optimizations,
baselines (Griffin-Kumar, inner-join "core" views, full recompute), a
TPC-H workload generator, and benchmark harnesses for the paper's
evaluation (Table 1, Figure 5).

Quickstart::

    from repro import Database, Q, eq, ViewDefinition, MaterializedView, ViewMaintainer

    db = Database()
    db.create_table("orders", ["o_orderkey", "o_custkey"], key=["o_orderkey"])
    db.create_table("lineitem", ["l_orderkey", "l_linenumber", "l_qty"],
                    key=["l_orderkey", "l_linenumber"])
    db.add_foreign_key("lineitem", ["l_orderkey"], "orders", ["o_orderkey"])

    expr = Q.table("orders").left_outer_join(
        "lineitem", on=eq("lineitem.l_orderkey", "orders.o_orderkey")
    ).build()
    view = MaterializedView.materialize(ViewDefinition("order_lines", expr), db)
    maintainer = ViewMaintainer(db, view)
    maintainer.insert("orders", [(1, 100)])          # maintained incrementally
    maintainer.check_consistency()                   # equals a full recompute
"""

from .engine import Database, Schema, Table
from .algebra import (
    Q,
    eq,
    Comparison,
    And,
    Or,
    Col,
    Lit,
    normal_form,
    SubsumptionGraph,
)
from .core import (
    AggregatedView,
    MaintenanceGraph,
    MaintenanceOptions,
    MaintenanceReport,
    MaterializedView,
    ViewDefinition,
    ViewMaintainer,
    agg_avg,
    agg_sum,
    count_col,
    count_star,
)
from .obs import Telemetry
from .planner import (
    CompiledPlan,
    PlanCache,
    PlanCompileError,
    compile_plan,
    provision_indexes,
)
from .parser import parse_expression, parse_predicate, parse_view
from .runtime import (
    FanOutResult,
    MaintenanceScheduler,
    Snapshot,
    SnapshotStore,
    WriteAheadLog,
)
from .serving import AsyncWarehouse
from .warehouse import Warehouse
from .errors import (
    CatalogError,
    ConstraintError,
    ExpressionError,
    FanOutError,
    MaintenanceError,
    ReproError,
    SchemaError,
    UnsupportedViewError,
    WalError,
)

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Schema",
    "Table",
    "Q",
    "eq",
    "Comparison",
    "And",
    "Or",
    "Col",
    "Lit",
    "normal_form",
    "SubsumptionGraph",
    "ViewDefinition",
    "MaterializedView",
    "ViewMaintainer",
    "MaintenanceOptions",
    "MaintenanceReport",
    "MaintenanceGraph",
    "AggregatedView",
    "Warehouse",
    "Telemetry",
    "CompiledPlan",
    "PlanCache",
    "PlanCompileError",
    "compile_plan",
    "provision_indexes",
    "parse_view",
    "parse_expression",
    "parse_predicate",
    "count_star",
    "count_col",
    "agg_sum",
    "agg_avg",
    "ReproError",
    "SchemaError",
    "ConstraintError",
    "CatalogError",
    "ExpressionError",
    "FanOutError",
    "MaintenanceError",
    "UnsupportedViewError",
    "WalError",
    "WriteAheadLog",
    "MaintenanceScheduler",
    "FanOutResult",
    "Snapshot",
    "SnapshotStore",
    "AsyncWarehouse",
    "__version__",
]
