"""Compile-once physical plans: the only way maintenance runs a delta.

The interpreter in :mod:`repro.algebra.evaluate` re-plans every
expression it runs — fine for the full recompute that checks a view,
wasteful for maintenance, which evaluates the same ΔV^D and
secondary-delta expressions on every update.  So every maintenance
expression is compiled, once:

* :mod:`~repro.planner.compile` — :func:`compile_plan` turns a
  ``RelExpr`` into a :class:`CompiledPlan` of pre-bound physical nodes
  (schemas, predicates, row shapers, positions and join pairs resolved
  once) over the batch-at-a-time operators the interpreter also calls;
* :mod:`~repro.planner.cache` — :class:`PlanCache`, each view's store of
  compiled plans, keyed per (table, operation);
* :mod:`~repro.planner.provision` — :func:`provision_indexes`, which
  creates the base-table indexes a plan's joins want to probe.

:class:`~repro.core.maintain.MaintenancePlans` wires the three together
for plain and aggregated views alike;
``docs/PERFORMANCE.md`` describes the design.
"""

from .cache import PlanCache
from .compile import (
    CompiledPlan,
    ExecutionContext,
    PhysicalNode,
    PlanCompileError,
    SharedResults,
    compile_plan,
)
from .provision import ProbeSite, probe_sites, provision_indexes
from .wire import build_database, encode_schema

__all__ = [
    "CompiledPlan",
    "ExecutionContext",
    "PhysicalNode",
    "PlanCache",
    "PlanCompileError",
    "ProbeSite",
    "SharedResults",
    "build_database",
    "compile_plan",
    "encode_schema",
    "probe_sites",
    "provision_indexes",
]
