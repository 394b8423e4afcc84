"""The paper's contribution: efficient incremental maintenance of
materialized outer-join views.

Public entry points:

* :class:`ViewDefinition` / :class:`MaterializedView` — define and
  materialize an SPOJ view.
* :class:`ViewMaintainer` — maintain a materialized view under base-table
  inserts/deletes/updates (Sections 3–6 of the paper).
* :class:`AggregatedView` — GROUP-BY views with count-based maintenance
  (Section 3.3).
* :class:`MaintenanceGraph`, :func:`primary_delta_expression`,
  :func:`to_left_deep`, :func:`simplify_tree`, and the extraction /
  secondary-delta helpers — the individual algorithm pieces, importable
  separately for study and testing.
"""

from .aggregate import (
    Aggregate,
    AggregatedView,
    agg_avg,
    agg_sum,
    count_col,
    count_star,
)
from .extract import (
    extract_full_delta,
    extract_net_delta,
    n_predicate,
    nn_predicate,
    term_columns,
)
from .fk import SimplifyResult, simplify_tree
from .leftdeep import to_left_deep
from .maintgraph import Affect, MaintenanceGraph
from .maintain import (
    MaintenanceOptions,
    MaintenanceReport,
    SECONDARY_AUTO,
    SECONDARY_FROM_BASE,
    SECONDARY_FROM_VIEW,
    ViewMaintainer,
)
from .primary import primary_delta_expression, vd_expression
from .secondary import (
    DELETE,
    INSERT,
    CompiledBaseSecondary,
    CompiledViewSecondary,
    old_state,
    secondary_from_view,
)
from .view import MaterializedView, ViewDefinition

__all__ = [
    "ViewDefinition",
    "MaterializedView",
    "ViewMaintainer",
    "MaintenanceOptions",
    "MaintenanceReport",
    "SECONDARY_FROM_VIEW",
    "SECONDARY_FROM_BASE",
    "SECONDARY_AUTO",
    "MaintenanceGraph",
    "Affect",
    "primary_delta_expression",
    "vd_expression",
    "to_left_deep",
    "simplify_tree",
    "SimplifyResult",
    "extract_net_delta",
    "extract_full_delta",
    "term_columns",
    "nn_predicate",
    "n_predicate",
    "secondary_from_view",
    "CompiledViewSecondary",
    "CompiledBaseSecondary",
    "old_state",
    "INSERT",
    "DELETE",
    "AggregatedView",
    "Aggregate",
    "count_star",
    "count_col",
    "agg_sum",
    "agg_avg",
]
