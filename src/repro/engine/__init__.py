"""In-memory relational engine: the substrate the paper's algorithms run on.

The engine supplies exactly the algebra of the paper — selection,
projection, duplicate elimination, inner/left/right/full outer joins,
semijoin, anti-semijoin, outer union ``⊎``, removal of subsumed tuples
``↓``, minimum union ``⊕`` and the null-if operator ``λ`` — over keyed
tables with SQL NULL semantics, plus a catalog with unique-key and
foreign-key enforcement.
"""

from .catalog import Database
from .constraints import ForeignKey
from .index import HashIndex, find_index
from .schema import Schema, qualify, split_qualified
from .table import Row, Table, rows_to_set, same_rows
from .operators import (
    distinct,
    fixup,
    join,
    minimum_union,
    null_if,
    outer_union,
    project,
    remove_subsumed,
    select,
    union_all,
)

__all__ = [
    "Database",
    "ForeignKey",
    "Schema",
    "Table",
    "Row",
    "qualify",
    "split_qualified",
    "rows_to_set",
    "same_rows",
    "select",
    "project",
    "distinct",
    "join",
    "outer_union",
    "remove_subsumed",
    "minimum_union",
    "null_if",
    "fixup",
    "union_all",
    "HashIndex",
    "find_index",
]
