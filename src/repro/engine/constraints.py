"""Declarative constraints: foreign keys (a table's unique key is
``Table.key``, kept exact by its key index).

Foreign keys are first-class citizens here because the paper's Section 6
exploits them to (a) delete provably-empty joins from the primary-delta
expression and (b) prove terms unaffected by an update (Theorem 3).  Both
optimizations are sound only when the referencing columns cannot be NULL
and when deletes do not cascade, so those properties are recorded on the
constraint itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key from ``source.source_columns`` to
    ``target.target_columns`` (a unique, non-null key of the target).

    Attributes
    ----------
    source_not_null:
        True when every referencing column is declared NOT NULL.  Required
        for the normal-form term pruning ("every source row finds a match").
    cascading_deletes:
        Declared ``ON DELETE CASCADE``.  Disables the Section 6
        optimizations (case 2 in the paper's list).
    deferrable:
        Constraint checking may be deferred inside a transaction.  Disables
        the Section 6 optimizations for multi-statement transactions
        (case 3 in the paper's list).
    """

    source: str
    source_columns: Tuple[str, ...]
    target: str
    target_columns: Tuple[str, ...]
    source_not_null: bool = True
    cascading_deletes: bool = False
    deferrable: bool = False

    def __post_init__(self):
        object.__setattr__(self, "source_columns", tuple(self.source_columns))
        object.__setattr__(self, "target_columns", tuple(self.target_columns))
        if len(self.source_columns) != len(self.target_columns):
            raise ValueError(
                "foreign key column lists must have matching length"
            )

    def column_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """``(source_column, target_column)`` pairs."""
        return tuple(zip(self.source_columns, self.target_columns))

    def usable_for_optimization(self) -> bool:
        """Whether the Section 6 optimizations may rely on this constraint
        (paper cases 2 and 3; case 1 — updates modelled as delete+insert —
        is a property of the update, checked at maintenance time)."""
        return not self.cascading_deletes and not self.deferrable
