"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch everything coming out of the engine or the maintenance machinery
with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(ReproError):
    """A schema is malformed or an operation references unknown columns."""


class ConstraintError(ReproError):
    """A key or foreign-key constraint was violated."""


class CatalogError(ReproError):
    """A catalog operation failed (unknown table, duplicate table, ...)."""


class ExpressionError(ReproError):
    """A logical (SPOJ) expression is malformed or violates paper
    restrictions (self-joins, non-null-rejecting predicates, ...)."""


class MaintenanceError(ReproError):
    """View maintenance could not be performed for the requested update."""


class UndoError(MaintenanceError):
    """A failed maintenance pass could not be undone by its inverse
    applies — only a bug can do that.  The view was rebuilt from the
    base tables instead, and the scheduler quarantines it without a
    further attempt."""


class WalError(ReproError):
    """The write-ahead change log is unreadable or was used incorrectly
    (corruption before the final record, acking an unknown LSN, ...)."""


class CheckpointError(ReproError):
    """A checkpoint could not be written, none could be restored when
    one was explicitly required, or the newest restorable one is older
    than the WAL's compaction point (recovery refuses instead of
    replaying a log with a hole in it)."""


class BackpressureError(MaintenanceError):
    """A change was shed because the scheduler's bounded queue is full
    (``overflow="shed"``).  The base tables were **not** modified — the
    admission check runs before the change is prepared — so the caller
    can retry, drop, or back off."""


class FanOutError(MaintenanceError):
    """One or more views failed while a warehouse fanned an update out.

    Raised only after *every* registered view was attempted, so healthy
    views are left maintained.  Carries the partial results:

    * ``reports`` — the per-view :class:`MaintenanceReport` mapping for
      the views that succeeded;
    * ``failures`` — ``{view_name: exception}`` for the views that
      raised;
    * ``quarantined`` — names of the views this change left quarantined:
      every view whose one attempt failed, less any a transaction's
      rollback rebuilt and reinstated.

    A sharded warehouse carries all three back from the worker, each
    failure rebuilt under its :class:`ReproError` class.
    """

    def __init__(self, message: str, reports=None, failures=None,
                 quarantined=None):
        super().__init__(message)
        self.reports = reports or {}
        self.failures = failures or {}
        self.quarantined = list(quarantined or ())


class ShardingError(ReproError):
    """A sharding spec is invalid for the schema, a view cannot be
    maintained shard-locally under it, or a sharded-only operation was
    attempted on the wrong warehouse flavour."""


class ShardUnavailableError(ShardingError):
    """A shard worker died, hung past its deadline, or is quarantined.

    Raised instead of blocking when a reply can no longer arrive: the
    worker process exited, a liveness probe timed out, or the shard
    exhausted its restart budget and was quarantined by the
    :class:`~repro.runtime.supervisor.ShardSupervisor`.  The outcome of
    the in-flight command on that shard is *unknown* — it may or may
    not have reached the shard's WAL before the failure.  Callers
    should treat the statement as failed; reincarnation replays the
    shard's durable history, so retrying after the supervisor reports
    the shard healthy is safe for idempotent operations."""


class UnsupportedViewError(ReproError):
    """The view falls outside the class the paper's algorithm supports."""
