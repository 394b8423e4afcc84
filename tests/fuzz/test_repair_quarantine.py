"""Repair and quarantine re-entry, asserted through the fuzz oracle.

A poisoned view (every maintenance pass fails via the
``maintain.pass`` failpoint) must be quarantined without hurting its
siblings; :meth:`Warehouse.repair_view` must bring it back to exact
recompute consistency; and the whole cycle must survive being entered a
second time.  Consistency is judged by the same helpers the fuzzer's
oracle uses (:func:`consistency_mismatches` / :func:`view_divergence`),
so "repaired" means "agrees with a full recompute", not merely "not
quarantined".
"""

import random

import pytest

from repro.algebra import Q, eq
from repro.core import ViewDefinition
from repro.engine import Database
from repro.errors import FanOutError
from repro.fuzz import consistency_mismatches, view_divergence
from repro.runtime import FAILPOINTS, InjectedFault
from repro.warehouse import Warehouse


def _make_warehouse(workers: int = 0) -> Warehouse:
    rng = random.Random(9)
    db = Database()
    for name in ("r", "s"):
        db.create_table(name, ["k", "v"], key=["k"])
        db.insert(name, [(i, rng.randint(0, 3)) for i in range(8)])
    wh = Warehouse(db, workers=workers)
    full = Q.table("r").full_outer_join("s", on=eq("r.v", "s.v")).build()
    left = Q.table("r").left_outer_join("s", on=eq("r.v", "s.v")).build()
    wh.create_view("frail", ViewDefinition("frail", full))
    wh.create_view("steady", ViewDefinition("steady", left))
    return wh


def _poison(view: str) -> None:
    FAILPOINTS.arm("maintain.pass", action="raise", times=None, view=view)


def _cure() -> None:
    FAILPOINTS.disarm("maintain.pass")


@pytest.mark.parametrize("workers", [0, 2])
def test_repair_restores_recompute_consistency(workers):
    wh = _make_warehouse(workers)
    try:
        assert consistency_mismatches(wh) == []

        _poison("frail")
        with pytest.raises(FanOutError):
            wh.insert("r", [(100, 1)])
        assert wh.quarantined_views == ["frail"]

        # the sibling keeps being maintained; the quarantined view is
        # stale but excluded from the oracle sweep
        assert consistency_mismatches(wh) == []
        assert view_divergence(wh, "frail") is not None
        assert view_divergence(wh, "steady") is None

        # further updates keep flowing to the healthy view only
        _cure()
        wh.insert("s", [(200, 1)])
        assert wh.quarantined_views == ["frail"]
        assert view_divergence(wh, "steady") is None

        wh.repair_view("frail")
        assert wh.quarantined_views == []
        assert consistency_mismatches(wh) == []
        assert view_divergence(wh, "frail") is None

        # a repaired view is a first-class fan-out target again
        wh.insert("r", [(101, 2)])
        wh.delete("s", [(200, 1)])
        assert consistency_mismatches(wh) == []
    finally:
        wh.scheduler.shutdown()


@pytest.mark.parametrize("workers", [0, 2])
def test_quarantine_reentry_cycle(workers):
    """Quarantine → repair → quarantine again → repair again."""
    wh = _make_warehouse(workers)
    try:
        for generation in (1, 2):
            _poison("frail")
            with pytest.raises(FanOutError) as excinfo:
                wh.insert("r", [(100 * generation, 0)])
            assert wh.scheduler.is_quarantined("frail"), generation
            assert isinstance(excinfo.value.failures["frail"], InjectedFault)

            _cure()
            wh.repair_view("frail")
            assert not wh.scheduler.is_quarantined("frail")
            assert consistency_mismatches(wh) == []
            assert view_divergence(wh, "frail") is None
    finally:
        wh.scheduler.shutdown()


def test_repair_unknown_view_raises():
    wh = _make_warehouse(0)
    try:
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            wh.repair_view("nope")
    finally:
        wh.scheduler.shutdown()
