"""Plan-cache behavior: hit/miss accounting, plans that outlive index DDL
and checkpoint restores, frozen options, and automatic index
provisioning."""

import dataclasses

import pytest

from repro.algebra.expr import Join, Relation
from repro.algebra.predicates import eq
from repro.core import MaterializedView, ViewMaintainer
from repro.engine.index import find_index
from repro.obs import Telemetry
from repro.planner import PlanCache, probe_sites, provision_indexes
from repro.warehouse import Warehouse

from ..conftest import make_v1_db, make_v1_defn
from ..runtime.test_scheduler import build_db, order_lines_expr


class TestPlanCacheUnit:
    def test_miss_then_hit(self):
        cache = PlanCache()
        assert cache.get("k") is None
        cache.store("k", "PLAN")
        assert cache.get("k") == "PLAN"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        assert len(cache) == 1


def fresh_maintainer(options=None, telemetry=None):
    db = make_v1_db(seed=5)
    defn = make_v1_defn()
    view = MaterializedView.materialize(defn, db)
    return db, ViewMaintainer(db, view, options=options, telemetry=telemetry)


class TestMaintainerCache:
    def test_repeated_updates_hit(self):
        db, m = fresh_maintainer()
        m.insert("r", [(100, 1)])
        misses_after_first = m.plan_cache.misses
        m.insert("r", [(101, 2)])
        m.insert("r", [(102, 3)])
        assert m.plan_cache.misses == misses_after_first
        assert m.plan_cache.hits > 0
        m.check_consistency()

    def test_an_index_created_after_compiling_recompiles_nothing(self):
        """The ΔR plan joins on ``r.v``, which no plan probes, so nothing
        provisioned it.  Plans read indexes live: creating it later costs
        the next change no compile."""
        db, m = fresh_maintainer()
        m.insert("r", [(100, 1)])
        assert find_index(db.table("r"), ("r.v",)) is None
        misses, hits = m.plan_cache.misses, m.plan_cache.hits
        db.create_index("r", ["v"])
        m.insert("r", [(101, 1)])
        assert m.plan_cache.misses == misses
        assert m.plan_cache.hits > hits
        m.check_consistency()

    def test_options_are_frozen(self):
        __, m = fresh_maintainer()
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.options.left_deep = not m.options.left_deep

    def test_cache_metrics_recorded(self):
        telemetry = Telemetry()
        db, m = fresh_maintainer(telemetry=telemetry)
        m.insert("r", [(100, 1)])
        m.insert("r", [(101, 2)])
        text = telemetry.metrics_text()
        assert "repro_plan_cache_requests_total" in text
        assert 'outcome="hit"' in text
        assert 'outcome="miss"' in text
        assert "repro_plan_compile_seconds" in text


def test_a_checkpoint_restore_keeps_every_compiled_plan(tmp_path):
    """recover() restores the checkpoint's tables in place and replays the
    changes logged after it through the plans compiled before it."""
    wh = Warehouse(
        build_db(),
        wal_path=str(tmp_path / "changes.wal"),
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    on = eq("lineitem.l_orderkey", "orders.o_orderkey")
    wh.create_view("order_lines", order_lines_expr())
    wh.create_view("lines", Join("inner", Relation("lineitem"), Relation("orders"), on))

    def change(key):
        wh.insert("orders", [(key, key)])
        wh.insert("lineitem", [(key, 1, 5), (key, 2, 6)])
        wh.delete("lineitem", [(key, 1, 5)])

    change(0)
    wh.checkpoint()
    change(1)
    misses = {name: wh.maintainer(name).plan_cache.misses for name in wh.view_names}
    assert all(misses.values())
    wh.recover()
    assert wh.last_recovery["replayed"] == 3
    assert {name: wh.maintainer(name).plan_cache.misses for name in wh.view_names} == misses
    wh.check_consistency()
    wh.close()


class TestProvisioning:
    def test_probe_sites_skip_key_columns(self):
        db = make_v1_db()
        expr = Join("inner", Relation("r"), Relation("s"), eq("r.v", "s.k"))
        sites = probe_sites(expr, db)
        # s is probed on its key (covered); r on non-key v
        assert ("r", ("r.v",)) in sites
        assert all(t != "s" for t, __ in sites)

    def test_provision_creates_missing_index(self):
        db = make_v1_db()
        expr = Join("inner", Relation("r"), Relation("s"), eq("r.v", "s.v"))
        created = provision_indexes(expr, db)
        assert ("r", ("r.v",)) in created
        assert ("s", ("s.v",)) in created
        assert find_index(db.table("r"), ("r.v",)) is not None
        # second call is a no-op
        assert provision_indexes(expr, db) == []

    def test_maintainer_auto_provisions(self):
        db, m = fresh_maintainer()
        # the v1 view joins on the non-key v columns of all four tables
        assert all(find_index(db.table(t), (f"{t}.v",)) is None for t in "stu")
        m.insert("r", [(100, 1)])
        assert any(
            find_index(db.table(t), (f"{t}.v",)) is not None for t in "stu"
        )
        m.check_consistency()

