"""Plan-cache behavior: hit/miss accounting, fingerprint invalidation on
option and index changes, and automatic index provisioning."""

from repro.algebra.expr import Join, Relation
from repro.algebra.predicates import eq
from repro.core import MaterializedView, ViewMaintainer
from repro.engine.index import find_index
from repro.obs import Telemetry
from repro.planner import PlanCache, probe_sites, provision_indexes

from ..conftest import make_v1_db, make_v1_defn
from ..core.test_leftdeep import is_left_deep


class TestPlanCacheUnit:
    def test_miss_then_hit(self):
        cache = PlanCache()
        found, plan = cache.get("k", fingerprint=1)
        assert not found and plan is None
        cache.store("k", 1, "PLAN")
        found, plan = cache.get("k", fingerprint=1)
        assert found and plan == "PLAN"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_fingerprint_mismatch_is_miss(self):
        cache = PlanCache()
        cache.store("k", 1, "PLAN")
        found, plan = cache.get("k", fingerprint=2)
        assert not found and plan is None

    def test_none_plan_is_a_hit(self):
        """The cache hands back whatever it holds: *found*, not the value,
        tells a hit from a miss (the maintainers only ever store plans)."""
        cache = PlanCache()
        cache.store("k", 1, None)
        found, plan = cache.get("k", 1)
        assert found and plan is None

    def test_invalidate(self):
        cache = PlanCache()
        cache.store("k", 1, "PLAN")
        cache.invalidate()
        assert len(cache) == 0


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

    def test_index_change_invalidates(self):
        db, m = fresh_maintainer()
        m.insert("r", [(100, 1)])
        hits_before = m.plan_cache.hits
        # a combination no plan probes (plain u.v was auto-provisioned
        # already): creating it bumps the index epoch
        db.create_index("u", ["k", "v"])
        m.insert("r", [(101, 2)])
        # same key, stale fingerprint: recompiled, not served from cache
        assert m.plan_cache.hits == hits_before
        m.insert("r", [(102, 3)])
        assert m.plan_cache.hits > hits_before
        m.check_consistency()

    def test_option_change_invalidates(self, monkeypatch):
        """Flipping an option recompiles the plan from a logical tree of
        the new shape, not from the tree derived under the old options."""
        db, m = fresh_maintainer()
        m.insert("r", [(100, 1)])
        assert is_left_deep(m.delta_expression("r", True))
        hits_before = m.plan_cache.hits
        compiled = []
        build = m._build_primary_plan
        monkeypatch.setattr(
            m, "_build_primary_plan",
            lambda table, expr: compiled.append(expr) or build(table, expr),
        )
        m.options.left_deep = not m.options.left_deep
        m.insert("r", [(101, 2)])
        assert m.plan_cache.hits == hits_before
        (tree,) = compiled
        assert not is_left_deep(tree)  # bushy: ΔR ⟗ S ⟕ (T ⟗ U)
        m.check_consistency()

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
        epoch_before = db.index_epoch
        m.insert("r", [(100, 1)])
        assert db.index_epoch > epoch_before
        # the v1 view joins on the non-key v columns of all four tables
        assert any(
            find_index(db.table(t), (f"{t}.v",)) is not None for t in "stu"
        )
        m.check_consistency()

