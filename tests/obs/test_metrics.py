"""Metrics registry: counters, gauges, histogram bucket edges, the
Prometheus exposition format (golden text), and thread-safety under
concurrent fan-out."""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_with_labels(self, registry):
        c = registry.counter("hits_total", "Hits", ("view",))
        c.inc(view="a")
        c.inc(2, view="a")
        c.inc(view="b")
        assert c.value(view="a") == 3
        assert c.value(view="b") == 1
        assert c.total() == 4

    def test_counters_only_go_up(self, registry):
        c = registry.counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_label_mismatch_rejected(self, registry):
        c = registry.counter("y_total", "", ("view", "table"))
        with pytest.raises(ValueError):
            c.inc(view="a")  # missing 'table'
        with pytest.raises(ValueError):
            c.inc(view="a", table="t", extra="nope")


class TestRegistry:
    def test_registration_idempotent(self, registry):
        a = registry.counter("same_total", "h", ("view",))
        b = registry.counter("same_total", "h", ("view",))
        assert a is b

    def test_conflicting_redefinition_raises(self, registry):
        registry.counter("thing", "", ("view",))
        with pytest.raises(ValueError):
            registry.gauge("thing", "", ("view",))
        with pytest.raises(ValueError):
            registry.counter("thing", "", ("view", "table"))

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render_prometheus() == ""


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth", "", ("view",))
        g.set(10, view="v")
        g.labels(view="v").inc(5)
        g.labels(view="v").dec(3)
        assert g.value(view="v") == 12


class TestHistogramBuckets:
    def test_bucket_edges_are_le(self, registry):
        h = registry.histogram("lat", "", (), buckets=(0.1, 1.0, 10.0))
        # exactly on an edge counts in that bucket (Prometheus `le`)
        h.observe(0.1)
        h.observe(1.0)
        h.observe(0.05)
        h.observe(5.0)
        h.observe(100.0)  # beyond the last bound -> +Inf only
        series = h.labels()
        assert series.counts == [2, 1, 1, 1]
        assert series.count == 5
        assert series.sum == pytest.approx(106.15)

    def test_cumulative_rendering(self, registry):
        h = registry.histogram("lat_seconds", "Latency", (), buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        text = registry.render_prometheus()
        # integral bounds collapse to their integer form ("1", not "1.0")
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="2"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_sum 5" in text
        assert "lat_seconds_count 3" in text

    def test_buckets_sorted_and_deduped(self, registry):
        h = registry.histogram("h", "", (), buckets=(5.0, 1.0, 5.0))
        assert h.buckets == (1.0, 5.0)

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("h", "", (), buckets=())


# (observations as (view, table, seconds), q, label match, expected) over
# bounds 1 / 2 / 4: the bucket quantile every p50/p95/p99 is read from
QUANTILE_TABLE = {
    "empty-histogram": ([], 0.5, {}, 0.0),
    "no-series-matches": ([("v3", "t", 1.5)], 0.5, {"view": "oj"}, 0.0),
    "single-bucket": ([("v3", "t", 1.5)] * 4, 0.5, {}, 1.5),
    "first-bucket-starts-at-0": ([("v3", "t", 0.5)], 0.5, {}, 0.5),
    "interpolates-inside-a-bucket": (
        [("v3", "t", 0.5), ("v3", "t", 3.0), ("v3", "t", 3.0), ("v3", "t", 3.0)],
        0.75,
        {},
        2.0 + 2.0 * (2 / 3),
    ),
    "inf-gives-the-highest-finite-bound": ([("v3", "t", 9.0)], 0.99, {}, 4.0),
    "sums-across-label-sets": (
        [("v3", "a", 0.5), ("v3", "b", 1.5), ("oj", "a", 3.0)],
        1.0,
        {"view": "v3"},
        2.0,
    ),
    "matches-every-label-given": (
        [("v3", "a", 0.5), ("v3", "b", 1.5), ("oj", "b", 3.0)],
        0.5,
        {"view": "v3", "table": "b"},
        1.5,
    ),
}


@pytest.mark.parametrize("case", QUANTILE_TABLE)
def test_histogram_quantile(registry, case):
    observations, q, match, expected = QUANTILE_TABLE[case]
    h = registry.histogram("h_seconds", "", ("view", "table"), buckets=(1.0, 2.0, 4.0))
    for view, table, seconds in observations:
        h.observe(seconds, view=view, table=table)
    assert h.quantile(q, **match) == pytest.approx(expected)


GOLDEN = """\
# HELP repro_maintenance_seconds Wall time of one pass
# TYPE repro_maintenance_seconds histogram
repro_maintenance_seconds_bucket{view="v3",le="0.3"} 1
repro_maintenance_seconds_bucket{view="v3",le="1"} 2
repro_maintenance_seconds_bucket{view="v3",le="+Inf"} 2
repro_maintenance_seconds_sum{view="v3"} 0.75
repro_maintenance_seconds_count{view="v3"} 2
# HELP repro_view_rows Current view cardinality
# TYPE repro_view_rows gauge
repro_view_rows{view="v3"} 42
# HELP repro_view_rows_changed_total Rows changed
# TYPE repro_view_rows_changed_total counter
repro_view_rows_changed_total{view="v3",operation="delete"} 3
repro_view_rows_changed_total{view="v3",operation="insert"} 7
"""


class TestExposition:
    def test_golden_text(self, registry):
        rows = registry.counter(
            "repro_view_rows_changed_total", "Rows changed",
            ("view", "operation"),
        )
        rows.inc(7, view="v3", operation="insert")
        rows.inc(3, view="v3", operation="delete")
        seconds = registry.histogram(
            "repro_maintenance_seconds", "Wall time of one pass",
            ("view",), buckets=(0.3, 1.0),
        )
        seconds.observe(0.25, view="v3")
        seconds.observe(0.5, view="v3")
        gauge = registry.gauge(
            "repro_view_rows", "Current view cardinality", ("view",)
        )
        gauge.set(42, view="v3")
        assert registry.render_prometheus() == GOLDEN

    def test_label_values_escaped(self, registry):
        c = registry.counter("esc_total", "", ("name",))
        c.inc(name='we"ird\\label\nvalue')
        text = registry.render_prometheus()
        assert 'name="we\\"ird\\\\label\\nvalue"' in text


class TestConcurrency:
    """The dispatcher, callers' threads and shard reply readers hammer
    shared instruments at once; every increment must survive."""

    THREADS = 8
    ITERS = 2000

    def _hammer(self, fn):
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            for i in range(self.ITERS):
                fn(i)

        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_increments_not_lost(self, registry):
        c = registry.counter("c_total", "", ("view",))
        self._hammer(lambda i: c.inc(view="v"))
        assert c.value(view="v") == self.THREADS * self.ITERS

    def test_counter_series_creation_races(self, registry):
        # every thread touches every label the first time around, so
        # series creation itself races, not just the increments
        c = registry.counter("s_total", "", ("view",))
        self._hammer(lambda i: c.inc(view=f"v{i % 16}"))
        assert c.total() == self.THREADS * self.ITERS

    def test_gauge_inc_dec_balance(self, registry):
        g = registry.gauge("g", "", ())
        self._hammer(
            lambda i: g.labels().inc() if i % 2 else g.labels().dec()
        )
        assert g.value() == 0

    def test_histogram_counts_consistent(self, registry):
        h = registry.histogram("h", "", (), buckets=(0.5,))
        self._hammer(lambda i: h.observe(i % 2 * 1.0))
        series = h.labels()
        counts, total_sum, total_count = series.snapshot()
        assert total_count == self.THREADS * self.ITERS
        assert sum(counts) == total_count
        assert total_sum == self.THREADS * self.ITERS / 2

    def test_registration_races_return_same_instrument(self, registry):
        got = []
        lock = threading.Lock()

        def register(i):
            metric = registry.counter("race_total", "", ("k",))
            with lock:
                got.append(metric)

        self._hammer(register)
        assert len(set(map(id, got))) == 1

    def test_render_during_writes_is_coherent(self, registry):
        h = registry.histogram("lat", "", (), buckets=(0.5,))
        stop = threading.Event()
        bad: list = []

        def scrape():
            while not stop.is_set():
                text = registry.render_prometheus()
                for block in _histogram_blocks(text, "lat"):
                    if block["count"] < block["inf"]:
                        bad.append(block)

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            self._hammer(lambda i: h.observe(0.25))
        finally:
            stop.set()
            scraper.join()
        assert not bad


def _histogram_blocks(text, name):
    """Extract {inf, count} pairs for histogram *name* from exposition
    text; `_count` must never lag the rendered +Inf bucket."""
    inf = count = None
    for line in text.splitlines():
        if line.startswith(f'{name}_bucket{{le="+Inf"}}'):
            inf = int(line.rsplit(" ", 1)[1])
        elif line.startswith(f"{name}_count"):
            count = int(line.rsplit(" ", 1)[1])
    if inf is None or count is None:
        return []
    return [{"inf": inf, "count": count}]
