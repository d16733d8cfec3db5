"""Metrics-registry tests: counters, gauges, histogram percentiles."""

import json

import pytest

from repro.obs import Histogram, MetricsRegistry, default_registry


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.counter("c").value == 5

    def test_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        registry.gauge("g").set(-2.0)
        assert registry.gauge("g").value == -2.0


class TestHistogramPercentiles:
    def test_exact_endpoints(self):
        hist = Histogram("h", boundaries=[1, 2, 3, 4, 5])
        for value in (1, 2, 3, 4, 5):
            hist.observe(value)
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 5
        assert hist.count == 5
        assert hist.mean == 3

    def test_median_of_uniform_grid(self):
        hist = Histogram("h", boundaries=list(range(0, 101)))
        for value in range(1, 101):   # 1..100, one per bucket
            hist.observe(value)
        # Interpolated median of 1..100 lies between 49 and 51.
        assert 49 <= hist.percentile(50) <= 51
        assert 89 <= hist.percentile(90) <= 91

    def test_single_bucket_does_not_smear(self):
        hist = Histogram("h", boundaries=[10, 1000])
        for _ in range(100):
            hist.observe(500)
        # All mass in one bucket: percentiles clamp to observed range.
        assert hist.percentile(50) == 500
        assert hist.percentile(99) == 500

    def test_overflow_bucket(self):
        hist = Histogram("h", boundaries=[1.0])
        hist.observe(1e9)
        assert hist.counts[-1] == 1
        assert hist.percentile(100) == 1e9

    def test_empty(self):
        hist = Histogram("h")
        assert hist.percentile(50) == 0.0
        assert hist.mean == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=[2, 1])
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)


class TestRegistry:
    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_and_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("solver.iterations").inc(100)
        registry.gauge("mgba.pass_ratio").set(0.97)
        registry.histogram("scg.grad_norm").observe(3.0)
        snap = registry.snapshot()
        assert snap["solver.iterations"] == {
            "type": "counter", "value": 100,
        }
        assert snap["mgba.pass_ratio"]["value"] == 0.97
        assert snap["scg.grad_norm"]["count"] == 1
        path = tmp_path / "m.json"
        registry.save_json(path)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(snap)
        )

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert registry.names() == []

    def test_default_registry_is_shared(self):
        from repro.obs import counter

        before = default_registry().counter("test.shared").value
        counter("test.shared").inc()
        assert default_registry().counter("test.shared").value \
            == before + 1


class TestThreadSafety:
    """Metrics recorded from several threads at once must not drop."""

    def test_concurrent_hammer(self):
        import threading

        registry = MetricsRegistry()
        threads_n, per_thread = 8, 2_000
        barrier = threading.Barrier(threads_n)

        def hammer():
            barrier.wait()
            for i in range(per_thread):
                registry.counter("hammer.count").inc()
                registry.gauge("hammer.inflight").add(1)
                registry.gauge("hammer.inflight").add(-1)
                registry.histogram("hammer.values").observe(i % 7)

        threads = [threading.Thread(target=hammer)
                   for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = threads_n * per_thread
        assert registry.counter("hammer.count").value == total
        assert registry.gauge("hammer.inflight").value == 0
        hist = registry.histogram("hammer.values")
        assert hist.count == total
        assert sum(hist.counts) == total

    def test_concurrent_creation_yields_one_instrument(self):
        import threading

        registry = MetricsRegistry()
        barrier = threading.Barrier(8)
        seen = []

        def create():
            barrier.wait()
            seen.append(id(registry.counter("race.counter")))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 1

    def test_gauge_add_from_unset(self):
        registry = MetricsRegistry()
        assert registry.gauge("g").add(2.5) == 2.5
        assert registry.gauge("g").add(-1.0) == 1.5

    def test_histogram_reports_p95(self):
        hist = Histogram("h", boundaries=[1, 2, 3, 4, 5])
        for value in (1, 2, 3, 4, 5):
            hist.observe(value)
        record = hist.to_dict()
        assert "p95" in record
        assert record["p50"] <= record["p95"] <= record["p99"] or (
            record["p95"] == pytest.approx(record["p99"], rel=1e-9)
        )
