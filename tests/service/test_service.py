"""TimingService tests: cache transparency, coalescing, error capture."""

import pytest

from repro.context import RunContext
from repro.obs.metrics import default_registry
from repro.service import Query, ServiceError, TimingService
from repro.designs.generator import generate_design
from tests.conftest import SMALL_SPEC


def make_context(tmp_path, **overrides):
    base = dict(
        workers=1, backend="serial", cache_dir=str(tmp_path / "cache"),
        solver="direct", k_per_endpoint=6, pba_k=8,
    )
    base.update(overrides)
    return RunContext.from_env(**base)


@pytest.fixture()
def service(tmp_path):
    return TimingService(context=make_context(tmp_path))


class TestQueries:
    def test_sta_warm_equals_cold(self, service):
        cold = service.sta("fig2")
        warm = service.sta("fig2")
        assert cold == warm  # seconds excluded from equality

    def test_pba_and_fit(self, service):
        golden = service.pba_slacks("fig2", k=8)
        fit = service.mgba_fit("fig2")
        assert golden.k == 8
        assert fit.converged
        assert fit.pass_ratio_mgba >= fit.pass_ratio_gba

    def test_fit_leaves_engine_clean_for_pba(self, service):
        # The service runs fits with apply=False, so a later PBA query
        # must not trip PBAEngine's clean-engine requirement.
        service.mgba_fit("fig2")
        assert service.pba_slacks("fig2", k=8).slacks

    def test_unknown_op_rejected(self):
        with pytest.raises(ServiceError):
            Query(op="explode", design="fig2")

    def test_unknown_design_is_error_record(self, service):
        (outcome,) = service.submit(
            [{"op": "sta", "design": "no-such-design"}]
        )
        assert not outcome.ok
        assert outcome.error


class TestCacheTransparency:
    def test_cold_vs_warm_across_services(self, tmp_path):
        """A fresh service over the same dir reproduces bit-identically."""
        registry = default_registry()
        cold_svc = TimingService(context=make_context(tmp_path))
        batch = [
            {"op": "sta", "design": "fig2"},
            {"op": "pba_slacks", "design": "fig2", "k": 8},
            {"op": "mgba_fit", "design": "fig2"},
        ]
        cold = cold_svc.submit(batch)
        before = {
            cls: registry.counter(f"cache.hit.{cls}").value
            for cls in ("sta", "pba", "fit")
        }
        warm_svc = TimingService(context=make_context(tmp_path))
        warm = warm_svc.submit(batch)
        for c, w in zip(cold, warm):
            assert c.ok and w.ok
            assert w.cached
            assert c.result == w.result
        for cls in ("sta", "pba", "fit"):
            assert (registry.counter(f"cache.hit.{cls}").value
                    > before[cls]), cls

    def test_cache_disabled_still_correct(self, tmp_path):
        cached = TimingService(context=make_context(tmp_path))
        uncached = TimingService(
            context=make_context(tmp_path, cache=False)
        )
        assert uncached.cache is None
        assert cached.sta("fig2") == uncached.sta("fig2")

    def test_fit_knob_change_rotates_fit_key(self, tmp_path):
        """Changing a fit knob re-fits instead of serving a stale hit."""
        registry = default_registry()
        service = TimingService(context=make_context(tmp_path))
        service.mgba_fit("fig2")
        hits = registry.counter("cache.hit.fit").value
        misses = registry.counter("cache.miss.fit").value
        service.mgba_fit("fig2", k_per_endpoint=2)
        assert registry.counter("cache.hit.fit").value == hits
        assert registry.counter("cache.miss.fit").value == misses + 1
        # The unchanged fingerprint still hits.
        service.mgba_fit("fig2")
        assert registry.counter("cache.hit.fit").value == hits + 1


class TestBatching:
    def test_duplicates_coalesce(self, service):
        registry = default_registry()
        before = registry.counter("service.coalesced").value
        out = service.submit([
            {"op": "sta", "design": "fig2"},
            {"op": "sta", "design": "fig2"},
            {"op": "sta", "design": "fig2"},
        ])
        assert registry.counter("service.coalesced").value == before + 2
        assert out[0].result is out[1].result is out[2].result

    def test_input_order_preserved(self, service):
        out = service.submit([
            {"op": "pba_slacks", "design": "fig2", "k": 8},
            {"op": "sta", "design": "fig2"},
        ])
        assert [o.query.op for o in out] == ["pba_slacks", "sta"]

    def test_thread_sharding_matches_serial(self, tmp_path):
        batch = [
            {"op": "sta", "design": "D1"},
            {"op": "sta", "design": "fig2"},
        ]
        serial = TimingService(
            context=make_context(tmp_path / "a")
        ).submit(batch)
        sharded = TimingService(
            context=make_context(tmp_path / "b", workers=2,
                                 backend="process")
        ).submit(batch)
        for s, p in zip(serial, sharded):
            assert s.ok and p.ok
            assert s.result == p.result


class TestRegistration:
    def test_registered_bundle(self, tmp_path):
        service = TimingService(context=make_context(tmp_path))
        service.register_design("mine", design=generate_design(SMALL_SPEC))
        result = service.sta("mine")
        assert result.design == "mine"
        assert result.endpoints > 0

    def test_register_requires_exactly_one(self, tmp_path):
        service = TimingService(context=make_context(tmp_path))
        with pytest.raises(ServiceError):
            service.register_design("mine")

    def test_content_addressing_shares_artifacts(self, tmp_path):
        """Two names for identical content share one cache entry."""
        registry = default_registry()
        service = TimingService(context=make_context(tmp_path))
        service.register_design("a", design=generate_design(SMALL_SPEC))
        service.register_design("b", design=generate_design(SMALL_SPEC))
        hits = registry.counter("cache.hit.sta").value
        ra = service.sta("a")
        rb = service.sta("b")
        assert registry.counter("cache.hit.sta").value == hits + 1
        assert ra.design == "a" and rb.design == "b"
        assert ra.slacks == rb.slacks
