"""TimingService tests: cache transparency, coalescing, error capture."""

from dataclasses import replace

import pytest

from repro import api
from repro.context import RunContext
from repro.netlist.edit import resize_gate
from repro.obs.metrics import default_registry
from repro.service import Query, ServiceError, TimingService
from repro.service.suite import design_report
from repro.designs.generator import generate_design
from tests.conftest import SMALL_SPEC

#: Two suite designs in one batch: both load by name, so a worker
#: process could rebuild either one and miss an edit on its live engine.
TWO_DESIGNS = [
    {"op": "sta", "design": "D1"},
    {"op": "sta", "design": "fig2"},
]


def resize_first_gate(netlist):
    """Resize the first combinational gate; returns the ChangeRecord."""
    gate = netlist.combinational_gates()[0]
    return (resize_gate(netlist, gate, up=True)
            or resize_gate(netlist, gate, up=False))


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

    def test_process_context_matches_serial(self, tmp_path):
        serial = TimingService(
            context=make_context(tmp_path / "a")
        ).submit(TWO_DESIGNS)
        parallel = TimingService(
            context=make_context(tmp_path / "b", workers=2,
                                 backend="process")
        ).submit(TWO_DESIGNS)
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert s.result == p.result

    def test_batch_answers_for_the_edited_design(self, tmp_path):
        """An edit mirrored by ``apply_change`` shows in every batch."""

        def edited_batch(service):
            before = service.sta("D1")  # primes the pre-edit artifact
            change = resize_first_gate(service.design("D1").netlist)
            service.apply_change(change, design="D1")
            out = service.submit(TWO_DESIGNS)
            assert all(o.ok for o in out)
            assert out[0].result.slacks != before.slacks
            return [o.result for o in out]

        serial = edited_batch(TimingService(
            context=make_context(tmp_path / "a")
        ))
        parallel = edited_batch(TimingService(
            context=make_context(tmp_path / "b", workers=2,
                                 backend="process")
        ))
        assert parallel == serial
        twin = api.load_design("D1")
        resize_first_gate(twin.netlist)
        fresh = api.sta_result_from_engine(api.make_engine(twin))
        assert parallel[0] == replace(fresh, design="D1")

    def test_batches_start_no_worker_pool(self, tmp_path):
        """Only suite evaluation fans out: batches run in process."""
        maps = default_registry().counter("parallel.maps")
        before = maps.value
        service = TimingService(
            context=make_context(tmp_path, workers=2, backend="process")
        )
        service.submit(TWO_DESIGNS)
        warm = service.submit(TWO_DESIGNS)
        assert all(o.ok and o.cached for o in warm)
        assert maps.value == before


class TestEvaluate:
    def test_evaluate_answers_for_the_edited_design(self, tmp_path):
        """``evaluate`` reads the live engine, as ``sta`` does."""
        ctx = make_context(tmp_path)
        service = TimingService(context=ctx)
        before = service.evaluate(["D1"])[0]
        change = resize_gate(
            service.design("D1").netlist, "g_0_0_2", up=False
        )
        assert change is not None
        service.apply_change(change, design="D1")
        report = service.evaluate(["D1"])[0]
        sta = service.sta("D1")
        twin = api.load_design("D1")
        resize_gate(twin.netlist, "g_0_0_2", up=False)
        fresh = api.make_engine(twin).summary()
        assert (report.wns, report.tns) == (sta.wns, sta.tns)
        assert (report.wns, report.tns) == (fresh.wns, fresh.tns)
        assert (report.wns, report.tns) != (before.wns, before.tns)

        fitted = service.evaluate(["D1"], mgba=True)[0]
        expected = design_report(
            api.make_engine(twin), "D1", mgba=True,
            k_per_endpoint=ctx.k_per_endpoint, solver=ctx.solver,
            seed=ctx.seed,
        )
        assert fitted.comparable() == expected.comparable()


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
