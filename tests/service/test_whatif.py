"""Service ``what_if`` / ``min_period`` verbs: per-candidate caching.

The service caches what-if outcomes *per candidate* under
``what_if_key(design content, candidate)`` — a batch that repeats one
candidate across requests recomputes only the new ones, and an edit
rotates the design key so every cached outcome silently misses (and
re-hits after a revert, the PR-3 invalidation contract).
"""

import pytest

from repro.context import RunContext
from repro.designs.generator import generate_design
from repro.netlist.edit import resize_gate
from repro.obs.metrics import default_registry
from repro.service import ServiceError, TimingService
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
    svc = TimingService(context=make_context(tmp_path))
    svc.register_design("dut", design=generate_design(SMALL_SPEC))
    return svc


def candidates_for(service, count=3):
    gates = service.design("dut").netlist.combinational_gates()
    return [
        [{"kind": "resize", "gate": gates[i], "up": i % 2 == 0}]
        for i in range(count)
    ]


class TestWhatIfVerb:
    def test_repeat_request_is_fully_cached(self, service):
        candidates = candidates_for(service)
        (cold,) = service.submit([{
            "op": "what_if", "design": "dut", "candidates": candidates,
        }])
        (warm,) = service.submit([{
            "op": "what_if", "design": "dut", "candidates": candidates,
        }])
        assert cold.ok and warm.ok
        assert not cold.cached and warm.cached
        assert cold.result == warm.result
        assert warm.result.design == "dut"

    def test_partial_overlap_hits_per_candidate(self, service):
        registry = default_registry()
        first, second, third = candidates_for(service, 3)
        service.what_if("dut", [first, second])
        hits_before = registry.counter("cache.hit.what_if").value
        (outcome,) = service.submit([{
            "op": "what_if", "design": "dut",
            "candidates": [first, third],
        }])
        # `first` hit the per-candidate cache; `third` was computed, so
        # the request as a whole is not "cached".
        assert registry.counter("cache.hit.what_if").value > hits_before
        assert not outcome.cached
        assert outcome.result.candidates[0].ok

    def test_matches_facade_evaluation(self, service):
        candidates = candidates_for(service)
        from repro.opt.whatif import evaluate_what_if

        direct = evaluate_what_if(generate_design(SMALL_SPEC), candidates)
        via_service = service.what_if("dut", candidates)
        assert via_service.candidates == direct.candidates
        assert via_service.wns_baseline == direct.wns_baseline

    def test_edit_rotates_key_and_revert_rehits(self, service):
        candidates = candidates_for(service, 2)
        original = service.what_if("dut", candidates)
        key_before = service.design_key("dut").token

        netlist = service.design("dut").netlist
        gate = netlist.combinational_gates()[5]
        change = resize_gate(netlist, gate, up=True)
        if change is None:
            change = resize_gate(netlist, gate, up=False)
        service.apply_change(change, design="dut")
        assert service.design_key("dut").token != key_before
        edited = service.what_if("dut", candidates)
        assert edited.candidates  # computed fresh under the rotated key

        # Revert: pristine content -> same address -> cache hits again.
        service.register_design("dut", design=generate_design(SMALL_SPEC))
        assert service.design_key("dut").token == key_before
        (outcome,) = service.submit([{
            "op": "what_if", "design": "dut", "candidates": candidates,
        }])
        assert outcome.cached
        assert outcome.result == original

    def test_live_engine_unharmed_by_what_if(self, service):
        before = service.sta("dut")
        service.what_if("dut", candidates_for(service))
        assert service.design_key("dut")  # key never rotated
        assert service.sta("dut") == before

    def test_parallel_context_matches_serial(self, tmp_path):
        serial_svc = TimingService(context=make_context(tmp_path / "a"))
        serial_svc.register_design("dut", design=generate_design(SMALL_SPEC))
        parallel_svc = TimingService(
            context=make_context(tmp_path / "b", workers=3, backend="process")
        )
        parallel_svc.register_design(
            "dut", design=generate_design(SMALL_SPEC)
        )
        candidates = candidates_for(serial_svc)
        assert (serial_svc.what_if("dut", candidates)
                == parallel_svc.what_if("dut", candidates))

    def test_empty_candidates_rejected(self, service):
        with pytest.raises(ServiceError, match="non-empty"):
            service.what_if("dut", [])

    def test_eco_text_candidate_accepted(self, service):
        gates = service.design("dut").netlist.combinational_gates()
        spec_form = service.what_if(
            "dut", [[{"kind": "resize", "gate": gates[0], "up": True}]]
        )
        assert spec_form.candidates[0].ok
        text = "\n".join(spec_form.candidates[0].eco)
        via_text = service.what_if("dut", [text])
        assert via_text.candidates[0] == spec_form.candidates[0]


class TestMinPeriodVerb:
    def test_repeat_request_is_cached(self, service):
        (cold,) = service.submit(
            [{"op": "min_period", "design": "dut"}]
        )
        (warm,) = service.submit(
            [{"op": "min_period", "design": "dut"}]
        )
        assert cold.ok and warm.ok
        assert not cold.cached and warm.cached
        assert cold.result == warm.result
        assert warm.result.wns_at_period >= 0.0

    def test_tolerance_is_part_of_the_key(self, service):
        coarse = service.min_period("dut", tolerance=8.0)
        fine = service.min_period("dut", tolerance=0.5)
        assert fine.tolerance == 0.5
        assert fine.period <= coarse.period + 1e-9

    def test_corner_search_is_slower_and_labelled(self, service):
        nominal = service.min_period("dut")
        slow = service.min_period("dut", corner=("ss", 1.2))
        assert slow.period > nominal.period
        assert slow.corner == "ss:1.2"
        assert nominal.corner == ""

    def test_edit_rotates_min_period_key(self, service):
        service.min_period("dut")
        netlist = service.design("dut").netlist
        gate = netlist.combinational_gates()[0]
        change = resize_gate(netlist, gate, up=True)
        if change is None:
            change = resize_gate(netlist, gate, up=False)
        service.apply_change(change, design="dut")
        (outcome,) = service.submit(
            [{"op": "min_period", "design": "dut"}]
        )
        assert outcome.ok and not outcome.cached
