"""Vector-kernel equivalence gate: bit-identical to the scalar oracle.

Every assertion here is exact (``np.array_equal`` / ``==``), not
approximate — the vectorized kernel is only allowed to ship because it
reproduces the scalar engine's IEEE-754 results bit for bit, on full
updates, mGBA-weighted updates, cached (arrival-only) re-updates, and
post-edit incremental states, across the fixture designs, the design
suite, and hypothesis-random reconvergent netlists.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.designs.generator import generate_design
from repro.designs.suite import build_design
from repro.errors import TimingError
from repro.netlist.edit import insert_buffer, resize_gate
from repro.obs.flight import default_flight_recorder
from repro.obs.metrics import counter
from repro.timing import kernel as kernel_mod
from repro.timing.sta import STAEngine, resolve_kernel
from tests.conftest import SMALL_SPEC
from tests.timing.strategies import design_specs


def _engine(design, kernel: str) -> STAEngine:
    return STAEngine(
        design.netlist, design.constraints, design.placement,
        replace(design.sta_config, kernel=kernel),
    )


def _pair(factory):
    """(scalar, vector) engines over independently built design copies.

    Generated buffer names depend only on the netlist, so edit
    sequences applied to both copies create identically named instances
    (names feed the ``gate_slacks`` ordering contract).
    """
    return _engine(factory(), "scalar"), _engine(factory(), "vector")


def _live_ids(engine) -> list[int]:
    return sorted(n.id for n in engine.graph.live_nodes())


def _assert_states_identical(scalar: STAEngine, vector: STAEngine) -> None:
    ids = _live_ids(scalar)
    assert ids == _live_ids(vector)
    for attr in ("arrival_late", "arrival_early", "slew"):
        a = getattr(scalar.state, attr)[ids]
        b = getattr(vector.state, attr)[ids]
        assert np.array_equal(a, b), attr


def _assert_results_identical(scalar: STAEngine, vector: STAEngine) -> None:
    _assert_states_identical(scalar, vector)
    for kind in ("setup_slacks", "hold_slacks"):
        a = {s.name: s.slack for s in getattr(scalar, kind)()}
        b = {s.name: s.slack for s in getattr(vector, kind)()}
        assert a == b, kind
    req_s = scalar.required_times()
    req_v = vector.required_times()
    ids = _live_ids(scalar)
    assert np.array_equal(
        np.asarray(req_s)[ids], np.asarray(req_v)[ids]
    )
    gs, gv = scalar.gate_slacks(), vector.gate_slacks()
    assert gs == gv
    assert list(gs) == list(gv)  # insertion order is part of the contract


def _weights_for(netlist, scale: float = 0.03) -> dict[str, float]:
    gates = sorted(netlist.gates)
    return {g: 1.0 + scale * (i % 7) / 7.0 for i, g in enumerate(gates)}


# ----------------------------------------------------------------------
# Full updates
# ----------------------------------------------------------------------
class TestFullUpdateEquivalence:
    def test_fixture_design(self):
        scalar, vector = _pair(lambda: generate_design(SMALL_SPEC))
        scalar.update_timing()
        vector.update_timing()
        _assert_results_identical(scalar, vector)

    @pytest.mark.parametrize("name", ["D1", "D5"])
    def test_suite_designs(self, name):
        scalar, vector = _pair(lambda: build_design(name))
        scalar.update_timing()
        vector.update_timing()
        _assert_results_identical(scalar, vector)

    def test_weighted_update(self):
        scalar, vector = _pair(lambda: generate_design(SMALL_SPEC))
        design_weights = _weights_for(scalar.netlist)
        for engine in (scalar, vector):
            engine.update_timing()
            engine.set_gate_weights(design_weights)
            engine.update_timing()
        _assert_results_identical(scalar, vector)

    def test_cached_arrival_only_update_is_identical(self):
        """Second vector update hits the flow cache, same results."""
        scalar, vector = _pair(lambda: generate_design(SMALL_SPEC))
        scalar.update_timing()
        vector.update_timing()
        hits = counter("kernel.arrival_only_updates").value
        vector.set_gate_weights(_weights_for(vector.netlist))
        scalar.set_gate_weights(_weights_for(scalar.netlist))
        vector.update_timing()
        scalar.update_timing()
        assert counter("kernel.arrival_only_updates").value == hits + 1
        _assert_results_identical(scalar, vector)

    def test_edit_invalidates_flow_cache(self):
        """A resize must force a real delay-calc pass, not a cache hit."""
        scalar, vector = _pair(lambda: generate_design(SMALL_SPEC))
        scalar.update_timing()
        vector.update_timing()
        for engine in (scalar, vector):
            change = resize_gate(
                engine.netlist,
                sorted(engine.netlist.combinational_gates())[0],
                up=True,
            )
            assert change is not None
            engine.apply_change(change)
        _assert_results_identical(scalar, vector)


# ----------------------------------------------------------------------
# Incremental updates after edits
# ----------------------------------------------------------------------
def _apply_edits(engine: STAEngine) -> None:
    """A deterministic edit mix: resizes plus a buffer insertion."""
    gates = sorted(
        g for g in engine.netlist.combinational_gates()
        if not g.startswith("ckbuf")
    )
    for gate in gates[:4]:
        change = resize_gate(engine.netlist, gate, up=True)
        if change is not None:
            engine.apply_change(change)
    nets = sorted(
        n for n in engine.netlist.nets
        if len(engine.netlist.net_loads(n)) >= 2
        and engine.netlist.net_driver(n) is not None
        and not n.startswith("clk")
    )
    if nets:
        engine.apply_change(
            insert_buffer(engine.netlist, nets[0], "BUF_X2")
        )
    for gate in gates[4:6]:
        change = resize_gate(engine.netlist, gate, up=False)
        if change is not None:
            engine.apply_change(change)


class TestIncrementalEquivalence:
    def test_post_edit_states_identical(self):
        scalar, vector = _pair(lambda: generate_design(SMALL_SPEC))
        scalar.update_timing()
        vector.update_timing()
        _apply_edits(scalar)
        _apply_edits(vector)
        _assert_results_identical(scalar, vector)

    def test_weighted_then_edited(self):
        scalar, vector = _pair(lambda: generate_design(SMALL_SPEC))
        for engine in (scalar, vector):
            engine.update_timing()
            engine.set_gate_weights(_weights_for(engine.netlist))
            engine.update_timing()
        _apply_edits(scalar)
        _apply_edits(vector)
        _assert_results_identical(scalar, vector)

    def test_incremental_matches_fresh_full_update(self):
        """Vector incremental state == a from-scratch vector engine."""
        edited = _engine(generate_design(SMALL_SPEC), "vector")
        edited.update_timing()
        _apply_edits(edited)
        fresh = _engine(generate_design(SMALL_SPEC), "vector")
        fresh.update_timing()
        _apply_edits(fresh)
        fresh.update_timing()  # force a second full pass over same netlist
        _assert_states_identical(fresh, edited)


# ----------------------------------------------------------------------
# Hypothesis: random reconvergent designs with clock trees
# ----------------------------------------------------------------------
class TestRandomDesigns:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=design_specs())
    def test_full_and_weighted_equivalence(self, spec):
        scalar, vector = _pair(lambda: generate_design(spec))
        scalar.update_timing()
        vector.update_timing()
        _assert_states_identical(scalar, vector)
        weights = _weights_for(scalar.netlist)
        for engine in (scalar, vector):
            engine.set_gate_weights(weights)
            engine.update_timing()
        _assert_results_identical(scalar, vector)

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=design_specs(max_flops=10))
    def test_incremental_after_edit_equivalence(self, spec):
        scalar, vector = _pair(lambda: generate_design(spec))
        scalar.update_timing()
        vector.update_timing()
        _apply_edits(scalar)
        _apply_edits(vector)
        _assert_states_identical(scalar, vector)


# ----------------------------------------------------------------------
# Kernel selection and failures
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_default_is_vector(self):
        assert resolve_kernel(None) == "vector"

    def test_unknown_kernel_raises(self):
        with pytest.raises(TimingError):
            resolve_kernel("simd")


def _last_span_error(name: str) -> "str | None":
    records = [r for r in default_flight_recorder().spans() if r.name == name]
    assert records, f"no {name} span recorded"
    return records[-1].error


class TestKernelFailures:
    """A vector-kernel error raises as is; nothing reruns the oracle."""

    def test_full_update_error_escapes(self, monkeypatch):
        engine = _engine(generate_design(SMALL_SPEC), "vector")
        injected = RuntimeError("injected kernel failure")

        def boom(*args, **kwargs):
            raise injected

        monkeypatch.setattr(kernel_mod, "_propagate_full", boom)
        default_flight_recorder().clear()
        with pytest.raises(RuntimeError) as excinfo:
            engine.update_timing()
        assert excinfo.value is injected
        assert _last_span_error("sta.update_timing") == "RuntimeError"

    def test_incremental_error_escapes(self, monkeypatch):
        engine = _engine(generate_design(SMALL_SPEC), "vector")
        engine.update_timing()
        gate = sorted(engine.netlist.combinational_gates())[0]
        change = resize_gate(engine.netlist, gate, up=True) \
            or resize_gate(engine.netlist, gate, up=False)
        assert change is not None
        injected = RuntimeError("injected kernel failure")

        def boom(*args, **kwargs):
            raise injected

        monkeypatch.setattr(kernel_mod, "propagate_incremental", boom)
        default_flight_recorder().clear()
        with pytest.raises(RuntimeError) as excinfo:
            engine.apply_change(change)
        assert excinfo.value is injected
        assert _last_span_error("sta.apply_change") == "RuntimeError"


# ----------------------------------------------------------------------
# Layout reuse
# ----------------------------------------------------------------------
class TestLayoutLifecycle:
    def test_weight_refresh_reuses_layout(self):
        engine = _engine(generate_design(SMALL_SPEC), "vector")
        engine.update_timing()
        layout = engine._layout
        engine.set_gate_weights({"ff0": 1.01})
        engine.update_timing()
        assert engine._layout is layout

    def test_structural_edit_rebuilds_layout(self):
        engine = _engine(generate_design(SMALL_SPEC), "vector")
        engine.update_timing()
        layout = engine._layout
        nets = sorted(
            n for n in engine.netlist.nets
            if len(engine.netlist.net_loads(n)) >= 2
            and engine.netlist.net_driver(n) is not None
            and not n.startswith("clk")
        )
        engine.apply_change(
            insert_buffer(engine.netlist, nets[0], "BUF_X2")
        )
        engine.update_timing()
        assert engine._layout is not layout
