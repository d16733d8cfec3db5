"""Incremental-update correctness: always identical to full recompute.

These are the load-bearing tests for the optimizer — a silent
incremental drift would corrupt every closure result downstream.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.edit import insert_buffer, remove_buffer, resize_gate
from tests.conftest import SMALL_SPEC, engine_for
from repro.designs.generator import generate_design


def _fresh():
    design = generate_design(SMALL_SPEC)
    engine = engine_for(design)
    engine.update_timing()
    return design, engine


def _assert_matches_full(engine, design):
    """Endpoint slacks and arrivals must equal a from-scratch engine."""
    reference = engine_for(design)
    reference.update_timing()
    got = {s.name: s.slack for s in engine.setup_slacks()}
    want = {s.name: s.slack for s in reference.setup_slacks()}
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == pytest.approx(want[name], abs=1e-6), name
    got_h = {s.name: s.slack for s in engine.hold_slacks()}
    want_h = {s.name: s.slack for s in reference.hold_slacks()}
    for name in want_h:
        assert got_h[name] == pytest.approx(want_h[name], abs=1e-6), name


def _touchable_gates(design):
    return [
        g for g in design.netlist.combinational_gates()
        if not g.startswith("ckbuf")
    ]


class TestResize:
    def test_flop_resize_rebinds_constraint_arcs(self):
        """A resized flop's endpoint checks against its new cell."""
        design, engine = _fresh()
        flop = sorted(design.netlist.sequential_gates())[0]
        change = resize_gate(design.netlist, flop, up=True)
        assert change is not None
        engine.apply_change(change)
        setup, hold = design.netlist.cell_of(flop).constraint_arcs()
        (info,) = [
            i for i in engine.graph.endpoints.values() if i.gate == flop
        ]
        assert info.setup_arc is setup and info.hold_arc is hold
        _assert_matches_full(engine, design)

    def test_single_upsize(self):
        design, engine = _fresh()
        gate = _touchable_gates(design)[0]
        change = resize_gate(design.netlist, gate, up=True)
        assert change is not None
        engine.apply_change(change)
        _assert_matches_full(engine, design)

    def test_resize_chain(self):
        design, engine = _fresh()
        for gate in _touchable_gates(design)[:8]:
            change = resize_gate(design.netlist, gate, up=True)
            if change is not None:
                engine.apply_change(change)
        _assert_matches_full(engine, design)

    def test_upsize_then_downsize_roundtrip(self):
        design, engine = _fresh()
        baseline = {s.name: s.slack for s in engine.setup_slacks()}
        gate = _touchable_gates(design)[3]
        engine.apply_change(resize_gate(design.netlist, gate, up=True))
        engine.apply_change(resize_gate(design.netlist, gate, up=False))
        restored = {s.name: s.slack for s in engine.setup_slacks()}
        for name, value in baseline.items():
            assert restored[name] == pytest.approx(value, abs=1e-9)

    def test_incremental_visits_fewer_nodes_than_full(self):
        design, engine = _fresh()
        from repro.timing.incremental import apply_change_incremental

        gate = _touchable_gates(design)[-1]
        change = resize_gate(design.netlist, gate, up=True)
        visited = apply_change_incremental(engine, change)
        assert 0 < visited < engine.graph.node_count()


def _loaded_net(design):
    """A data net with gate loads (buffer insertion needs loads)."""
    for gate in _touchable_gates(design):
        net = design.netlist.gate(gate).connections.get("Z")
        if net is None:
            continue
        loads = [
            r for r in design.netlist.net_loads(net) if not r.is_port
        ]
        if loads:
            return net
    raise AssertionError("design has no loaded data net")


class TestBufferEdits:
    def test_insert_buffer(self):
        design, engine = _fresh()
        net = _loaded_net(design)
        change = insert_buffer(
            design.netlist, net, "BUF_X2", placement=design.placement
        )
        engine.apply_change(change)
        _assert_matches_full(engine, design)

    def test_insert_then_remove(self):
        design, engine = _fresh()
        net = _loaded_net(design)
        change = insert_buffer(
            design.netlist, net, "BUF_X2", placement=design.placement
        )
        engine.apply_change(change)
        buffer_name = change.gates[0]
        inverse = remove_buffer(design.netlist, buffer_name)
        inverse.nets.extend(change.nets)
        design.placement.locations.pop(buffer_name, None)
        engine.apply_change(inverse)
        _assert_matches_full(engine, design)

    def test_remove_record_mirrors_unpatched(self):
        """remove_buffer's own record names the buffer it removed."""
        design, engine = _fresh()
        net = _loaded_net(design)
        change = insert_buffer(
            design.netlist, net, "BUF_X2", placement=design.placement
        )
        engine.apply_change(change)
        buffer_name = change.gates[0]
        design.placement.locations.pop(buffer_name, None)
        engine.apply_change(remove_buffer(design.netlist, buffer_name))
        # A weight install re-sweeps from a fresh layout, which would
        # trip over any graph node the record left behind.
        engine.set_gate_weights({})
        engine.update_timing()
        _assert_matches_full(engine, design)

    def test_depths_refresh_after_buffer(self):
        """Buffer insertion must update AOCV depths design-wide."""
        design, engine = _fresh()
        net = _loaded_net(design)
        change = insert_buffer(
            design.netlist, net, "BUF_X2", placement=design.placement
        )
        engine.apply_change(change)
        from repro.aocv.depth import compute_gba_depths

        assert engine.gba_depths == compute_gba_depths(design.netlist)


class TestWeightsInteraction:
    def test_weights_survive_incremental_edits(self):
        design, engine = _fresh()
        weights = {g: 0.9 for g in _touchable_gates(design)[:5]}
        engine.set_gate_weights(weights)
        engine.update_timing()
        gate = _touchable_gates(design)[10]
        engine.apply_change(resize_gate(design.netlist, gate, up=True))
        reference = engine_for(design)
        reference.set_gate_weights(weights)
        reference.update_timing()
        got = {s.name: s.slack for s in engine.setup_slacks()}
        want = {s.name: s.slack for s in reference.setup_slacks()}
        for name in want:
            assert got[name] == pytest.approx(want[name], abs=1e-6)


@settings(max_examples=8, deadline=None)
@given(plan=st.lists(st.tuples(st.booleans(), st.integers(0, 30)),
                     min_size=1, max_size=6))
def test_random_edit_sequences_match_full(plan):
    """Any mix of resizes stays consistent with full recompute."""
    design, engine = _fresh()
    gates = _touchable_gates(design)
    for up, idx in plan:
        gate = gates[idx % len(gates)]
        change = resize_gate(design.netlist, gate, up=up)
        if change is not None:
            engine.apply_change(change)
    _assert_matches_full(engine, design)
