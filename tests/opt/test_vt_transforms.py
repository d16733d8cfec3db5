"""VT-swap move tests."""

import pytest

from repro.netlist.edit import swap_vt
from repro.opt.closure import TimingClosureOptimizer
from repro.opt.whatif import WhatIfError, apply_edit
from repro.designs.generator import generate_design
from tests.conftest import SMALL_SPEC, engine_for


@pytest.fixture()
def setup():
    design = generate_design(SMALL_SPEC)
    optimizer = TimingClosureOptimizer(
        design.netlist, design.constraints, design.placement,
        design.sta_config,
    )
    optimizer.engine.update_timing()
    return design, optimizer.engine, optimizer


def _data_gate(design, optimizer):
    return next(
        g for g in design.netlist.combinational_gates()
        if optimizer.is_touchable(g)
    )


class TestEditLevel:
    def test_swap_and_back(self, setup):
        design, _, optimizer = setup
        gate = _data_gate(design, optimizer)
        original = design.netlist.gate(gate).cell_name
        change = swap_vt(design.netlist, gate, "lvt")
        assert change is not None and change.kind == "vt_swap"
        assert design.netlist.cell_of(gate).vt == "lvt"
        swap_vt(design.netlist, gate, "svt")
        assert design.netlist.gate(gate).cell_name == original

    def test_noop_when_already_there(self, setup):
        design, _, optimizer = setup
        gate = _data_gate(design, optimizer)
        assert swap_vt(design.netlist, gate, "svt") is None

    def test_missing_flavour(self, setup):
        design, _, _ = setup
        buffer_gate = next(
            g for g in design.netlist.gates
            if design.netlist.cell_of(g).is_buffer
        )
        assert swap_vt(design.netlist, buffer_gate, "lvt") is None


class TestTransformLevel:
    def test_lvt_improves_endpoint_timing(self, setup):
        design, engine, optimizer = setup
        worst = engine.violating_endpoints()[0]
        wns_before = engine.summary().wns
        # Swap every touchable gate on the worst path to LVT.
        from repro.timing.report import trace_worst_path

        edges = trace_worst_path(engine.graph, engine.state, worst.node)
        swapped = 0
        for edge_id in edges:
            gate = engine.graph.edge(edge_id).gate
            spec = optimizer.vt_spec(gate, "lvt") if gate else None
            if spec is None:
                continue
            try:
                apply_edit(engine, spec, 0)
            except WhatIfError:
                continue
            swapped += 1
        assert swapped > 0
        assert engine.summary().wns > wns_before

    def test_hvt_cuts_leakage_preserving_area(self, setup):
        design, engine, optimizer = setup
        gate = _data_gate(design, optimizer)
        area = design.netlist.total_area()
        leakage = design.netlist.total_leakage()
        spec = optimizer.vt_spec(gate, "hvt")
        assert spec is not None
        apply_edit(engine, spec, 0)
        assert design.netlist.total_leakage() < leakage
        assert design.netlist.total_area() == pytest.approx(area)

    def test_revert_is_exact(self, setup):
        design, engine, optimizer = setup
        gate = _data_gate(design, optimizer)
        baseline = {s.name: s.slack for s in engine.setup_slacks()}
        _, undo, _ = apply_edit(engine, optimizer.vt_spec(gate, "lvt"), 0)
        undo(engine)
        restored = {s.name: s.slack for s in engine.setup_slacks()}
        assert restored == baseline

    def test_incremental_matches_full_after_swap(self, setup):
        design, engine, optimizer = setup
        gate = _data_gate(design, optimizer)
        apply_edit(engine, optimizer.vt_spec(gate, "hvt"), 0)
        reference = engine_for(design)
        got = {s.name: s.slack for s in engine.setup_slacks()}
        want = {s.name: s.slack for s in reference.setup_slacks()}
        for name in want:
            assert got[name] == pytest.approx(want[name], abs=1e-6)
