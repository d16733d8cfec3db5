"""Closure moves as edit specs: build, apply, undo — exactly."""

import pytest

from repro.opt.closure import TimingClosureOptimizer
from repro.opt.whatif import apply_edit
from tests.conftest import SMALL_SPEC
from repro.designs.generator import generate_design


def _optimizer(design):
    return TimingClosureOptimizer(
        design.netlist, design.constraints, design.placement,
        design.sta_config,
    )


@pytest.fixture()
def setup():
    design = generate_design(SMALL_SPEC)
    optimizer = _optimizer(design)
    optimizer.engine.update_timing()
    return design, optimizer.engine, optimizer


def _slacks(engine):
    return {s.name: s.slack for s in engine.setup_slacks()}


def _data_gate(design, optimizer):
    return next(
        g for g in design.netlist.combinational_gates()
        if optimizer.is_touchable(g)
    )


class TestTouchability:
    def test_clock_buffers_untouchable(self):
        # Read from the live graph: right even before the first update.
        design = generate_design(SMALL_SPEC)
        optimizer = _optimizer(design)
        clock_gates = [
            g for g in design.netlist.gates if g.startswith("ckbuf")
        ]
        assert clock_gates
        for gate in clock_gates:
            assert not optimizer.is_touchable(gate)

    def test_flops_untouchable(self, setup):
        design, _, optimizer = setup
        for flop in design.netlist.sequential_gates():
            assert not optimizer.is_touchable(flop)

    def test_data_gates_touchable(self, setup):
        design, _, optimizer = setup
        assert _data_gate(design, optimizer)


class TestUpsizeDownsize:
    def test_upsize_and_revert_restores_slacks(self, setup):
        design, engine, optimizer = setup
        baseline = _slacks(engine)
        gate = _data_gate(design, optimizer)
        old_cell = design.netlist.gate(gate).cell_name
        spec = optimizer.resize_spec(gate, up=True)
        assert spec is not None
        _, undo, eco = apply_edit(engine, spec, 0)
        new_cell = design.netlist.gate(gate).cell_name
        assert eco == f"size_cell {gate} {new_cell}"
        assert _slacks(engine) != pytest.approx(baseline)
        undo(engine)
        assert design.netlist.gate(gate).cell_name == old_cell
        assert _slacks(engine) == baseline

    def test_upsize_clock_gate_refused(self, setup):
        design, _, optimizer = setup
        clock_gate = next(
            g for g in design.netlist.gates if g.startswith("ckbuf")
        )
        assert optimizer.resize_spec(clock_gate, up=True) is None

    def test_downsize_reduces_area(self, setup):
        design, engine, optimizer = setup
        # Find a gate not already at minimum size.
        gate = next(
            g for g in design.netlist.combinational_gates()
            if optimizer.is_touchable(g)
            and design.netlist.library.next_size_down(
                design.netlist.gate(g).cell_name
            ) is not None
        )
        before = design.netlist.total_area()
        spec = optimizer.resize_spec(gate, up=False)
        assert spec is not None
        apply_edit(engine, spec, 0)
        assert design.netlist.total_area() < before


class TestBufferNet:
    def _heavy_net(self, design):
        for net in design.netlist.nets:
            loads = [
                r for r in design.netlist.net_loads(net) if not r.is_port
            ]
            driver = design.netlist.net_driver(net)
            if (
                len(loads) >= 3 and driver is not None
                and driver.gate is not None
                and not driver.gate.startswith("ckbuf")
                and not design.netlist.cell_of(driver.gate).is_sequential
            ):
                return net
        return None

    def test_buffer_and_revert_restores(self, setup):
        design, engine, optimizer = setup
        net = self._heavy_net(design)
        if net is None:
            pytest.skip("no bufferable net in this design")
        baseline = _slacks(engine)
        gates_before = set(design.netlist.gates)
        spec = optimizer.buffer_spec(net)
        assert spec is not None
        _, undo, eco = apply_edit(engine, spec, 3)
        assert set(design.netlist.gates) == gates_before | {"wbuf3"}
        assert eco.startswith(f"insert_buffer {net} {spec['buffer_cell']} "
                              "wbuf3 wnet3 ")
        undo(engine)
        assert set(design.netlist.gates) == gates_before
        assert _slacks(engine) == baseline

    def test_keeps_most_critical_load_on_net(self, setup):
        design, engine, optimizer = setup
        net = self._heavy_net(design)
        if net is None:
            pytest.skip("no bufferable net in this design")
        loads_before = [
            r for r in design.netlist.net_loads(net) if not r.is_port
        ]
        arrivals = {
            r: float(engine.state.arrival_late[engine.graph.node_of[r]])
            for r in loads_before
        }
        critical = max(arrivals, key=arrivals.get)
        spec = optimizer.buffer_spec(net)
        assert spec is not None
        assert sorted(spec["loads"]) == sorted(
            str(r) for r in loads_before if r != critical
        )
        apply_edit(engine, spec, 0)
        assert critical in design.netlist.net_loads(net)

    def test_two_load_net_refused(self, setup):
        design, _, optimizer = setup
        single = next(
            net for net in design.netlist.nets
            if len([
                r for r in design.netlist.net_loads(net) if not r.is_port
            ]) == 1
            and design.netlist.net_driver(net) is not None
        )
        assert optimizer.buffer_spec(single) is None
