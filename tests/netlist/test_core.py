"""Unit + property tests for the netlist data model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError, ReproError
from repro.liberty.builder import make_default_library
from repro.liberty.cell import Cell, Pin, PinDirection
from repro.liberty.library import Library
from repro.netlist.core import Netlist, PinRef, PortDirection

LIB = make_default_library()


def _netlist():
    return Netlist("t", LIB)


def _tiny():
    """in0 -> inv1 -> inv2 -> out0"""
    n = _netlist()
    n.add_port("in0", PortDirection.INPUT)
    n.add_port("out0", PortDirection.OUTPUT)
    n.add_gate("inv1", "INV_X1", {"A": "in0", "Z": "w1"})
    n.add_gate("inv2", "INV_X1", {"A": "w1", "Z": "out0"})
    return n


def _state(n):
    """Every gate, net and connection of a netlist, comparable with ==."""
    return (
        {name: dict(gate.connections) for name, gate in n.gates.items()},
        {net: (n.net_driver(net), n.net_loads(net)) for net in n.nets},
    )


class TestConstruction:
    def test_ports_create_nets(self):
        n = _tiny()
        assert "in0" in n.nets and "out0" in n.nets

    def test_input_port_drives_its_net(self):
        n = _tiny()
        assert n.net_driver("in0") == PinRef(None, "in0")

    def test_output_port_loads_its_net(self):
        n = _tiny()
        assert PinRef(None, "out0") in n.net_loads("out0")

    def test_duplicate_gate_rejected(self):
        n = _tiny()
        with pytest.raises(NetlistError):
            n.add_gate("inv1", "INV_X1")

    def test_duplicate_port_rejected(self):
        n = _tiny()
        with pytest.raises(NetlistError):
            n.add_port("in0", PortDirection.INPUT)

    def test_unknown_cell_rejected(self):
        with pytest.raises(Exception):
            _netlist().add_gate("g", "NOT_A_CELL")

    def test_multiple_drivers_rejected(self):
        n = _tiny()
        with pytest.raises(NetlistError):
            # inv2 output already on out0; try driving w1 again
            n.add_gate("inv3", "INV_X1", {"A": "in0", "Z": "w1"})

    @pytest.mark.parametrize("connections", [
        {"A": "a_new_net", "Q": "x_new_net"},
        {"A": "in0", "Z": "w1"},
        {"A": "a_new_net", "Z": "w1"},
    ], ids=["unknown_pin", "driven_net", "new_net_then_driven_net"])
    def test_failed_add_gate_changes_nothing(self, connections):
        n = _tiny()
        before = _state(n)
        with pytest.raises(ReproError):
            n.add_gate("u1", "INV_X1", connections)
        assert _state(n) == before


class TestConnectivity:
    def test_driver_and_loads(self):
        n = _tiny()
        assert n.net_driver("w1") == PinRef("inv1", "Z")
        assert n.net_loads("w1") == [PinRef("inv2", "A")]

    def test_fanout_fanin_gates(self):
        n = _tiny()
        assert n.fanout_gates("inv1") == ["inv2"]
        assert n.fanin_gates("inv2") == ["inv1"]
        assert n.fanin_gates("inv1") == []

    def test_pin_net(self):
        n = _tiny()
        assert n.pin_net(PinRef("inv1", "Z")) == "w1"
        assert n.pin_net(PinRef("inv1", "B")) is None

    def test_net_load_capacitance(self):
        n = _tiny()
        expected = LIB.cell("INV_X1").pin("A").capacitance
        assert n.net_load_capacitance("w1") == pytest.approx(expected)


class TestEditing:
    def test_disconnect_reconnect(self):
        n = _tiny()
        n.disconnect("inv2", "A")
        assert n.net_loads("w1") == []
        n.connect("inv2", "A", "in0")
        assert PinRef("inv2", "A") in n.net_loads("in0")

    def test_reconnect_moves_load(self):
        n = _tiny()
        n.connect("inv2", "A", "in0")   # implicit disconnect from w1
        assert n.net_loads("w1") == []

    def test_remove_gate_cleans_indexes(self):
        n = _tiny()
        n.remove_gate("inv2")
        assert n.net_loads("w1") == []
        assert "inv2" not in n.gates

    def test_remove_connected_net_rejected(self):
        n = _tiny()
        with pytest.raises(NetlistError):
            n.remove_net("w1")

    def test_swap_cell_same_pins(self):
        n = _tiny()
        old = n.swap_cell("inv1", "INV_X4")
        assert old == "INV_X1"
        assert n.cell_of("inv1").name == "INV_X4"

    def test_swap_cell_missing_pin_rejected(self):
        n = _tiny()
        # Swapping INV (connected pins A, Z) to DFF (D, CK, Q) fails on A.
        with pytest.raises(NetlistError):
            n.swap_cell("inv1", "DFF_X1")

    def test_swap_cell_keeps_sequential_flag(self):
        # Pins A/Z on both cells, so only the sequential flag differs.
        library = Library("seq_swap")
        for name, sequential in (("BUFC", False), ("LATCHZ", True)):
            cell = Cell(name, area=1.0, leakage=1.0,
                        is_sequential=sequential)
            cell.add_pin(Pin("A", PinDirection.INPUT, capacitance=1.0))
            cell.add_pin(Pin("Z", PinDirection.OUTPUT))
            library.add_cell(cell)
        n = Netlist("t", library)
        n.add_port("in0", PortDirection.INPUT)
        n.add_port("out0", PortDirection.OUTPUT)
        n.add_gate("b", "BUFC", {"A": "in0", "Z": "w"})
        n.add_gate("q", "LATCHZ", {"A": "w", "Z": "out0"})
        with pytest.raises(NetlistError, match="sequential"):
            n.swap_cell("b", "LATCHZ")
        with pytest.raises(NetlistError, match="sequential"):
            n.swap_cell("q", "BUFC")
        assert n.gate("b").cell_name == "BUFC"
        assert n.gate("q").cell_name == "LATCHZ"


class TestAggregates:
    def test_totals(self):
        n = _tiny()
        inv = LIB.cell("INV_X1")
        assert n.total_area() == pytest.approx(2 * inv.area)
        assert n.total_leakage() == pytest.approx(2 * inv.leakage)
        assert n.buffer_count() == 0

    def test_stats(self):
        stats = _tiny().stats()
        assert stats == {
            "gates": 2, "nets": 3, "ports": 2, "flops": 0, "buffers": 0
        }

    def test_partitions(self):
        n = _tiny()
        n.add_gate("ff", "DFF_X1", {"D": "w1", "CK": "in0", "Q": "w2"})
        assert n.sequential_gates() == ["ff"]
        assert set(n.combinational_gates()) == {"inv1", "inv2"}


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=25,
))
def test_index_consistency_after_random_edits(edit_plan):
    """Driver/load indexes always agree with gate connection maps."""
    n = _netlist()
    n.add_port("src", PortDirection.INPUT)
    for i in range(10):
        n.add_gate(f"g{i}", "INV_X1", {"A": "src", "Z": f"w{i}"})
    for a, b in edit_plan:
        if a == b:
            continue
        n.connect(f"g{a}", "A", f"w{b}")
    # Rebuild expectations from scratch and compare with the indexes.
    for net_name in n.nets:
        loads = set(n.net_loads(net_name))
        expected = set()
        for gate_name, gate in n.gates.items():
            for pin_name, net in gate.connections.items():
                if net == net_name and pin_name == "A":
                    expected.add(PinRef(gate_name, pin_name))
        for port_name, port in n.ports.items():
            if port_name == net_name and port.direction is PortDirection.OUTPUT:
                expected.add(PinRef(None, port_name))
        assert loads == expected, net_name
