"""Tests for high-level netlist edits (resize, buffer in/out)."""

import pytest

from repro.errors import NetlistError
from repro.liberty.builder import make_default_library
from repro.netlist.core import Netlist, PinRef, PortDirection
from repro.netlist.edit import insert_buffer, remove_buffer, resize_gate
from repro.netlist.placement import Placement

LIB = make_default_library()


def _fanout_netlist():
    """drv drives three sinks on net w."""
    n = Netlist("t", LIB)
    n.add_port("a", PortDirection.INPUT)
    n.add_gate("drv", "INV_X1", {"A": "a", "Z": "w"})
    for i in range(3):
        n.add_gate(f"sink{i}", "INV_X1", {"A": "w", "Z": f"z{i}"})
    return n


class TestResize:
    def test_up_then_down_restores(self):
        n = _fanout_netlist()
        change = resize_gate(n, "drv", up=True)
        assert n.gate("drv").cell_name == "INV_X2"
        assert change.kind == "resize"
        assert "drv" in change.gates
        resize_gate(n, "drv", up=False)
        assert n.gate("drv").cell_name == "INV_X1"

    def test_at_family_edge_returns_none(self):
        n = _fanout_netlist()
        n.swap_cell("drv", "INV_X8")
        assert resize_gate(n, "drv", up=True) is None

    def test_touched_nets_listed(self):
        n = _fanout_netlist()
        change = resize_gate(n, "drv", up=True)
        assert set(change.nets) == {"a", "w"}


class TestInsertBuffer:
    def test_all_loads_rerouted_by_default(self):
        n = _fanout_netlist()
        change = insert_buffer(n, "w", "BUF_X2")
        buffer_name = change.gates[0]
        assert n.cell_of(buffer_name).is_buffer
        # Original net: only the buffer input remains as load.
        loads = n.net_loads("w")
        assert loads == [PinRef(buffer_name, "A")]
        # New net carries all three sinks.
        new_net = [x for x in change.nets if x != "w"][0]
        assert len(n.net_loads(new_net)) == 3

    def test_partial_reroute(self):
        n = _fanout_netlist()
        keep = PinRef("sink0", "A")
        move = [PinRef("sink1", "A"), PinRef("sink2", "A")]
        insert_buffer(n, "w", "BUF_X2", loads=move)
        assert keep in n.net_loads("w")

    def test_undriven_net_rejected(self):
        n = _fanout_netlist()
        n.add_net("orphan")
        with pytest.raises(NetlistError):
            insert_buffer(n, "orphan", "BUF_X2")

    def test_foreign_load_rejected(self):
        n = _fanout_netlist()
        with pytest.raises(NetlistError):
            insert_buffer(n, "w", "BUF_X2", loads=[PinRef("drv", "A")])

    def test_buffer_placed_when_placement_given(self):
        n = _fanout_netlist()
        placement = Placement()
        placement.place("drv", 0, 0)
        for i in range(3):
            placement.place(f"sink{i}", 1000, 1000)
        change = insert_buffer(n, "w", "BUF_X2", placement=placement)
        assert placement.has(change.gates[0])

    def test_default_names_depend_only_on_the_netlist(self):
        first, second = _fanout_netlist(), _fanout_netlist()
        second.add_net("rbuf")  # a taken name is probed past
        a = insert_buffer(first, "w", "BUF_X2").metadata
        b = insert_buffer(second, "w", "BUF_X2").metadata
        assert (a["buffer"], a["new_net"]) == ("rbuf", "rnet")
        assert (b["buffer"], b["new_net"]) == ("rbuf_", "rnet")
        again = insert_buffer(first, a["new_net"], "BUF_X2").metadata
        assert (again["buffer"], again["new_net"]) == ("rbuf_", "rnet_")


class TestRemoveBuffer:
    def test_insert_then_remove_restores_topology(self):
        n = _fanout_netlist()
        before_loads = set(n.net_loads("w"))
        change = insert_buffer(n, "w", "BUF_X2")
        buffer_name = change.gates[0]
        remove_buffer(n, buffer_name)
        assert set(n.net_loads("w")) == before_loads
        assert buffer_name not in n.gates

    def test_non_buffer_rejected(self):
        n = _fanout_netlist()
        with pytest.raises(NetlistError):
            remove_buffer(n, "drv")

    def test_validation_stays_clean_through_cycle(self):
        from repro.netlist.validate import validate_netlist, Severity

        n = _fanout_netlist()
        n.add_port("y0", PortDirection.OUTPUT)
        n.connect("sink0", "Z", "y0")
        change = insert_buffer(n, "w", "BUF_X2")
        errors = [
            v for v in validate_netlist(n) if v.severity is Severity.ERROR
        ]
        assert errors == []
        remove_buffer(n, change.gates[0])
        errors = [
            v for v in validate_netlist(n) if v.severity is Severity.ERROR
        ]
        assert errors == []
