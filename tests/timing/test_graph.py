"""Timing-graph construction and surgical-update tests."""

import hashlib
import json
import random

import pytest

from repro.designs.generator import generate_design
from repro.designs.suite import DESIGN_SPECS
from repro.errors import TimingError
from repro.liberty.builder import make_default_library
from repro.netlist.core import Netlist, PinRef, PortDirection
from repro.netlist.edit import insert_buffer, remove_buffer, resize_gate
from repro.opt.whatif import apply_edit
from repro.timing.graph import EdgeKind, NodeKind, TimingGraph
from tests.conftest import SMALL_SPEC, engine_for

LIB = make_default_library()


def _sample():
    n = Netlist("t", LIB)
    n.add_port("clk", PortDirection.INPUT)
    n.add_port("a", PortDirection.INPUT)
    n.add_port("y", PortDirection.OUTPUT)
    n.add_gate("u1", "NAND2_X1", {"A": "a", "B": "q", "Z": "w"})
    n.add_gate("ff", "DFF_X1", {"D": "w", "CK": "clk", "Q": "q"})
    n.add_gate("u2", "INV_X1", {"A": "w", "Z": "y"})
    return n


class TestConstruction:
    def test_node_per_pin_and_port(self):
        g = TimingGraph(_sample())
        # 3 ports + u1(3 pins) + ff(3) + u2(2) = 11
        assert g.node_count() == 11

    def test_edge_kinds(self):
        g = TimingGraph(_sample())
        cell = [e for e in g.live_edges() if e.kind is EdgeKind.CELL]
        net = [e for e in g.live_edges() if e.kind is EdgeKind.NET]
        # u1: 2 arcs, ff: CK->Q, u2: 1 arc
        assert len(cell) == 4
        # a->u1.A, q->u1.B, w->ff.D, w->u2.A, clk->ff.CK, y port load
        assert len(net) == 6

    def test_endpoints(self):
        netlist = _sample()
        g = TimingGraph(netlist)
        endpoint_refs = {
            str(g.node(n).ref) for n in g.endpoint_nodes()
        }
        assert endpoint_refs == {"ff/D", "y"}

    def test_endpoint_info_for_flop(self):
        g = TimingGraph(_sample())
        d_node = g.node_of[PinRef("ff", "D")]
        info = g.endpoints[d_node]
        assert info.gate == "ff"
        assert info.setup_arc is not None and info.hold_arc is not None
        assert g.node(info.ck_node).ref == PinRef("ff", "CK")

    def test_port_kinds(self):
        g = TimingGraph(_sample())
        assert g.node(g.node_of[PinRef(None, "a")]).kind is NodeKind.PORT_IN
        assert g.node(g.node_of[PinRef(None, "y")]).kind is NodeKind.PORT_OUT

    def test_clock_sink_flag(self):
        g = TimingGraph(_sample())
        ck = g.node(g.node_of[PinRef("ff", "CK")])
        assert ck.is_clock_sink


class TestTopologicalOrder:
    def test_sources_before_sinks(self):
        g = TimingGraph(_sample())
        order = g.topological_order()
        position = {node_id: i for i, node_id in enumerate(order)}
        for edge in g.live_edges():
            assert position[edge.src] < position[edge.dst]

    def test_covers_all_nodes(self):
        g = TimingGraph(_sample())
        assert len(g.topological_order()) == g.node_count()

    def test_cycle_detected(self):
        n = Netlist("loop", LIB)
        n.add_gate("u1", "INV_X1", {"A": "w2", "Z": "w1"})
        n.add_gate("u2", "INV_X1", {"A": "w1", "Z": "w2"})
        with pytest.raises(TimingError):
            TimingGraph(n).topological_order()


class TestClockMarking:
    def test_flood_stops_at_ck(self):
        netlist = _sample()
        g = TimingGraph(netlist)
        g.mark_clock_tree(["clk"])
        assert g.node(g.node_of[PinRef(None, "clk")]).is_clock_tree
        assert g.node(g.node_of[PinRef("ff", "CK")]).is_clock_tree
        # The data domain stays unmarked, including Q.
        assert not g.node(g.node_of[PinRef("ff", "Q")]).is_clock_tree
        assert not g.node(g.node_of[PinRef("u1", "A")]).is_clock_tree

    def test_unknown_clock_port(self):
        g = TimingGraph(_sample())
        with pytest.raises(TimingError):
            g.mark_clock_tree(["ghost"])


class TestSurgicalUpdates:
    def test_remove_gate_nodes(self):
        netlist = _sample()
        g = TimingGraph(netlist)
        before = g.node_count()
        netlist.remove_gate("u2")
        g.remove_gate_nodes("u2")
        assert g.node_count() == before - 2
        assert PinRef("u2", "A") not in g.node_of
        # Net edges into the removed nodes are gone too.
        for edge in g.live_edges():
            assert g.nodes[edge.src] is not None
            assert g.nodes[edge.dst] is not None

    def test_rebuild_net_after_load_change(self):
        netlist = _sample()
        g = TimingGraph(netlist)
        netlist.connect("u2", "A", "a")   # move u2 off net w
        g.rebuild_net("w")
        g.rebuild_net("a")
        w_edges = [e for e in g.live_edges() if e.net == "w"]
        dsts = {str(g.node(e.dst).ref) for e in w_edges}
        assert dsts == {"ff/D"}

    def test_node_id_reuse(self):
        netlist = _sample()
        g = TimingGraph(netlist)
        netlist.remove_gate("u2")
        g.remove_gate_nodes("u2")
        netlist.add_gate("u3", "INV_X1", {"A": "w", "Z": "y"})
        g.add_gate_nodes("u3")
        g.rebuild_net("w")
        g.rebuild_net("y")
        assert g.topological_order()  # still a clean DAG

    def test_stale_node_access_raises(self):
        netlist = _sample()
        g = TimingGraph(netlist)
        victim = g.node_of[PinRef("u2", "A")]
        netlist.remove_gate("u2")
        g.remove_gate_nodes("u2")
        with pytest.raises(TimingError):
            g.node(victim)


def _slot_listing(graph):
    """Slot-list lengths plus every live edge and node slot."""
    return [
        len(graph.edges),
        len(graph.nodes),
        [
            (e.id, e.src, e.dst, e.kind.value, e.net, e.gate)
            for e in graph.edges if e is not None
        ],
        [(n.id, str(n.ref), n.kind.value) for n in graph.nodes if n is not None],
    ]


def _slot_digest(graph):
    return hashlib.sha256(json.dumps(_slot_listing(graph)).encode()).hexdigest()


class TestSlotAssignment:
    """Layouts, layout patches and explain rows carry graph slot ids,
    so slot assignment and reuse must not drift."""

    BUILD = "96b45412d3db1f63b5cb521ca731455954e56d5966b2c47a67e20b02b4540641"
    ROUND_TRIP = (
        "f12102906765674ffde507d9efb6a19a78c4b45d337f8ce9ec13b99c53703019"
    )

    def test_build_and_buffer_round_trip_are_pinned(self):
        design = generate_design(DESIGN_SPECS["D1"])  # unscaled D1
        engine = engine_for(design)
        assert _slot_digest(engine.graph) == self.BUILD
        for spec in (
            {"kind": "insert_buffer", "net": "n_g_0_0_0",
             "buffer_cell": "BUF_X2"},
            {"kind": "resize", "gate": "wbuf0", "up": True},
            {"kind": "remove_buffer", "gate": "wbuf0"},
        ):
            apply_edit(engine, spec, 0)
        assert _slot_digest(engine.graph) == self.ROUND_TRIP

    def test_record_naming_the_buffer_twice(self):
        """The second name finds no nodes: same graph, same slacks."""
        results = []
        for repeat in (False, True):
            design = generate_design(SMALL_SPEC)
            engine = engine_for(design)
            net = next(
                n for n in sorted(design.netlist.nets)
                if n.startswith("n_") and any(
                    not r.is_port for r in design.netlist.net_loads(n)
                )
            )
            change = insert_buffer(design.netlist, net, "BUF_X2")
            engine.apply_change(change)
            inverse = remove_buffer(design.netlist, change.gates[0])
            if repeat:
                inverse.gates.append(change.gates[0])
            engine.apply_change(inverse)
            results.append((
                _slot_listing(engine.graph),
                [(s.name, s.slack) for s in engine.setup_slacks()],
                [(s.name, s.slack) for s in engine.hold_slacks()],
            ))
        assert results[0] == results[1]


def _assert_indexes_match_scan(graph):
    by_net: dict = {}
    for edge in graph.edges:
        if edge is not None and edge.net is not None:
            by_net.setdefault(edge.net, []).append(edge.id)
    assert {
        net: sorted(ids) for net, ids in graph._net_edges.items()
    } == by_net
    by_gate: dict = {}
    for ref in graph.node_of:
        if ref.gate is not None:
            by_gate.setdefault(ref.gate, []).append(ref)
    assert {
        gate: list(refs) for gate, refs in graph._gate_refs.items()
    } == by_gate
    for gate, refs in by_gate.items():
        assert graph.gate_nodes(gate) == [graph.node_of[r] for r in refs]


class TestIndexes:
    def test_indexes_match_full_scan_through_random_edits(self):
        design = generate_design(SMALL_SPEC)
        netlist = design.netlist
        engine = engine_for(design)
        graph = engine.graph
        _assert_indexes_match_scan(graph)
        rng = random.Random(5)
        gates = sorted(
            g for g in netlist.combinational_gates()
            if not g.startswith("ckbuf")
        )
        inserted: list = []
        applied: dict = {}
        for _ in range(30):
            move = rng.choice(("resize", "insert", "insert", "remove"))
            if move == "resize":
                change = resize_gate(
                    netlist, rng.choice(gates + inserted),
                    up=rng.random() < 0.5,
                )
            elif move == "insert":
                nets = sorted(
                    n for n in netlist.nets
                    if netlist.net_driver(n) is not None
                    and not n.startswith("ck")
                    and any(not r.is_port for r in netlist.net_loads(n))
                )
                net = rng.choice(nets)
                loads = [r for r in netlist.net_loads(net) if not r.is_port]
                change = insert_buffer(
                    netlist, net, "BUF_X2",
                    loads=rng.sample(loads, rng.randint(1, len(loads))),
                    placement=design.placement,
                )
                inserted.append(change.gates[0])
            elif inserted:
                victim = inserted.pop(rng.randrange(len(inserted)))
                change = remove_buffer(netlist, victim)
                design.placement.locations.pop(victim, None)
            else:
                continue
            if change is not None:
                engine.apply_change(change)
                applied[move] = applied.get(move, 0) + 1
            _assert_indexes_match_scan(graph)
        assert set(applied) == {"resize", "insert", "remove"}
