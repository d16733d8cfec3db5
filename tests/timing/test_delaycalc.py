"""Delay-calculation tests (NLDM lookup + Elmore wires)."""

import pytest

from repro.liberty.builder import make_default_library
from repro.netlist.core import Netlist, PinRef, PortDirection
from repro.netlist.placement import Placement
from repro.timing.delaycalc import DelayCalculator, segment_length
from repro.timing.graph import EdgeKind, TimingGraph

LIB = make_default_library()
R = 1e-6   # kOhm/nm
C = 2e-4   # fF/nm


def _fanout():
    n = Netlist("t", LIB)
    n.add_port("a", PortDirection.INPUT)
    n.add_gate("drv", "INV_X1", {"A": "a", "Z": "w"})
    n.add_gate("s1", "INV_X1", {"A": "w", "Z": "z1"})
    n.add_gate("s2", "INV_X2", {"A": "w", "Z": "z2"})
    return n


def _placement():
    p = Placement()
    p.place("drv", 0, 0)
    p.place("s1", 10_000, 0)       # 10 um
    p.place("s2", 0, 20_000)       # 20 um
    return p


class TestLoads:
    def test_pin_only_load_without_placement(self):
        n = _fanout()
        calc = DelayCalculator(n, None, R, C)
        expected = (
            LIB.cell("INV_X1").pin("A").capacitance
            + LIB.cell("INV_X2").pin("A").capacitance
        )
        assert calc.output_load("w") == pytest.approx(expected)

    def test_wire_cap_added_with_placement(self):
        n = _fanout()
        calc = DelayCalculator(n, _placement(), R, C)
        wire = C * (10_000 + 20_000)
        assert calc.net_wire_capacitance("w") == pytest.approx(wire)
        assert calc.output_load("w") == pytest.approx(
            n.net_load_capacitance("w") + wire
        )

    def test_undriven_net_has_no_wire(self):
        n = _fanout()
        n.add_net("orphan")
        calc = DelayCalculator(n, _placement(), R, C)
        assert calc.net_wire_capacitance("orphan") == 0.0


class TestSegmentLength:
    def test_manhattan(self):
        assert segment_length(
            _placement(), PinRef("drv", "Z"), PinRef("s2", "A")
        ) == 20_000

    def test_unplaced_is_zero(self):
        assert segment_length(
            _placement(), PinRef("drv", "Z"), PinRef("ghost", "A")
        ) == 0.0

    def test_no_placement_is_zero(self):
        assert segment_length(
            None, PinRef("drv", "Z"), PinRef("s1", "A")
        ) == 0.0


class TestEdgeDelays:
    def test_net_edge_elmore(self):
        n = _fanout()
        g = TimingGraph(n)
        calc = DelayCalculator(n, _placement(), R, C)
        edge = next(
            e for e in g.live_edges()
            if e.kind is EdgeKind.NET and g.node(e.dst).ref == PinRef("s1", "A")
        )
        delay, slew = calc.net_edge(g, edge, input_slew=17.0)
        length = 10_000
        expected = (R * length) * (
            C * length / 2 + LIB.cell("INV_X1").pin("A").capacitance
        )
        assert delay == pytest.approx(expected)
        assert slew == 17.0  # wires pass slew through

    def test_cell_edge_uses_output_net_load(self):
        n = _fanout()
        g = TimingGraph(n)
        calc = DelayCalculator(n, None, R, C)
        edge = next(
            e for e in g.live_edges()
            if e.kind is EdgeKind.CELL and e.gate == "drv"
        )
        delay, out_slew = calc.cell_edge(g, edge, input_slew=20.0)
        arc = LIB.cell("INV_X1").arc_between("A", "Z")
        load = n.net_load_capacitance("w")
        assert delay == pytest.approx(arc.delay.lookup(20.0, load))
        assert out_slew == pytest.approx(arc.output_slew.lookup(20.0, load))

    def test_heavier_load_slows_cell(self):
        n = _fanout()
        g = TimingGraph(n)
        edge = next(
            e for e in g.live_edges()
            if e.kind is EdgeKind.CELL and e.gate == "drv"
        )
        unloaded = DelayCalculator(n, None, R, C).cell_edge(g, edge, 20.0)[0]
        loaded = DelayCalculator(n, _placement(), R, C).cell_edge(
            g, edge, 20.0
        )[0]
        assert loaded > unloaded


class TestBatchedDelayCalc:
    """The vector kernel's batched entry points vs the scalar loop."""

    def _timed_graph(self):
        netlist = _fanout()
        graph = TimingGraph(netlist)
        calc = DelayCalculator(netlist, _placement(), R, C)
        return netlist, graph, calc

    @staticmethod
    def _arc_load(calc, graph, edge):
        dst_ref = graph.node(edge.dst).ref
        net = calc.netlist.gate(dst_ref.gate).connections.get(dst_ref.pin)
        return calc.output_load(net) if net is not None else 0.0

    def test_compute_arcs_batch_matches_cell_edge(self):
        _, graph, calc = self._timed_graph()
        cell_edges = [
            e for e in graph.live_edges() if e.kind is EdgeKind.CELL
        ]
        import numpy as np

        for edge in cell_edges:
            for slew in (0.0, 13.7, 55.0, 400.0):
                want = calc.cell_edge(graph, edge, slew)
                load = self._arc_load(calc, graph, edge)
                delays, slews_out = calc.compute_arcs_batch(
                    edge.arc.delay, edge.arc.output_slew,
                    np.array([slew]), np.array([load]),
                )
                assert (delays[0], slews_out[0]) == want

        # Stacked form (one column per scenario): (k, S) slews, (k, 1)
        # loads and an (S,) row of scales.  Column s must equal, bit for
        # bit, cell_edge on a calculator built at delay_scale scales[s].
        from repro.designs.suite import build_design

        design = build_design("D1")
        graph = TimingGraph(design.netlist)
        config = design.sta_config
        scales = np.array([0.87, 1.0, 1.15])
        calcs = [
            DelayCalculator(
                design.netlist, design.placement, config.wire_r_per_nm,
                config.wire_c_per_nm, delay_scale=float(scale),
            )
            for scale in scales
        ]
        arcs = [
            e for e in graph.live_edges() if e.kind is EdgeKind.CELL
        ][:200]
        by_table = {}
        for edge in arcs:
            key = (id(edge.arc.delay), id(edge.arc.output_slew))
            by_table.setdefault(key, []).append(edge)
        compared = 0
        for members in by_table.values():
            first = members[0].arc
            loads = np.array(
                [[self._arc_load(calcs[0], graph, e)] for e in members]
            )
            for base in (7.5, 300.0):
                slews = base * (
                    1.0 + 0.01 * np.arange(len(members))[:, None]
                    + 0.25 * np.arange(scales.size)[None, :]
                )
                delays, slews_out = calcs[0].compute_arcs_batch(
                    first.delay, first.output_slew, slews, loads, scales
                )
                assert delays.shape == slews_out.shape == slews.shape
                for j, edge in enumerate(members):
                    for s, scenario_calc in enumerate(calcs):
                        want = scenario_calc.cell_edge(
                            graph, edge, float(slews[j, s])
                        )
                        assert (delays[j, s], slews_out[j, s]) == want
                        compared += 1
        assert compared == len(arcs) * 2 * scales.size

    def test_compute_edges_batch_matches_scalar_loop(self):
        import copy

        import numpy as np

        _, graph, calc = self._timed_graph()
        edges = sorted(graph.live_edges(), key=lambda e: e.id)
        slews = np.linspace(5.0, 60.0, len(edges))
        reference = copy.deepcopy(
            [(e.delay, e.out_slew) for e in edges]
        )
        for edge, slew in zip(edges, slews):
            calc.compute_edge(graph, edge, float(slew))
        scalar_results = [(e.delay, e.out_slew) for e in edges]
        for edge, (delay, out_slew) in zip(edges, reference):
            edge.delay, edge.out_slew = delay, out_slew
        calc.compute_edges_batch(graph, edges, slews)
        batch_results = [(e.delay, e.out_slew) for e in edges]
        assert batch_results == scalar_results
