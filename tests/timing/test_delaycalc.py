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
    """The vector kernel's per-level batch lookups vs the scalar path."""

    @staticmethod
    def _arc_load(calc, graph, edge):
        dst_ref = graph.node(edge.dst).ref
        net = calc.netlist.gate(dst_ref.gate).connections.get(dst_ref.pin)
        return calc.output_load(net) if net is not None else 0.0

    def test_compute_arcs_batch_matches_cell_edge(self):
        """Each level's arcs in one call, with the layout's stacked
        tables: 1-D slews, then one column per scenario."""
        import numpy as np

        from repro.designs.suite import build_design
        from repro.timing.sta import STAEngine

        design = build_design("D1")
        engine = STAEngine(
            design.netlist, design.constraints, design.placement,
            design.sta_config,
        )
        engine.update_timing()
        graph, calc = engine.graph, engine.calc
        levels = [
            arcs for arcs in engine._layout.cell_groups(graph)
            if arcs is not None
        ]
        assert levels
        # (k, S) columns: column s must equal, bit for bit, cell_edge on
        # a calculator built at delay_scale scales[s].
        scales = np.array([0.87, 1.0, 1.15])
        config = design.sta_config
        calcs = [
            DelayCalculator(
                design.netlist, design.placement, config.wire_r_per_nm,
                config.wire_c_per_nm, delay_scale=float(scale),
            )
            for scale in scales
        ]
        compared = 0
        for arcs in levels:
            edges = [graph.edges[eid] for eid in arcs.eids.tolist()]
            loads = np.array([self._arc_load(calc, graph, e) for e in edges])
            # Below, inside and above the slew axis.
            slews = np.array([0.0, 13.7, 55.0, 400.0])[
                np.arange(len(edges)) % 4
            ]
            delays, out_slews = calc.compute_arcs_batch(
                arcs.tables, slews, loads
            )
            for j, edge in enumerate(edges):
                want = calc.cell_edge(graph, edge, float(slews[j]))
                assert (delays[j], out_slews[j]) == want
            stacked = slews[:, None] * (
                1.0 + 0.25 * np.arange(scales.size)[None, :]
            ) + 7.5
            delays, out_slews = calc.compute_arcs_batch(
                arcs.tables, stacked, loads[:, None], scales
            )
            assert delays.shape == out_slews.shape == stacked.shape
            for j, edge in enumerate(edges):
                for s, scenario_calc in enumerate(calcs):
                    want = scenario_calc.cell_edge(
                        graph, edge, float(stacked[j, s])
                    )
                    assert (delays[j, s], out_slews[j, s]) == want
                    compared += 1
        n_cell = sum(
            1 for e in graph.live_edges() if e.kind is EdgeKind.CELL
        )
        assert compared == n_cell * scales.size
