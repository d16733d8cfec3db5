"""CRPR tests on a hand-built clock tree with known common segments.

Topology::

    clk --- root --- bl --- FF_A (launch)
                  \\
                   br --- FF_B, FF_C (capture)

FF_A/FF_B share only the root buffer; FF_B/FF_C share root + br.
"""

import pytest

from repro.liberty.builder import make_default_library
from repro.netlist.core import Netlist, PinRef, PortDirection
from repro.sdc.constraints import Clock, Constraints
from repro.timing.sta import STAConfig, STAEngine

LIB = make_default_library()


def _tree_design():
    n = Netlist("crpr", LIB)
    n.add_port("clk", PortDirection.INPUT)
    n.add_port("a", PortDirection.INPUT)
    n.add_gate("root", "BUF_X4", {"A": "clk", "Z": "ck0"})
    n.add_gate("bl", "BUF_X2", {"A": "ck0", "Z": "ckl"})
    n.add_gate("br", "BUF_X2", {"A": "ck0", "Z": "ckr"})
    n.add_gate("ffa", "DFF_X1", {"D": "a", "CK": "ckl", "Q": "qa"})
    n.add_gate("u1", "INV_X1", {"A": "qa", "Z": "w1"})
    n.add_gate("ffb", "DFF_X1", {"D": "w1", "CK": "ckr", "Q": "qb"})
    n.add_gate("u2", "INV_X1", {"A": "qb", "Z": "w2"})
    n.add_gate("ffc", "DFF_X1", {"D": "w2", "CK": "ckr", "Q": "qc"})
    n.add_gate("u3", "INV_X1", {"A": "qc", "Z": "w3"})  # keep qc loaded
    constraints = Constraints()
    constraints.add_clock(Clock("clk", period=500.0, source_port="clk"))
    return n, constraints


@pytest.fixture()
def engine():
    netlist, constraints = _tree_design()
    config = STAConfig(clock_derate_late=1.10, clock_derate_early=0.90)
    engine = STAEngine(netlist, constraints, None, config)
    engine.update_timing()
    return engine


def _ck(engine, flop):
    return engine.graph.node_of[PinRef(flop, "CK")]


class TestClockPaths:
    def test_path_edges_source_to_sink(self, engine):
        path = engine.crpr.path_of(_ck(engine, "ffa"))
        gates = [
            engine.graph.edge(e).gate
            for e in path if engine.graph.edge(e).gate
        ]
        assert gates == ["root", "bl"]

    def test_non_clock_node_rejected(self, engine):
        from repro.errors import TimingError
        from repro.timing.crpr import clock_path_edges

        data_node = engine.graph.node_of[PinRef("u1", "A")]
        with pytest.raises(TimingError):
            clock_path_edges(engine.graph, engine.state, data_node)


class TestCredit:
    def test_credit_zero_without_clock_pair(self, engine):
        assert engine.crpr.credit(None, _ck(engine, "ffb")) == 0.0
        assert engine.crpr.credit(_ck(engine, "ffa"), None) == 0.0

    def test_shared_root_only(self, engine):
        """ffa->ffb share the root buffer arcs (port->root cell+nets)."""
        credit = engine.crpr.credit(_ck(engine, "ffa"), _ck(engine, "ffb"))
        assert credit > 0.0
        # Hand-compute: common prefix = net clk->root.A + root cell arc
        # + net ck0 (up to where paths diverge at bl vs br inputs).
        graph, state = engine.graph, engine.state
        root_arc = next(
            e for e in graph.live_edges() if e.gate == "root"
        )
        expected_min = state.edge_delay[root_arc.id] * (1.10 - 0.90)
        assert credit >= expected_min - 1e-9

    def test_deeper_sharing_gives_more_credit(self, engine):
        shallow = engine.crpr.credit(_ck(engine, "ffa"), _ck(engine, "ffb"))
        deep = engine.crpr.credit(_ck(engine, "ffb"), _ck(engine, "ffc"))
        assert deep > shallow

    def test_same_sink_credits_whole_path(self, engine):
        ck = _ck(engine, "ffb")
        credit = engine.crpr.credit(ck, ck)
        late = engine.state.arrival_late[ck]
        early = engine.state.arrival_early[ck]
        assert credit == pytest.approx(late - early)

    def test_credit_symmetric(self, engine):
        a, b = _ck(engine, "ffa"), _ck(engine, "ffb")
        assert engine.crpr.credit(a, b) == pytest.approx(
            engine.crpr.credit(b, a)
        )

    def test_credit_nonnegative_on_generated_design(self, small_engine):
        sinks = [
            info.ck_node for info in small_engine.graph.endpoints.values()
            if info.ck_node is not None
        ]
        for launch in sinks[:6]:
            for capture in sinks[:6]:
                assert small_engine.crpr.credit(launch, capture) >= 0.0

    def test_cache_invalidation(self, engine):
        ck = _ck(engine, "ffa")
        engine.crpr.path_of(ck)
        assert engine.crpr._paths
        engine.update_timing()
        assert not engine.crpr._paths
