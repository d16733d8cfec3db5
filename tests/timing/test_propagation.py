"""Forward-propagation tests: arrivals, worst slew, derate domains."""

import pytest

from repro.netlist.core import PinRef
from repro.timing.propagation import (
    EdgeDomain,
    check_propagation_sanity,
    classify_edge,
    effective_early,
    effective_late,
)
from repro.timing.graph import EdgeKind
from repro.timing.sta import STAEngine


class TestFig2Arrivals:
    """Spot values from the paper's worked example."""

    def test_path_arrival_is_740(self, fig2_engine):
        d_node = fig2_engine.node_id("FF4", "D")
        assert fig2_engine.state.arrival_late[d_node] == pytest.approx(740.0)

    def test_side_path_arrival(self, fig2_engine):
        # FF1 -> G1..G3 -> L1 -> FF5: depths (4,4,3,3) with 100 ps gates:
        # 100*(1.25+1.25+1.30+1.30) = 510.
        d_node = fig2_engine.node_id("FF5", "D")
        assert fig2_engine.state.arrival_late[d_node] == pytest.approx(510.0)

    def test_launch_arrival_includes_clock(self, fig2_engine):
        # Zero-delay flop + underated clock port: Q launches at 0.
        q_node = fig2_engine.node_id("FF1", "Q")
        assert fig2_engine.state.arrival_late[q_node] == pytest.approx(0.0)


class TestPropagationIdentity:
    def test_arrival_equals_max_fanin_everywhere(self, small_engine):
        assert check_propagation_sanity(
            small_engine.graph, small_engine.state
        ) == []

    def test_early_never_exceeds_late(self, small_engine):
        state = small_engine.state
        for node in small_engine.graph.live_nodes():
            assert (
                state.arrival_early[node.id]
                <= state.arrival_late[node.id] + 1e-9
            )

    def test_worst_slew_is_max_over_fanin(self, small_engine):
        graph, state = small_engine.graph, small_engine.state
        for node in graph.live_nodes():
            in_list = graph.in_edges[node.id]
            if not in_list:
                continue
            expected = max(state.edge_out_slew[e] for e in in_list)
            assert state.slew[node.id] == pytest.approx(expected)


class TestDerateDomains:
    def test_clock_tree_edges_are_clock_domain(self, small_engine):
        graph = small_engine.graph
        clock_edges = [
            e for e in graph.live_edges()
            if graph.node(e.src).is_clock_tree
            and graph.node(e.dst).is_clock_tree
        ]
        assert clock_edges
        for edge in clock_edges:
            assert classify_edge(graph, edge) is EdgeDomain.CLOCK

    def test_data_cells_get_aocv_derate(self, small_engine):
        graph, state = small_engine.graph, small_engine.state
        table = small_engine.config.derating_table
        distance = small_engine.gba_distance()
        found = 0
        for edge in graph.live_edges():
            if classify_edge(graph, edge) is EdgeDomain.DATA_CELL:
                depth = small_engine.gba_depths[edge.gate]
                assert state.derate_late[edge.id] == pytest.approx(
                    table.derate(depth, distance)
                )
                found += 1
        assert found > 10

    def test_clk_to_q_is_plain(self, small_engine):
        graph = small_engine.graph
        for edge in graph.live_edges():
            if edge.kind is EdgeKind.CELL and edge.gate is not None:
                if graph.netlist.cell_of(edge.gate).is_sequential:
                    assert classify_edge(graph, edge) is EdgeDomain.PLAIN

    def test_clock_derate_split(self, small_engine):
        graph, state = small_engine.graph, small_engine.state
        config = small_engine.config
        for edge in graph.live_edges():
            if classify_edge(graph, edge) is EdgeDomain.CLOCK:
                assert state.derate_late[edge.id] == config.clock_derate_late
                assert state.derate_early[edge.id] == config.clock_derate_early
                assert (
                    effective_late(state, edge)
                    >= effective_early(state, edge)
                )


class TestBoundaries:
    def test_input_delay_applied(self, small_design):
        engine = STAEngine(
            small_design.netlist, small_design.constraints,
            small_design.placement, small_design.sta_config,
        )
        engine.update_timing()
        port = small_design.spec and "in0"
        node = engine.graph.node_of[PinRef(None, port)]
        expected = small_design.constraints.input_delay_of(port)
        assert engine.state.arrival_late[node] == pytest.approx(expected)

    def test_clock_port_at_time_zero(self, small_engine):
        clock_port = small_engine.constraints.primary_clock().source_port
        node = small_engine.graph.node_of[PinRef(None, clock_port)]
        assert small_engine.state.arrival_late[node] == 0.0
        assert small_engine.state.slew[node] == pytest.approx(
            small_engine.config.clock_slew
        )


class TestWeights:
    def test_gate_weight_scales_derate(self, fig2):
        engine = STAEngine(fig2.netlist, fig2.constraints, None,
                           fig2.sta_config)
        engine.update_timing()
        baseline = engine.state.arrival_late[engine.node_id("FF4", "D")]
        engine.set_gate_weights({"G6": 0.5})
        engine.update_timing()
        corrected = engine.state.arrival_late[engine.node_id("FF4", "D")]
        # G6 contributes 100 * 1.20; halving its weight removes 60 ps.
        assert baseline - corrected == pytest.approx(60.0)

    def test_weight_floor_enforced(self, fig2):
        engine = STAEngine(fig2.netlist, fig2.constraints, None,
                           fig2.sta_config)
        engine.set_gate_weights({"G6": -5.0})
        assert engine.weights["G6"] == pytest.approx(0.05)

    def test_clear_weights_restores(self, fig2):
        engine = STAEngine(fig2.netlist, fig2.constraints, None,
                           fig2.sta_config)
        engine.update_timing()
        baseline = engine.state.arrival_late[engine.node_id("FF4", "D")]
        engine.set_gate_weights({"G1": 0.7, "G2": 0.7})
        engine.update_timing()
        engine.clear_gate_weights()
        engine.update_timing()
        restored = engine.state.arrival_late[engine.node_id("FF4", "D")]
        assert restored == pytest.approx(baseline)


class TestSanityCheckVectorized:
    """The segment-max rewrite must keep the scalar check's semantics."""

    def test_detects_corruption_and_names_the_node(self, fresh_small_design):
        engine = STAEngine(
            fresh_small_design.netlist, fresh_small_design.constraints,
            fresh_small_design.placement, fresh_small_design.sta_config,
        )
        engine.update_timing()
        assert check_propagation_sanity(engine.graph, engine.state) == []
        victim = next(
            n for n in engine.graph.live_nodes()
            if engine.graph.in_edges[n.id]
        )
        engine.state.arrival_late[victim.id] += 5.0
        problems = check_propagation_sanity(engine.graph, engine.state)
        assert len(problems) == 1
        assert str(victim.ref) in problems[0]
        assert "arrival_late" in problems[0]

    def test_tolerates_isclose_noise(self, small_engine):
        # Values within the 1e-9 relative tolerance are not violations.
        problems = check_propagation_sanity(
            small_engine.graph, small_engine.state
        )
        assert problems == []
