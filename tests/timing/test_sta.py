"""Engine facade tests."""

from dataclasses import replace

import pytest

from repro.timing.sta import STAConfig, STAEngine
from repro.timing.slack import CheckKind
from tests.conftest import engine_for


class TestLifecycle:
    def test_ensure_timing_runs_once(self, small_design):
        engine = engine_for(small_design)
        assert not engine._timing_fresh
        engine.ensure_timing()
        assert engine._timing_fresh

    def test_setup_slacks_trigger_update(self, small_design):
        engine = engine_for(small_design)
        slacks = engine.setup_slacks()
        assert slacks and engine._timing_fresh

    def test_summary_kinds(self, small_engine):
        setup = small_engine.summary(CheckKind.SETUP)
        hold = small_engine.summary(CheckKind.HOLD)
        assert setup.kind is CheckKind.SETUP
        assert hold.kind is CheckKind.HOLD
        # Every generated design violates some setup endpoints by design.
        assert setup.violations > 0


def _state_bytes(engine) -> tuple:
    """Every timing array (edge values on live edge ids), as bytes."""
    state = engine.state
    live = [e.id for e in engine.graph.edges if e is not None]
    return (
        state.arrival_late.tobytes(), state.arrival_early.tobytes(),
        state.slew.tobytes(), state.derate_late.tobytes(),
        state.derate_early.tobytes(), state.edge_delay[live].tobytes(),
        state.edge_out_slew[live].tobytes(),
    )


@pytest.mark.parametrize("kernel", ["vector", "scalar"])
class TestWeightInstall:
    """A weight change re-derates only: no topology work."""

    def _counted(self, monkeypatch):
        from repro.timing import sta as sta_mod
        from repro.timing.graph import TimingGraph

        calls = []
        depths = sta_mod.compute_gba_depths
        mark = TimingGraph.mark_clock_tree

        def counted_depths(netlist):
            calls.append("compute_gba_depths")
            return depths(netlist)

        def counted_mark(graph, clock_ports):
            calls.append("mark_clock_tree")
            return mark(graph, clock_ports)

        monkeypatch.setattr(sta_mod, "compute_gba_depths", counted_depths)
        monkeypatch.setattr(TimingGraph, "mark_clock_tree", counted_mark)
        return calls

    def _engine(self, design, kernel):
        return STAEngine(
            design.netlist, design.constraints, design.placement,
            replace(design.sta_config, kernel=kernel),
        )

    def test_set_and_clear_skip_topology_work(
        self, small_design, kernel, monkeypatch
    ):
        engine = self._engine(small_design, kernel)
        engine.update_timing()
        weights = {
            gate: 0.85 + 0.03 * (i % 5)
            for i, gate in enumerate(sorted(small_design.netlist.gates))
        }
        calls = self._counted(monkeypatch)
        engine.set_gate_weights(weights)
        engine.update_timing()
        assert calls == []
        fresh = self._engine(small_design, kernel)
        fresh.set_gate_weights(weights)
        fresh.update_timing()
        assert _state_bytes(engine) == _state_bytes(fresh)

        calls.clear()
        engine.clear_gate_weights()
        engine.update_timing()
        assert calls == []
        monkeypatch.undo()
        plain = self._engine(small_design, kernel)
        plain.update_timing()
        assert _state_bytes(engine) == _state_bytes(plain)


class TestGbaDistance:
    def test_defaults_to_design_bbox(self, small_design):
        engine = engine_for(small_design)
        names = list(small_design.placement.locations)
        expected = small_design.placement.bbox_half_perimeter(names)
        assert engine.gba_distance() == pytest.approx(expected)

    def test_override_wins(self, small_design):
        config = STAConfig(
            derating_table=small_design.sta_config.derating_table,
            gba_distance=1234.0,
        )
        engine = STAEngine(
            small_design.netlist, small_design.constraints,
            small_design.placement, config,
        )
        assert engine.gba_distance() == 1234.0

    def test_no_placement_is_zero(self, fig2):
        engine = STAEngine(fig2.netlist, fig2.constraints, None,
                           fig2.sta_config)
        assert engine.gba_distance() == 0.0


class TestPessimismKnobs:
    def test_disabling_aocv_speeds_up_gba(self, small_design):
        """Without the derating table, GBA arrivals shrink everywhere."""
        with_table = engine_for(small_design)
        flat = STAEngine(
            small_design.netlist,
            replace(small_design.constraints, flat_derate_late=1.0),
            small_design.placement, STAConfig(derating_table=None),
        )
        wns_aocv = with_table.summary().wns
        wns_flat = flat.summary().wns
        assert wns_flat > wns_aocv

    def test_flat_derate_matches_table_free_scaling(self, fig2):
        flat_cfg = STAConfig(
            derating_table=None,
            clock_derate_late=1.0, clock_derate_early=1.0,
            data_early_derate=1.0, wire_r_per_nm=0.0, wire_c_per_nm=0.0,
        )
        engine = STAEngine(
            fig2.netlist, replace(fig2.constraints, flat_derate_late=1.2),
            None, flat_cfg,
        )
        engine.update_timing()
        d_node = engine.node_id("FF4", "D")
        # 6 gates x 100 ps x 1.2 flat derate.
        assert engine.state.arrival_late[d_node] == pytest.approx(720.0)


@pytest.mark.parametrize("kernel", ["vector", "scalar"])
def test_sdc_late_derate_reaches_timing_pba_and_explain(kernel):
    """``set_timing_derate -late`` is the flat data-cell derate without
    an AOCV table: GBA, PBA and explain all apply the SDC's 1.5."""
    from repro.designs.generator import generate_design
    from repro.designs.suite import DESIGN_SPECS
    from repro.pba.engine import PBAEngine
    from repro.pba.enumerate import enumerate_worst_paths
    from repro.sdc.parser import parse_sdc
    from repro.sdc.writer import write_sdc
    from repro.timing.explain import explain_endpoint

    design = generate_design(DESIGN_SPECS["D1"])
    sdc = write_sdc(design.constraints) + "\nset_timing_derate -late 1.5\n"
    engine = STAEngine(
        design.netlist, parse_sdc(sdc), design.placement,
        replace(design.sta_config, derating_table=None, kernel=kernel),
    )
    worst = min(engine.setup_slacks(), key=lambda s: s.slack)
    assert worst.slack == pytest.approx(-509.97, abs=0.005)

    rows = [
        row for row in explain_endpoint(engine, worst.node).rows
        if row.domain == "data_cell"
    ]
    assert rows
    assert all(row.gba_derate == row.pba_derate == 1.5 for row in rows)

    # GBA and PBA both derate data cells by 1.5, so only CRPR separates
    # the two slacks.
    path = enumerate_worst_paths(engine.graph, engine.state, 1, [worst.node])[0]
    PBAEngine(engine).analyze([path])
    assert path.depth > 0
    assert path.pba_slack - path.gba_slack == pytest.approx(path.crpr_credit)


class TestIntrospection:
    def test_node_id_roundtrip(self, small_engine):
        gate = small_engine.netlist.combinational_gates()[0]
        cell = small_engine.netlist.cell_of(gate)
        node_id = small_engine.node_id(gate, cell.output_pins[0].name)
        node = small_engine.graph.node(node_id)
        assert node.ref.gate == gate

    def test_node_id_unknown(self, small_engine):
        from repro.errors import TimingError

        with pytest.raises(TimingError):
            small_engine.node_id("ghost", "Z")

    def test_edge_delay_accessors(self, small_engine):
        edge = small_engine.graph.live_edges()[0]
        base = small_engine.base_edge_delay(edge.id)
        late = small_engine.late_edge_delay(edge.id)
        assert late == pytest.approx(
            base * small_engine.state.derate_late[edge.id]
        )

    def test_gate_slacks_cover_gates_reaching_endpoints(self, small_engine):
        slacks = small_engine.gate_slacks()
        data_gates = [
            g for g in small_engine.netlist.combinational_gates()
            if not g.startswith("ckbuf")
        ]
        # Dead-end gates (unloaded cone outputs the generator leaves
        # behind, like pruned logic in real designs) have no required
        # time; everything that reaches an endpoint must be covered.
        covered = sum(1 for g in data_gates if g in slacks)
        assert covered >= 0.6 * len(data_gates)
        # Every gate on the worst path is certainly covered.
        from repro.timing.report import trace_worst_path

        worst = small_engine.violating_endpoints()[0]
        edges = trace_worst_path(
            small_engine.graph, small_engine.state, worst.node
        )
        for edge_id in edges:
            edge = small_engine.graph.edge(edge_id)
            gate = edge.gate
            if gate is None or gate.startswith("ckbuf"):
                continue  # the trace includes the launch clock path
            if not small_engine.netlist.cell_of(gate).is_sequential:
                assert gate in slacks
