"""PBA golden-engine tests: the one-sided pessimism invariant and the
paper's Eq. 2 numbers."""

import pytest

from repro.errors import TimingError
from repro.designs.generator import generate_design
from repro.netlist.edit import resize_gate
from repro.pba.engine import PBAEngine
from repro.pba.enumerate import enumerate_worst_paths, worst_paths_to_endpoint
from repro.designs.paper_example import GBA_PATH_DELAY, PBA_PATH_DELAY
from tests.conftest import SMALL_SPEC, engine_for


@pytest.fixture()
def analyzed_small(small_engine):
    paths = enumerate_worst_paths(small_engine.graph, small_engine.state, 6)
    PBAEngine(small_engine).analyze(paths)
    return small_engine, paths


class TestFig2Numbers:
    """Eq. (2) and (3): PBA 690 ps vs GBA 740 ps, gap 50 ps."""

    def test_gba_vs_pba_path_delay(self, fig2_engine):
        endpoint = fig2_engine.node_id("FF4", "D")
        paths = worst_paths_to_endpoint(
            fig2_engine.graph, fig2_engine.state, endpoint, 1
        )
        path = PBAEngine(fig2_engine).analyze_path(paths[0])
        assert path.gba_arrival == pytest.approx(GBA_PATH_DELAY)
        period = fig2_engine.constraints.primary_clock().period
        assert period - path.pba_slack == pytest.approx(PBA_PATH_DELAY)
        assert path.pessimism == pytest.approx(50.0)

    def test_depth_is_path_cell_count(self, fig2_engine):
        endpoint = fig2_engine.node_id("FF4", "D")
        paths = worst_paths_to_endpoint(
            fig2_engine.graph, fig2_engine.state, endpoint, 2
        )
        engine = PBAEngine(fig2_engine)
        engine.analyze(paths)
        assert paths[0].depth == 6   # FF1 route
        assert paths[1].depth == 5   # FF2->K1 route

    def test_contributions_match_path_gates(self, fig2_engine):
        endpoint = fig2_engine.node_id("FF4", "D")
        path = worst_paths_to_endpoint(
            fig2_engine.graph, fig2_engine.state, endpoint, 1
        )[0]
        PBAEngine(fig2_engine).analyze_path(path)
        assert path.gates() == ["G1", "G2", "G3", "G4", "G5", "G6"]
        for _, base_delay, derate in path.contributions:
            assert base_delay == pytest.approx(100.0)
            assert derate in (1.20, 1.25, 1.30)


class TestInvariants:
    def test_pba_never_below_gba(self, analyzed_small):
        """THE paper invariant: PBA only removes pessimism."""
        _, paths = analyzed_small
        assert paths
        for path in paths:
            assert path.pba_slack >= path.gba_slack - 1e-9

    def test_crpr_credit_nonnegative(self, analyzed_small):
        _, paths = analyzed_small
        assert all(p.crpr_credit >= 0 for p in paths)
        assert any(p.crpr_credit > 0 for p in paths)

    def test_path_distance_bounded_by_design(self, analyzed_small):
        engine, paths = analyzed_small
        design_bbox = engine.gba_distance()
        for path in paths:
            assert 0 <= path.distance <= design_bbox + 1e-9

    def test_gba_slack_consistent_with_endpoint(self, analyzed_small):
        """Worst per-endpoint path slack == the endpoint's GBA slack."""
        engine, paths = analyzed_small
        endpoint_slacks = {s.node: s.slack for s in engine.setup_slacks()}
        worst = {}
        for path in paths:
            worst[path.endpoint] = min(
                worst.get(path.endpoint, float("inf")), path.gba_slack
            )
        for endpoint, slack in worst.items():
            assert slack == pytest.approx(
                endpoint_slacks[endpoint], abs=1e-6
            )


class TestGuards:
    def test_rejects_weighted_engine(self, fig2_engine):
        fig2_engine.set_gate_weights({"G1": 0.8})
        fig2_engine.update_timing()
        with pytest.raises(TimingError):
            PBAEngine(fig2_engine)

    def test_non_endpoint_path_rejected(self, fig2_engine):
        from repro.pba.paths import TimingPath

        engine = PBAEngine(fig2_engine)
        bogus = TimingPath(endpoint=0, launch=0, edges=())
        with pytest.raises(TimingError):
            engine.analyze_path(bogus)


class TestGoldenEndpointSlack:
    def test_golden_at_most_gba(self, small_engine):
        pba = PBAEngine(small_engine)
        gba = {s.node: s.slack for s in small_engine.setup_slacks()}
        for endpoint in small_engine.graph.endpoint_nodes()[:6]:
            golden = pba.golden_endpoint_slack(endpoint)
            assert golden >= gba[endpoint] - 1e-9

    def test_fig2_phantom_violation(self, fig2_engine):
        """GBA says FF4 fails; golden PBA says it passes."""
        endpoint = fig2_engine.node_id("FF4", "D")
        pba = PBAEngine(fig2_engine)
        gba_slack = {
            s.node: s.slack for s in fig2_engine.setup_slacks()
        }[endpoint]
        golden = pba.golden_endpoint_slack(endpoint)
        assert gba_slack < 0 < golden

    def test_mirrors_follow_the_timing(self):
        """One read of the graph serves every endpoint of one timing; an
        edit moves the engine's timing epoch and the next query re-reads."""
        design = generate_design(SMALL_SPEC)
        engine = engine_for(design)
        pba = PBAEngine(engine)
        endpoints = engine.graph.endpoint_nodes()
        mirrors = pba.path_mirrors()
        before = [pba.golden_endpoint_slack(e) for e in endpoints]
        assert pba.path_mirrors() is mirrors
        worst = min(engine.setup_slacks(), key=lambda s: s.slack).node
        (path,) = PBAEngine(engine).analyze(
            worst_paths_to_endpoint(engine.graph, engine.state, worst, 1)
        )
        changes = (resize_gate(design.netlist, g, up=True) for g in path.gates())
        engine.apply_change(next(c for c in changes if c is not None))
        assert pba.path_mirrors() is not mirrors
        assert pba.path_mirrors().arrival == engine.state.arrival_late.tolist()
        after = [pba.golden_endpoint_slack(e) for e in endpoints]
        fresh = PBAEngine(engine)
        assert after == [fresh.golden_endpoint_slack(e) for e in endpoints]
        assert after != before
