"""End-to-end mGBA flow tests — the paper's headline claims in miniature."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.mgba.flow import MGBAConfig, MGBAFlow, corrected_path_slacks
from tests.conftest import engine_for


@pytest.fixture(scope="module")
def flow_result(medium_design):
    engine = engine_for(medium_design)
    result = MGBAFlow(MGBAConfig(k_per_endpoint=10, seed=0)).run(engine)
    return engine, result


@pytest.fixture(scope="module")
def scg_flow_result(medium_design):
    """The flow fitted with SCG + RS, which ``"auto"`` runs on large
    problems (the medium design's fit is small enough for ``direct``)."""
    engine = engine_for(medium_design)
    result = MGBAFlow(
        MGBAConfig(k_per_endpoint=10, seed=0, solver="scg+rs")
    ).run(engine)
    return engine, result


class TestHeadlineClaims:
    solver = "auto"

    def test_pass_ratio_improves(self, flow_result):
        """Table 3's direction: mGBA correlates far better than GBA."""
        _, result = flow_result
        assert result.pass_ratio_mgba > result.pass_ratio_gba
        assert result.pass_ratio_mgba > 0.9
        assert result.pass_ratio_improvement > 0

    def test_mse_improves(self, flow_result):
        _, result = flow_result
        assert result.mse_mgba < 0.1 * result.mse_gba

    def test_no_paths_made_worse_in_aggregate(self, flow_result):
        """Table 3: 'no test case becomes worse than the original GBA'."""
        _, result = flow_result
        corrected = result.problem.corrected_slacks(result.solution.x)
        gba_err = np.abs(result.problem.s_gba - result.problem.s_pba)
        mgba_err = np.abs(corrected - result.problem.s_pba)
        assert mgba_err.mean() < gba_err.mean()

    def test_violations_do_not_increase(self, medium_design):
        engine = engine_for(medium_design)
        before = engine.summary().violations
        MGBAFlow(
            MGBAConfig(k_per_endpoint=10, seed=0, solver=self.solver)
        ).run(engine)
        after = engine.summary().violations
        assert after <= before


class TestHeadlineClaimsUnderSCGRS(TestHeadlineClaims):
    solver = "scg+rs"

    @pytest.fixture
    def flow_result(self, scg_flow_result):
        return scg_flow_result


class TestGraphConsistency:
    def test_graph_slacks_match_model(self, flow_result):
        """Installed weights reproduce the model's corrected slacks."""
        engine, result = flow_result
        graph_view = corrected_path_slacks(engine, result.paths)
        model_view = result.problem.corrected_slacks(result.solution.x)
        assert np.max(np.abs(graph_view - model_view)) < 1e-6

    def test_weights_installed(self, flow_result):
        engine, result = flow_result
        assert engine.weights
        assert set(engine.weights) <= set(result.problem.gates)


class TestGraphConsistencyUnderSCGRS(TestGraphConsistency):
    @pytest.fixture
    def flow_result(self, scg_flow_result):
        return scg_flow_result

    def test_fit_ran_scg_rs(self, flow_result):
        _, result = flow_result
        assert result.solution.solver == "scg+rs"


class TestFlowMechanics:
    def test_runtime_breakdown_positive(self, flow_result):
        _, result = flow_result
        assert result.seconds_select >= 0
        assert result.seconds_pba > 0
        assert result.seconds_solve > 0
        assert result.total_seconds >= result.seconds_solve

    def test_apply_false_leaves_engine_clean(self, medium_design):
        engine = engine_for(medium_design)
        MGBAFlow(MGBAConfig(k_per_endpoint=6, seed=0)).run(
            engine, apply=False
        )
        assert engine.weights == {}

    def test_unknown_solver_rejected(self, medium_design):
        engine = engine_for(medium_design)
        with pytest.raises(SolverError):
            MGBAFlow(MGBAConfig(solver="quantum")).run(engine)

    def test_path_budget_respected(self, medium_design):
        engine = engine_for(medium_design)
        result = MGBAFlow(
            MGBAConfig(k_per_endpoint=10, max_paths=30, seed=0)
        ).run(engine)
        assert result.problem.num_paths <= 30

    def test_rerun_resets_weights_first(self, medium_design):
        """A second flow invocation must fit against clean GBA."""
        engine = engine_for(medium_design)
        flow = MGBAFlow(MGBAConfig(k_per_endpoint=6, seed=0))
        first = flow.run(engine)
        second = flow.run(engine)
        assert second.mse_gba == pytest.approx(first.mse_gba, rel=1e-9)


class TestFig2Flow:
    def test_phantom_violation_removed(self, fig2):
        """The worked example: mGBA clears the 740-vs-690 phantom."""
        from repro.timing.sta import STAEngine

        engine = STAEngine(fig2.netlist, fig2.constraints, None,
                           fig2.sta_config)
        assert engine.summary().violations == 1
        MGBAFlow(MGBAConfig(k_per_endpoint=4, solver="direct")).run(engine)
        assert engine.summary().violations == 0
