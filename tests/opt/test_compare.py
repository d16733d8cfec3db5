"""Flow-comparison (Table 2/5 harness) tests."""

import pytest

from repro.obs import default_registry
from repro.opt.closure import ClosureConfig
from repro.opt.compare import run_flow_comparison, signoff_qor
from repro.designs.generator import DesignSpec, generate_design
from repro.pba import engine as pba_engine
from tests.conftest import engine_for

SPEC = DesignSpec(
    "cmp", seed=31, n_flops=12, n_inputs=4, n_outputs=3,
    depth_range=(3, 8), violation_quantile=0.75,
)


def _factory():
    design = generate_design(SPEC)
    return (design.netlist, design.constraints, design.placement,
            design.sta_config)


@pytest.fixture(scope="module")
def comparison():
    return run_flow_comparison(
        "cmp", _factory, ClosureConfig(max_transforms=80)
    )


class TestSignoff:
    def test_signoff_never_worse_than_gba_view(self):
        design = generate_design(SPEC)
        engine = engine_for(design)
        gba = engine.summary()
        golden = signoff_qor(engine)
        assert golden.wns >= gba.wns - 1e-9
        assert golden.violations <= gba.violations

    def test_signoff_clears_weights(self):
        design = generate_design(SPEC)
        engine = engine_for(design)
        engine.set_gate_weights({"g_0_0_0": 0.9})
        signoff_qor(engine)
        assert engine.weights == {}

    def test_pathless_endpoint_skipped_and_counted(self, monkeypatch):
        engine = engine_for(generate_design(SPEC))
        reference = signoff_qor(engine)
        dropped = engine.graph.endpoint_nodes()[0]
        real = pba_engine.enumerate_worst_paths

        def enumerate_without(graph, state, k, endpoints=None, **kwargs):
            paths = real(graph, state, k, endpoints, **kwargs)
            return [path for path in paths if path.endpoint != dropped]

        monkeypatch.setattr(
            pba_engine, "enumerate_worst_paths", enumerate_without
        )
        skips = default_registry().counter("pba.pathless_endpoints")
        before = skips.value
        skipped = signoff_qor(engine)
        assert skips.value == before + 1
        assert skipped.violations <= reference.violations

    def test_other_errors_propagate(self, monkeypatch):
        def broken(graph, state, k, endpoints=None, **kwargs):
            raise IndexError("injected PBA fault")

        monkeypatch.setattr(pba_engine, "enumerate_worst_paths", broken)
        with pytest.raises(IndexError, match="injected PBA fault"):
            signoff_qor(engine_for(generate_design(SPEC)))


class TestComparison:
    def test_both_flows_ran(self, comparison):
        assert comparison.gba.transforms_tried > 0
        assert comparison.mgba.mgba_result is not None

    def test_table2_shape_cheaper_design(self, comparison):
        """mGBA flow must not cost more area/leakage than GBA flow."""
        gains = comparison.qor_improvement()
        assert gains["area"] >= -1.0     # allow tiny noise, expect >= 0
        assert gains["leakage"] >= -1.0

    def test_signoff_quality_preserved(self, comparison):
        """The cheaper mGBA design may not be meaningfully worse at
        sign-off (paper: some WNS/TNS degradation is acceptable, but
        violations must stay bounded)."""
        assert comparison.mgba_signoff.violations <= max(
            comparison.gba_signoff.violations, 5
        )

    def test_runtime_row_fields(self, comparison):
        row = comparison.runtime_row()
        assert set(row) == {
            "gba_flow", "post_route", "mgba", "total", "speedup",
            "fix_speedup",
        }
        assert row["total"] == pytest.approx(
            comparison.mgba.seconds_total
        )
        assert row["speedup"] > 0
