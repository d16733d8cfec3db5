"""Tier-1 determinism: parallel results are bit-identical to serial.

The executor contract — contiguous chunks, positional merge — plus
deterministic per-item work must make every backend produce *exactly*
the serial bytes, on the paper's 4-FF Fig. 2 example and on a generated
design.  Covered here:

* per-endpoint k-worst PBA (enumeration order, GBA/PBA slacks, depth /
  distance / CRPR fields, batched endpoint slacks);
* the full mGBA flow (fitted weights, solver iterations, pass ratios).
"""

import pytest

from repro.mgba.flow import MGBAConfig, MGBAFlow
from repro.pba.engine import PBAEngine
from repro.pba.enumerate import enumerate_worst_paths
from repro.timing.sta import STAEngine

from tests.conftest import engine_for

PARALLEL_BACKENDS = ["thread", "process"]
WORKERS = 3


def executor(backend):
    from repro.parallel import get_executor

    return get_executor(WORKERS, backend)


def _pba_fingerprint(engine, exec_obj):
    paths = enumerate_worst_paths(
        engine.graph, engine.state, 6, executor=exec_obj
    )
    pba = PBAEngine(engine)
    pba.analyze(paths, executor=exec_obj)
    return [
        (p.endpoint, p.launch, p.edges, p.gba_slack, p.pba_slack,
         p.depth, p.distance, p.crpr_credit, tuple(map(tuple,
                                                       p.contributions)))
        for p in paths
    ]


@pytest.fixture(scope="module")
def designs():
    from repro.designs.paper_example import build_fig2_design
    from repro.designs.generator import generate_design

    from tests.conftest import MEDIUM_SPEC

    return {
        "fig2": build_fig2_design(),
        "generated": generate_design(MEDIUM_SPEC),
    }


class TestPBADeterminism:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("design_name", ["fig2", "generated"])
    def test_paths_bit_identical(self, designs, design_name, backend):
        design = designs[design_name]
        engine = STAEngine(
            design.netlist, design.constraints,
            getattr(design, "placement", None), design.sta_config,
        )
        engine.update_timing()
        from repro.parallel import SerialExecutor

        reference = _pba_fingerprint(engine, SerialExecutor())
        assert _pba_fingerprint(engine, executor(backend)) == reference

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_endpoint_slacks_bit_identical(self, designs, backend):
        design = designs["generated"]
        engine = STAEngine(
            design.netlist, design.constraints,
            design.placement, design.sta_config,
        )
        engine.update_timing()
        pba = PBAEngine(engine)
        endpoints = engine.graph.endpoint_nodes()[:10]
        from repro.parallel import SerialExecutor

        reference = pba.golden_endpoint_slacks(
            endpoints, k=6, executor=SerialExecutor()
        )
        assert pba.golden_endpoint_slacks(
            endpoints, k=6, executor=executor(backend)
        ) == reference


class TestFlowDeterminism:
    def _flow_fingerprint(self, design, workers, backend=None):
        engine = engine_for(design)
        result = MGBAFlow(MGBAConfig(
            k_per_endpoint=4, seed=0,
            workers=workers, parallel_backend=backend,
        )).run(engine)
        return (
            tuple(sorted(result.weights.items())),
            result.solution.iterations,
            result.mse_gba, result.mse_mgba,
            result.pass_ratio_gba, result.pass_ratio_mgba,
            tuple(s.slack for s in engine.setup_slacks()),
        )

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_solver_results_bit_identical(self, designs, backend):
        design = designs["generated"]
        reference = self._flow_fingerprint(design, workers=1)
        assert self._flow_fingerprint(
            design, workers=WORKERS, backend=backend
        ) == reference

    def test_flow_span_carries_worker_attrs(self, designs):
        from repro.obs import tracing

        design = designs["generated"]
        engine = engine_for(design)
        with tracing() as tracer:
            MGBAFlow(MGBAConfig(
                k_per_endpoint=4, seed=0,
                workers=2, parallel_backend="thread",
            )).run(engine)
        runs = [s for s in tracer.all_spans() if s.name == "mgba.run"]
        assert runs and runs[0].attrs["workers"] == 2
        assert runs[0].attrs["backend"] == "thread"
        maps = [s for s in tracer.all_spans() if s.name == "parallel.map"]
        assert maps, "parallel regions must emit parallel.map spans"
        for region in maps:
            assert region.attrs["chunks"] == len(
                region.attrs["chunk_seconds"]
            )
