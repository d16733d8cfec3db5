"""Tier-1 determinism: a process worker computes the caller's bytes.

Work inside one design runs serially; the one fan-out, suite
evaluation, ships whole designs to process workers.  That is only
sound if a design timed in a fresh worker process yields exactly
what the caller computes, on the paper's 4-FF Fig. 2 example and on a
generated design.  Covered here:

* per-endpoint k-worst PBA (enumeration order, GBA/PBA slacks, depth /
  distance / CRPR fields, batched endpoint slacks);
* the full mGBA flow (fitted weights, solver iterations, pass ratios);
* suite evaluation, serial against a process pool.
"""

import pytest

from repro.mgba.flow import MGBAConfig, MGBAFlow
from repro.pba.engine import PBAEngine
from repro.pba.enumerate import enumerate_worst_paths
from repro.timing.sta import STAEngine

from tests.conftest import engine_for

PARALLEL_BACKENDS = ["process"]
WORKERS = 2


def computed_in_workers(backend, fn, design):
    """``fn(design)`` computed once in each of two workers."""
    from repro.parallel import get_executor

    return get_executor(WORKERS, backend).map(fn, [design, design])


def _timed_engine(design):
    engine = STAEngine(
        design.netlist, design.constraints,
        getattr(design, "placement", None), design.sta_config,
    )
    engine.update_timing()
    return engine


def _pba_fingerprint(design):
    engine = _timed_engine(design)
    paths = enumerate_worst_paths(engine.graph, engine.state, 6)
    PBAEngine(engine).analyze(paths)
    return [
        (p.endpoint, p.launch, p.edges, p.gba_slack, p.pba_slack,
         p.depth, p.distance, p.crpr_credit, tuple(map(tuple,
                                                       p.contributions)))
        for p in paths
    ]


def _endpoint_slacks(design):
    engine = _timed_engine(design)
    endpoints = engine.graph.endpoint_nodes()[:10]
    return PBAEngine(engine).golden_endpoint_slacks(endpoints, k=6)


def _flow_fingerprint(design):
    engine = engine_for(design)
    result = MGBAFlow(MGBAConfig(k_per_endpoint=4, seed=0)).run(engine)
    return (
        tuple(sorted(result.weights.items())),
        result.solution.iterations,
        result.mse_gba, result.mse_mgba,
        result.pass_ratio_gba, result.pass_ratio_mgba,
        tuple(s.slack for s in engine.setup_slacks()),
    )


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
        reference = _pba_fingerprint(design)
        assert reference
        assert computed_in_workers(backend, _pba_fingerprint, design) == [
            reference, reference,
        ]

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_endpoint_slacks_bit_identical(self, designs, backend):
        design = designs["generated"]
        reference = _endpoint_slacks(design)
        assert len(reference) == 10
        assert computed_in_workers(backend, _endpoint_slacks, design) == [
            reference, reference,
        ]


class TestFlowDeterminism:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_solver_results_bit_identical(self, designs, backend):
        design = designs["generated"]
        reference = _flow_fingerprint(design)
        assert computed_in_workers(backend, _flow_fingerprint, design) == [
            reference, reference,
        ]


class TestSuiteDeterminism:
    def test_process_pool_matches_serial(self):
        from repro.parallel import ProcessExecutor, SerialExecutor
        from repro.service.suite import evaluate_suite

        def run(executor):
            return [
                report.comparable() for report in evaluate_suite(
                    ["D1", "D2"], mgba=True, k_per_endpoint=4,
                    executor=executor,
                )
            ]

        serial = run(SerialExecutor())
        assert [row[0] for row in serial] == ["D1", "D2"]
        assert run(ProcessExecutor(2)) == serial
