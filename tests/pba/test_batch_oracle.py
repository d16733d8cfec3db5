"""The batched path work against its per-path oracles, bit for bit.

* The enumerator returns the tuple-suffix reference's paths, in order.
* ``PBAEngine.analyze`` fills every field exactly as the per-path loop
  does (``==``), under both variation models, with and without slew
  recalculation, on designs with false paths and multicycles.
* The mGBA matrix built from the batch is ``tobytes()``-equal to the one
  built from the oracle's contribution lists.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.designs.generator import generate_design
from repro.designs.suite import DESIGN_SPECS
from repro.mgba.flow import MGBAConfig, MGBAFlow
from repro.mgba.problem import build_problem
from repro.pba.engine import PBAEngine
from repro.pba.enumerate import enumerate_worst_paths, worst_paths_to_endpoint
from repro.timing.sta import STAEngine
from tests.conftest import SMALL_SPEC
from tests.pba.oracle import oracle_analyze_path, reference_worst_paths

K = 20
CONFIGS = [
    ("table", False), ("table", True), ("rss", False), ("rss", True),
]


def _engine(design, kernel=None) -> STAEngine:
    config = design.sta_config
    if kernel is not None:
        config = replace(config, kernel=kernel)
    engine = STAEngine(
        design.netlist, design.constraints, design.placement, config
    )
    engine.update_timing()
    return engine


def _small_with_exceptions():
    design = generate_design(SMALL_SPEC)
    design.constraints.set_false_path(from_pattern="ff0")
    design.constraints.set_false_path(from_pattern="in*", to_pattern="ff*")
    design.constraints.set_multicycle_path(2, to_pattern="ff2")
    return design


@pytest.fixture(scope="module")
def engines():
    return {
        "small": _engine(_small_with_exceptions()),
        "small-scalar": _engine(_small_with_exceptions(), kernel="scalar"),
        "D1": _engine(generate_design(DESIGN_SPECS["D1"])),
        "D5": _engine(generate_design(DESIGN_SPECS["D5"])),
    }


def _fields(path):
    return (
        path.endpoint, path.launch, path.edges, path.endpoint_name,
        path.launch_name, path.analyzed, path.is_false, path.gba_arrival,
        path.gba_slack, path.pba_slack, path.depth, path.distance,
        path.crpr_credit, list(path.contributions),
    )


def _reference_enumeration(engine, k):
    return [
        path
        for endpoint in engine.graph.endpoint_nodes()
        for path in reference_worst_paths(
            engine.graph, engine.state, endpoint, k
        )
    ]


@pytest.mark.parametrize("name", ["small", "small-scalar", "D1", "D5"])
class TestOracle:
    def test_enumeration_matches_tuple_suffix_reference(self, engines, name):
        engine = engines[name]
        got = enumerate_worst_paths(engine.graph, engine.state, K)
        want = _reference_enumeration(engine, K)
        assert [(p.endpoint, p.launch, p.edges, p.gba_arrival,
                 p.endpoint_name, p.launch_name) for p in got] == \
            [(p.endpoint, p.launch, p.edges, p.gba_arrival,
              p.endpoint_name, p.launch_name) for p in want]

    def test_pruned_enumeration_matches_reference(self, engines, name):
        engine = engines[name]
        graph, state = engine.graph, engine.state
        for endpoint in graph.endpoint_nodes()[:12]:
            full = reference_worst_paths(graph, state, endpoint, 64)
            if len(full) < 3:
                continue
            cut = full[len(full) // 2].gba_arrival
            got = worst_paths_to_endpoint(graph, state, endpoint, 64, cut)
            want = reference_worst_paths(graph, state, endpoint, 64, cut)
            assert [(p.launch, p.edges, p.gba_arrival) for p in got] == \
                [(p.launch, p.edges, p.gba_arrival) for p in want]

    @pytest.mark.parametrize("variation,recalc", CONFIGS)
    def test_batch_equals_per_path_loop(self, engines, name, variation,
                                        recalc):
        engine = engines[name]
        paths = enumerate_worst_paths(engine.graph, engine.state, K)
        oracle_paths = copy.deepcopy(paths)
        pba = PBAEngine(engine, recalc_slew=recalc, variation=variation)
        pba.analyze(paths)
        for path in oracle_paths:
            oracle_analyze_path(pba, path)
        assert [_fields(p) for p in paths] == \
            [_fields(p) for p in oracle_paths]
        if name == "small":
            assert any(p.is_false for p in paths)
            assert not all(p.is_false for p in paths)

        batch = build_problem(paths)
        lists = build_problem(oracle_paths)
        assert batch.gates == lists.gates
        for field in ("indptr", "indices", "data"):
            got, want = getattr(batch.matrix, field), \
                getattr(lists.matrix, field)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        for field in ("rhs", "s_gba", "s_pba"):
            assert getattr(batch, field).tobytes() == \
                getattr(lists, field).tobytes()

    def test_filtered_subset_matrix_matches(self, engines, name):
        """The flow drops false paths before the build: rows subset."""
        engine = engines[name]
        paths = enumerate_worst_paths(engine.graph, engine.state, K)
        oracle_paths = copy.deepcopy(paths)
        pba = PBAEngine(engine)
        pba.analyze(paths)
        for path in oracle_paths:
            oracle_analyze_path(pba, path)
        keep = [i for i in range(len(paths)) if i % 3 and
                not paths[i].is_false]
        batch = build_problem([paths[i] for i in keep])
        lists = build_problem([oracle_paths[i] for i in keep])
        assert batch.gates == lists.gates
        for field in ("indptr", "indices", "data"):
            assert getattr(batch.matrix, field).tobytes() == \
                getattr(lists.matrix, field).tobytes()


def test_analyze_path_is_the_batch_on_one_path(engines):
    engine = engines["D1"]
    paths = enumerate_worst_paths(engine.graph, engine.state, 3)
    single = copy.deepcopy(paths)
    pba = PBAEngine(engine, variation="rss")
    pba.analyze(paths)
    for path in single:
        pba.analyze_path(path)
    assert [_fields(p) for p in single] == [_fields(p) for p in paths]


def test_golden_endpoint_slacks_match_per_path_loop(engines):
    engine = engines["small"]
    pba = PBAEngine(engine)
    golden = pba.golden_endpoint_slacks(k=16)
    for endpoint, slack in golden.items():
        paths = reference_worst_paths(engine.graph, engine.state, endpoint, 16)
        for path in paths:
            oracle_analyze_path(pba, path)
        real = [p.pba_slack for p in paths if not p.is_false]
        assert slack == (min(real) if real else float("inf"))


def test_flow_matrix_is_unchanged():
    """A whole fit builds the matrix the per-path oracle builds."""
    design = generate_design(DESIGN_SPECS["D1"])
    engine = _engine(design)
    result = MGBAFlow(MGBAConfig(k_per_endpoint=K)).run(engine, apply=False)
    oracle_paths = _reference_enumeration(engine, K)
    pba = PBAEngine(engine)
    for path in oracle_paths:
        oracle_analyze_path(pba, path)
    problem = build_problem([p for p in oracle_paths if not p.is_false])
    assert result.problem.gates == problem.gates
    assert result.problem.matrix.data.tobytes() == \
        problem.matrix.data.tobytes()
    assert result.problem.matrix.indices.tobytes() == \
        problem.matrix.indices.tobytes()
    assert np.array_equal(result.problem.rhs, problem.rhs)
