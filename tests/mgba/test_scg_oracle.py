"""The lean SCG iteration against the pre-rewrite one, bit for bit.

``np.bincount`` accumulates in element order like ``np.add.at``, one
matvec feeds both objective terms, and ``math.sqrt(v @ v)`` is what
``np.linalg.norm`` computes for a 1-D float64 vector.  So for a fixed
seed the RNG stream, every iterate and every stopping decision are the
same: ``x`` is ``tobytes()``-equal, with equal iteration counts,
objective and history.
"""

from __future__ import annotations

import pytest

from repro.designs.generator import generate_design
from repro.designs.suite import DESIGN_SPECS
from repro.mgba.problem import build_problem
from repro.mgba.solvers import solve_scg, solve_with_row_sampling
from repro.mgba.solvers.scg import ROW_BLOCK
from repro.pba.engine import PBAEngine
from repro.pba.enumerate import enumerate_worst_paths
from tests.conftest import MEDIUM_SPEC, engine_for
from tests.mgba.scg_reference import (
    ReferenceProblem,
    reference_solve_scg,
    reference_solve_with_row_sampling,
)

SEEDS = (0, 3, 5)


def _problem(spec, k=20):
    engine = engine_for(generate_design(spec))
    engine.update_timing()
    paths = enumerate_worst_paths(engine.graph, engine.state, k)
    PBAEngine(engine).analyze(paths)
    return build_problem([p for p in paths if not p.is_false])


@pytest.fixture(scope="module")
def problems():
    return {
        "medium": _problem(MEDIUM_SPEC),
        "D1": _problem(DESIGN_SPECS["D1"]),
        "D5": _problem(DESIGN_SPECS["D5"]),
    }


def _same(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.objective == want.objective
    assert got.history == want.history
    assert got.history_iters == want.history_iters


@pytest.mark.parametrize("name", ["medium", "D1", "D5"])
@pytest.mark.parametrize("seed", SEEDS)
class TestLeanIteration:
    def test_scg_matches_reference(self, problems, name, seed):
        problem = problems[name]
        _same(
            solve_scg(problem, seed=seed),
            reference_solve_scg(ReferenceProblem.of(problem), seed=seed),
        )

    def test_row_sampling_matches_reference(self, problems, name, seed):
        problem = problems[name]
        got = solve_with_row_sampling(problem, seed=seed)
        want = reference_solve_with_row_sampling(
            ReferenceProblem.of(problem), seed=seed
        )
        _same(got, want)
        assert got.extras == want.extras


def test_reference_problem_methods_agree(problems):
    """The two hot methods alone, on sampled rows and a moved iterate."""
    import numpy as np

    problem = problems["D1"]
    reference = ReferenceProblem.of(problem)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(0, 0.5, size=problem.num_gates)
        rows = rng.integers(0, problem.num_paths, size=7)
        assert problem.row_gradient(x, rows).tobytes() == \
            reference.row_gradient(x, rows).tobytes()
        assert problem.objective(x) == reference.objective(x)


@pytest.mark.parametrize("name", ["medium", "D1", "D5"])
@pytest.mark.parametrize("seed", SEEDS)
def test_shared_generator_continues_like_reference(problems, name, seed):
    """A run that stops inside a block of drawn rows hands a shared
    generator on exactly where the per-iteration draws would have."""
    import numpy as np

    problem = problems[name]
    kwargs = dict(objective_every=10, stall_checks=5, stall_tol=2e-3)
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = solve_scg(problem, seed=rng, **kwargs)
    want = reference_solve_scg(
        ReferenceProblem.of(problem), seed=ref_rng, **kwargs
    )
    _same(got, want)
    assert got.converged and got.iterations % ROW_BLOCK != 0
    assert rng.random(5).tobytes() == ref_rng.random(5).tobytes()
