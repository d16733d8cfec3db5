"""The bounded direct solve against an independent optimizer.

``solve_direct`` minimizes ``||Ax-b||^2 + w ||max(l-Ax,0)||^2 +
damp^2 ||x||^2`` over the weight clamp's box with projected Newton
steps.  On seeded problems (fig2, D1, and the random mGBA-shaped
systems of ``test_solver_properties``, some scaled so the box binds)
its ``x`` must satisfy the box KKT conditions, reach an objective no
higher than ``scipy.optimize.minimize(method="L-BFGS-B")`` on the same
boxed objective, stay inside the clamp, and be the same bytes at any
BLAS thread count.  ``solver="auto"`` must run it up to
``AUTO_DIRECT_MAX_GRAM_MULTIPLIES`` multiplies in ``A^T A`` and SCG + RS
beyond, and say which.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import sparse
from scipy.optimize import minimize

from repro.designs.paper_example import build_fig2_design
from repro.designs.suite import DESIGN_SPECS
from repro.designs.generator import generate_design
from repro.mgba.apply import weights_from_solution
from repro.mgba.flow import (
    AUTO_DIRECT_MAX_GRAM_MULTIPLIES,
    MGBAConfig,
    MGBAFlow,
)
from repro.mgba.problem import MGBAProblem, build_problem
from repro.mgba.solvers import solve_direct
from repro.mgba.solvers.direct import X_LOWER, X_UPPER
from repro.pba.engine import PBAEngine
from repro.pba.enumerate import enumerate_worst_paths
from repro.timing.sta import STAEngine
from tests.mgba.test_solver_properties import _random_problem

REPO = Path(__file__).resolve().parents[2]


def _engine(design) -> STAEngine:
    return STAEngine(
        design.netlist, design.constraints,
        getattr(design, "placement", None), design.sta_config,
    )


def _design_problem(design, k):
    engine = _engine(design)
    engine.update_timing()
    paths = enumerate_worst_paths(engine.graph, engine.state, k)
    PBAEngine(engine).analyze(paths)
    return build_problem([p for p in paths if not p.is_false])


def _fig2_problem():
    return _design_problem(build_fig2_design(), 4)


def _d1_problem():
    return _design_problem(generate_design(DESIGN_SPECS["D1"]), 20)


def _scaled(problem: MGBAProblem, scale: float) -> MGBAProblem:
    """The same system with ``b`` scaled, so the box can bind."""
    rhs = problem.rhs * scale
    return MGBAProblem(
        matrix=problem.matrix, rhs=rhs, s_gba=problem.s_pba + rhs,
        s_pba=problem.s_pba, gates=problem.gates,
        epsilon=problem.epsilon, penalty=problem.penalty,
    )


@pytest.fixture(scope="module")
def design_problems():
    return {"fig2": _fig2_problem(), "D1": _d1_problem()}


def _damped(problem: MGBAProblem, x: np.ndarray):
    """The damped objective (damp = 1) and its gradient."""
    ax = problem.matrix @ x
    res = ax - problem.rhs
    vio = np.minimum(ax - problem.lower_bound, 0.0)
    value = res @ res + problem.penalty * (vio @ vio) + x @ x
    grad = 2.0 * (problem.matrix.T @ (res + problem.penalty * vio) + x)
    return float(value), grad


def _kkt_residual(problem: MGBAProblem, x: np.ndarray) -> float:
    """Largest gradient component the box does not account for."""
    _, grad = _damped(problem, x)
    residual = grad.copy()
    at_lower = x <= X_LOWER
    at_upper = x >= X_UPPER
    residual[at_lower] = np.minimum(grad[at_lower], 0.0)
    residual[at_upper] = np.maximum(grad[at_upper], 0.0)
    return float(np.max(np.abs(residual)))


def _check_optimal(problem: MGBAProblem) -> None:
    result = solve_direct(problem)
    x = result.x
    assert result.solver == "direct" and result.converged
    # Inside the clamp, so the installed weights are exactly 1 + x.
    assert np.all(x >= X_LOWER) and np.all(x <= X_UPPER)
    weights = weights_from_solution(problem, x)
    for gate, correction in zip(problem.gates, x):
        if gate in weights:
            assert weights[gate] == 1.0 + correction
    # Box KKT: stationary in every free direction.
    scale = float(np.max(np.abs(_damped(problem, np.zeros_like(x))[1])))
    assert _kkt_residual(problem, x) <= 1e-9 * max(scale, 1.0)
    # No worse than an independent bounded quasi-Newton run.
    reference = minimize(
        lambda z: _damped(problem, z), np.zeros_like(x), jac=True,
        method="L-BFGS-B", bounds=[(X_LOWER, X_UPPER)] * x.size,
        options={"maxiter": 20000, "maxfun": 40000, "ftol": 1e-15,
                 "gtol": 1e-12},
    )
    value, _ = _damped(problem, x)
    assert value <= reference.fun * (1.0 + 1e-9) + 1e-9
    # The reported objective is the problem's own (undamped) one.
    assert result.objective == problem.objective(x)


@pytest.mark.parametrize("name", ["fig2", "D1"])
@pytest.mark.parametrize("scale", [1.0, 6.0])
def test_design_problems_optimal(design_problems, name, scale):
    _check_optimal(_scaled(design_problems[name], scale))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    scale=st.sampled_from([1.0, 6.0]),
    noise=st.sampled_from([0.0, 0.5]),
)
def test_random_problems_optimal(seed, scale, noise):
    problem = _random_problem(seed, m=60, n=25, nnz_per_row=6, noise=noise)
    _check_optimal(_scaled(problem, scale))


def test_box_binds_when_the_fit_wants_more(design_problems):
    """A scaled system pushes the unbounded optimum out of the clamp;
    the bounded solve then holds some columns at a bound."""
    x = solve_direct(_scaled(design_problems["D1"], 6.0)).x
    assert np.any(x == X_LOWER) or np.any(x == X_UPPER)


_DIGEST_SCRIPT = """
import hashlib, sys
sys.path[:0] = [{src!r}, {repo!r}]
from tests.mgba.test_direct_oracle import _d1_problem, _fig2_problem, _scaled
from tests.mgba.test_solver_properties import _random_problem
from repro.mgba.solvers import solve_direct
problems = [_fig2_problem(), _d1_problem(),
            _scaled(_random_problem(3, m=60, n=25, nnz_per_row=6), 6.0)]
print(" ".join(
    hashlib.sha256(solve_direct(p).x.tobytes()).hexdigest()
    for p in problems
))
"""


def _digests(threads: int) -> str:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(threads)
    script = _DIGEST_SCRIPT.format(src=str(REPO / "src"), repo=str(REPO))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=REPO,
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.strip()


def test_same_bytes_at_any_blas_thread_count():
    one = _digests(1)
    assert len(one.split()) == 3
    assert _digests(2) == one


def _problem_of_rows(row_nnz: "list[int]", n: int) -> MGBAProblem:
    """A random mGBA-shaped problem whose row ``i`` has ``row_nnz[i]``
    entries, so its Gram product takes ``sum(k^2)`` multiplies."""
    rng = np.random.default_rng(11)
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    indices = np.concatenate([
        np.sort(rng.choice(n, size=k, replace=False)) for k in row_nnz
    ])
    data = rng.uniform(50, 200, size=indices.size)
    matrix = sparse.csr_matrix((data, indices, indptr),
                               shape=(len(row_nnz), n))
    rhs = matrix @ rng.uniform(-0.3, 0.0, size=n)
    s_pba = rng.uniform(-100, 300, size=len(row_nnz))
    return MGBAProblem(matrix=matrix, rhs=rhs, s_gba=s_pba + rhs,
                       s_pba=s_pba, gates=[f"g{j}" for j in range(n)],
                       epsilon=0.05)


#: Rows of 100 entries fill the crossover exactly; one more single-entry
#: row takes the problem one multiply past it.
_AT_CROSSOVER = [100] * (AUTO_DIRECT_MAX_GRAM_MULTIPLIES // 100**2)


@pytest.mark.parametrize("row_nnz, ran", [
    pytest.param(_AT_CROSSOVER, "direct", id="at-crossover"),
    pytest.param(_AT_CROSSOVER + [1], "scg+rs", id="one-past"),
])
def test_auto_chooses_by_gram_multiplies(row_nnz, ran):
    problem = _problem_of_rows(row_nnz, n=200)
    assert problem.gram_multiplies == (
        AUTO_DIRECT_MAX_GRAM_MULTIPLIES + (ran == "scg+rs")
    )
    config = MGBAConfig(solver="auto")
    assert config.solver_for(problem) == ran
    assert config.solve(problem).solver == ran


def test_flow_reports_the_solver_that_ran(design_problems):
    engine = _engine(build_fig2_design())
    result = MGBAFlow(MGBAConfig(k_per_endpoint=4)).run(engine, apply=False)
    assert MGBAConfig().solver == "auto"
    assert result.solution.solver == "direct"
    assert result.stages["solve"].attrs["ran"] == "direct"
    assert result.stages["solve"].attrs["solver"] == "auto"
    want = solve_direct(design_problems["fig2"]).x
    assert result.solution.x.tobytes() == want.tobytes()
