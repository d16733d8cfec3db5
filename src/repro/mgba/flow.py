"""The modified-GBA analysis flow (right half of the paper's Fig. 5).

``MGBAFlow.run`` performs, on one clean GBA engine:

1. **select** — per-endpoint top-k' critical paths (§3.2 scheme 2);
2. **golden** — PBA analysis of the selected paths (depth, distance,
   CRPR, golden slacks);
3. **fit** — build the sparse problem and solve it with the configured
   solver (SCG + uniform row sampling by default);
4. **update** — install the per-gate weights into the engine, so every
   subsequent (incremental) GBA query returns corrected slacks.

The result object carries both slack vectors, the solution, and a
runtime breakdown, which is everything Tables 3-5 need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.context import RunContext
from repro.errors import SolverError
from repro.mgba.apply import weights_from_solution
from repro.mgba.metrics import mse, pass_ratio
from repro.mgba.problem import MGBAProblem, build_problem
from repro.mgba.selection import per_endpoint_topk
from repro.mgba.solvers import (
    SolverResult,
    solve_direct,
    solve_gd,
    solve_scg,
    solve_with_row_sampling,
)
from repro.obs.metrics import counter, gauge
from repro.obs.trace import Span, span
from repro.pba.engine import PBAEngine
from repro.pba.enumerate import enumerate_worst_paths
from repro.pba.paths import TimingPath
from repro.timing.sta import STAEngine

_SOLVERS = {
    "gd": lambda problem, cfg: solve_gd(problem),
    "scg": lambda problem, cfg: solve_scg(problem, seed=cfg.seed),
    "scg+rs": lambda problem, cfg: solve_with_row_sampling(
        problem, seed=cfg.seed
    ),
    "direct": lambda problem, cfg: solve_direct(problem),
}


@dataclass(frozen=True)
class MGBAConfig:
    """Knobs of the mGBA flow.

    ``k_per_endpoint`` and ``max_paths`` are the paper's k' = 20 and
    m' <= 5e6 (scaled down by default for laptop-sized designs).
    """

    k_per_endpoint: int = 20
    max_paths: int = 200_000
    epsilon: float = 0.05
    penalty: float = 10.0
    solver: str = "scg+rs"
    #: Golden fidelity: also re-propagate slews along each path (removes
    #: the worst-slew-propagation pessimism in addition to derate/CRPR).
    recalc_slew: bool = False
    seed: int | None = 0

    def solve(self, problem: MGBAProblem) -> SolverResult:
        """Run the configured solver on a problem."""
        try:
            runner = _SOLVERS[self.solver]
        except KeyError:
            raise SolverError(
                f"unknown solver {self.solver!r}; "
                f"choose from {sorted(_SOLVERS)}"
            ) from None
        return runner(problem, self)


@dataclass
class MGBAResult:
    """Everything produced by one mGBA flow invocation.

    The runtime breakdown lives in ``stages`` — one
    :class:`~repro.obs.trace.Span` per flow stage (``"apply"`` is
    absent when ``run(apply=False)``); the ``seconds_*`` properties
    are derived views kept for backward compatibility.
    """

    paths: list[TimingPath]
    problem: MGBAProblem
    solution: SolverResult
    weights: dict[str, float]
    mse_gba: float
    mse_mgba: float
    pass_ratio_gba: float
    pass_ratio_mgba: float
    stages: dict[str, Span] = field(default_factory=dict)
    #: The enclosing ``mgba.run`` span (stage spans are its children).
    run_span: Span | None = None

    def stage_seconds(self, name: str) -> float:
        """Wall seconds of one stage (0.0 when the stage did not run)."""
        stage = self.stages.get(name)
        return stage.duration if stage is not None else 0.0

    @property
    def seconds_select(self) -> float:
        return self.stage_seconds("select")

    @property
    def seconds_pba(self) -> float:
        return self.stage_seconds("pba")

    @property
    def seconds_solve(self) -> float:
        return self.stage_seconds("solve")

    @property
    def seconds_apply(self) -> float:
        return self.stage_seconds("apply")

    @property
    def total_seconds(self) -> float:
        """Wall clock of the whole flow: the sum of its stage spans."""
        return sum(stage.duration for stage in self.stages.values())

    @property
    def pass_ratio_improvement(self) -> float:
        """Absolute pass-ratio improvement (Table 3's last column)."""
        return self.pass_ratio_mgba - self.pass_ratio_gba


class MGBAFlow:
    """Orchestrates select -> golden -> fit -> update on one engine.

    Configurable two ways (they are equivalent): the legacy
    ``MGBAFlow(MGBAConfig(...))`` form, or the unified
    ``MGBAFlow(context=RunContext(...))`` form the facade and service
    use.  When both are given the explicit ``config`` wins for fit
    knobs.  ``solve_cache`` is an optional duck-typed hook with
    ``lookup(problem, config)`` / ``store(problem, config, solution)``
    — the service passes its content-addressed ``x*`` cache here so
    identical problems never pay for a second solve.
    """

    def __init__(self, config: MGBAConfig | None = None,
                 context: "RunContext | None" = None,
                 solve_cache=None):
        if config is None:
            config = (
                context.mgba_config() if context is not None
                else MGBAConfig()
            )
        self.config = config
        self.solve_cache = solve_cache

    def select_paths(self, pba: PBAEngine) -> list[TimingPath]:
        """Per-endpoint top-k' critical path selection.

        Walks ``pba``'s mirrors, so the golden analysis of the selected
        paths reuses the same read of the graph.
        """
        raw = enumerate_worst_paths(
            pba.sta.graph, pba.sta.state,
            k_per_endpoint=self.config.k_per_endpoint,
            max_total=self.config.max_paths,
            mirrors=pba.path_mirrors(),
        )
        return per_endpoint_topk(
            raw, self.config.k_per_endpoint, self.config.max_paths
        )

    def run(self, engine: STAEngine, apply: bool = True) -> MGBAResult:
        """Execute the full flow; installs weights unless ``apply=False``.

        A weighted engine is cleared and re-timed first; a clean one is
        only brought up to date (``ensure_timing``), since a refresh
        would recompute the arrays it already holds.
        """
        if engine.weights:
            engine.clear_gate_weights()
            engine.update_timing()
        else:
            engine.ensure_timing()

        stages: dict[str, Span] = {}
        with span("mgba.run", solver=self.config.solver) as run_span:
            pba = PBAEngine(engine, recalc_slew=self.config.recalc_slew)
            with span("mgba.select") as stages["select"]:
                paths = self.select_paths(pba)
            stages["select"].set(paths=len(paths))
            counter("paths.selected").inc(len(paths))
            if not paths:
                raise SolverError(
                    "no timing paths selected; is the design constrained?"
                )
            with span("mgba.pba") as stages["pba"]:
                pba.analyze(paths)
                # Never fit against false paths: their "golden" slack is
                # a fiction (the path cannot happen), and set_false_path
                # is exactly the launch-pair information GBA lacks.
                paths = [p for p in paths if not p.is_false]
            if not paths:
                raise SolverError("every selected path is a false path")
            with span("mgba.solve", solver=self.config.solver) \
                    as stages["solve"]:
                problem = build_problem(
                    paths,
                    epsilon=self.config.epsilon,
                    penalty=self.config.penalty,
                )
                solution = None
                cached_solve = False
                if self.solve_cache is not None:
                    solution = self.solve_cache.lookup(problem, self.config)
                    cached_solve = solution is not None
                if solution is None:
                    solution = self.config.solve(problem)
                    if self.solve_cache is not None:
                        self.solve_cache.store(
                            problem, self.config, solution
                        )
            stages["solve"].set(
                rows=problem.num_paths,
                gates=problem.num_gates,
                iterations=solution.iterations,
                cached=cached_solve,
            )
            weights = weights_from_solution(problem, solution.x)
            corrected = problem.corrected_slacks(solution.x)
            if apply:
                with span("mgba.apply") as stages["apply"]:
                    engine.set_gate_weights(weights)
                    engine.update_timing()
        result = MGBAResult(
            paths=paths,
            problem=problem,
            solution=solution,
            weights=weights,
            mse_gba=mse(problem.s_gba, problem.s_pba),
            mse_mgba=mse(corrected, problem.s_pba),
            pass_ratio_gba=pass_ratio(problem.s_gba, problem.s_pba),
            pass_ratio_mgba=pass_ratio(corrected, problem.s_pba),
            stages=stages,
            run_span=run_span,
        )
        gauge("mgba.pass_ratio").set(result.pass_ratio_mgba)
        gauge("mgba.mse").set(result.mse_mgba)
        return result


def corrected_path_slacks(
    engine: STAEngine, paths: "list[TimingPath]"
) -> np.ndarray:
    """mGBA slack of given paths under the engine's installed weights.

    Re-walks each path summing the *currently* derated arc delays — the
    graph-level equivalent of ``problem.corrected_slacks`` that also
    reflects weight clamping and pruning.
    """
    from repro.timing.propagation import effective_late
    from repro.timing.slack import endpoint_clock_map, setup_required

    engine.ensure_timing()
    clock_map = endpoint_clock_map(engine.graph, engine.constraints)
    out = np.empty(len(paths))
    for i, path in enumerate(paths):
        info = engine.graph.endpoints[path.endpoint]
        required, _ = setup_required(
            engine.graph, engine.state, info, clock_map[path.endpoint],
            engine.constraints,
        )
        arrival = float(engine.state.arrival_late[path.launch])
        for edge_id in path.edges:
            arrival += effective_late(engine.state, engine.graph.edge(edge_id))
        out[i] = required - arrival
    return out
