"""The SCG iteration as it was before the lean rewrite (test oracle).

``ReferenceProblem`` restores ``np.add.at`` accumulation in
``row_gradient`` and the two-matvec ``objective``;
``reference_solve_scg`` and ``reference_solve_with_row_sampling`` take
norms with ``np.linalg.norm``.  ``test_scg_oracle.py`` requires the
production solvers to return the same ``x``, iteration counts,
objective and history, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.mgba.problem import MGBAProblem
from repro.mgba.solvers.base import SolverResult, Stopwatch
from repro.mgba.solvers.scg import kaczmarz_probabilities
from repro.obs.metrics import counter, histogram
from repro.obs.telemetry import IterationStats, iteration_callbacks
from repro.utils.rng import make_rng


def reference_relative_change(current, previous, floor=1e-12) -> float:
    denom = float(np.linalg.norm(previous))
    if denom < floor:
        return float("inf")
    return float(np.linalg.norm(current - previous) / denom)


class ReferenceProblem(MGBAProblem):
    """An :class:`MGBAProblem` with the pre-rewrite hot methods."""

    @classmethod
    def of(cls, problem: MGBAProblem) -> "ReferenceProblem":
        return cls(
            matrix=problem.matrix, rhs=problem.rhs, s_gba=problem.s_gba,
            s_pba=problem.s_pba, gates=problem.gates,
            epsilon=problem.epsilon, penalty=problem.penalty,
        )

    def subproblem(self, rows):
        return ReferenceProblem.of(super().subproblem(rows))

    def objective(self, x: np.ndarray) -> float:
        res = self.residual(x)
        vio = self.violation(x)
        return float(res @ res + self.penalty * (vio @ vio))

    def row_gradient(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        n_rows = len(rows)
        indptr = self.matrix.indptr
        starts = indptr[rows].astype(np.int64)
        counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
        total = int(counts.sum())
        seg = np.zeros(n_rows, dtype=np.int64)
        if n_rows:
            np.cumsum(counts[:-1], out=seg[1:])
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(seg, counts)
            + np.repeat(starts, counts)
        )
        cols = self.matrix.indices[flat]
        vals = self.matrix.data[flat]
        # ax = (sub @ x): per-row sequential sum in storage order (rows
        # with no entries stay exactly 0.0).
        products = vals * x[cols]
        ax = np.zeros(n_rows)
        np.add.at(ax, np.repeat(np.arange(n_rows), counts), products)
        # grad = 2 (sub^T r): scatter in data order, like csc_matvec.
        residual = ax - self.rhs[rows]
        acc = np.zeros(self.num_gates)
        np.add.at(acc, cols, vals * np.repeat(residual, counts))
        grad = 2.0 * acc
        lower = self._lower[rows]
        vio_mask = ax < lower
        if np.any(vio_mask):
            vio = ax[vio_mask] - lower[vio_mask]
            keep = np.repeat(vio_mask, counts)
            acc_vio = np.zeros(self.num_gates)
            np.add.at(
                acc_vio, cols[keep],
                vals[keep] * np.repeat(vio, counts[vio_mask]),
            )
            grad += 2.0 * self.penalty * acc_vio
        scale = self.num_paths / max(n_rows, 1)
        return np.asarray(grad).ravel() * scale


def reference_solve_scg(
    problem: MGBAProblem,
    x0: np.ndarray | None = None,
    rows_fraction: float = 0.02,
    step: float = 0.02,
    eps: float = 1e-3,
    max_iter: int = 4000,
    step_decay: float = 0.01,
    check_window: int = 5,
    iteration_offset: int = 0,
    objective_every: int = 25,
    stall_checks: int = 8,
    stall_tol: float = 1e-3,
    seed=None,
    on_iteration=None,
) -> SolverResult:
    watch = Stopwatch()
    rng = make_rng(seed)
    callbacks = iteration_callbacks(on_iteration)
    m = problem.num_paths
    k_rows = max(1, int(round(rows_fraction * m)))
    # Eq. (11)'s distribution is fixed for a given A, so build the
    # cumulative table once; each iteration then samples k'' rows with
    # one uniform draw + searchsorted instead of an O(m) choice() call.
    probabilities = kaczmarz_probabilities(problem)
    cumulative = np.cumsum(probabilities)
    cumulative[-1] = 1.0
    x = np.zeros(problem.num_gates) if x0 is None else x0.astype(float).copy()
    grad_prev = np.zeros_like(x)
    direction = np.zeros_like(x)
    history: list[float] = []
    history_iters: list[int] = []
    converged = False
    small_steps = 0
    iteration = 0
    best_objective = problem.objective(x)
    best_x = x.copy()
    grad_norm_hist = histogram("scg.grad_norm")
    for iteration in range(1, max_iter + 1):
        rows = np.searchsorted(cumulative, rng.random(k_rows), side="right")
        grad = problem.row_gradient(x, rows)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            converged = True
            break
        grad = grad / norm  # line 6: normalize g_k
        prev_norm_sq = float(grad_prev @ grad_prev)
        if prev_norm_sq > 0.0:
            beta = float(grad @ (grad - grad_prev)) / prev_norm_sq
            beta = max(beta, 0.0)  # PR+ restart keeps d a descent direction
        else:
            beta = 0.0
        direction = -grad + beta * direction
        direction_norm = float(np.linalg.norm(direction))
        if direction_norm == 0.0:
            converged = True
            break
        decay_clock = iteration_offset + iteration
        alpha = step / (direction_norm * (1.0 + step_decay * decay_clock))
        x_next = x + alpha * direction
        change = reference_relative_change(x_next, x)
        x = x_next
        grad_prev = grad
        stalled = False
        sampled: float | None = None
        if iteration % objective_every == 0:
            sampled = current = problem.objective(x)
            history.append(current)
            history_iters.append(iteration)
            grad_norm_hist.observe(norm)
            if current < best_objective:
                best_objective = current
                best_x = x.copy()
            if len(history) > stall_checks:
                recent_best = min(history[-stall_checks:])
                earlier_best = min(history[:-stall_checks])
                if recent_best > earlier_best * (1.0 - stall_tol):
                    stalled = True
        if callbacks:
            stats = IterationStats(
                solver="scg", iteration=decay_clock, grad_norm=norm,
                step=alpha, beta=beta, objective=sampled,
                x_change=change, rows=k_rows,
            )
            for callback in callbacks:
                callback(stats)
        if stalled:
            converged = True
            break
        if change < eps:
            small_steps += 1
            if small_steps >= check_window:
                converged = True
                break
        else:
            small_steps = 0
    final = problem.objective(x)
    if final > best_objective:
        # Return the best sampled iterate, not wherever the jitter
        # happened to stop.
        x = best_x
        final = best_objective
    runtime = watch.elapsed()
    counter("solver.runs").inc()
    counter("solver.iterations").inc(iteration)
    histogram("solver.solve_seconds").observe(runtime)
    return SolverResult(
        x=x,
        solver="scg",
        iterations=iteration,
        converged=converged,
        runtime=runtime,
        objective=final,
        history=history,
        history_iters=history_iters,
        extras={"rows_per_iteration": k_rows},
    )


def reference_solve_with_row_sampling(
    problem: MGBAProblem,
    r0: float = 1e-5,
    eps_u: float = 0.1,
    min_rows: int = 64,
    max_rounds: int = 32,
    seed=None,
    scg_kwargs: dict | None = None,
    on_iteration=None,
) -> SolverResult:
    watch = Stopwatch()
    rng = make_rng(seed)
    scg_kwargs = dict(scg_kwargs or {})
    scg_kwargs.setdefault("seed", rng)
    if on_iteration is not None:
        scg_kwargs.setdefault("on_iteration", on_iteration)
    # Inner rounds are probes, not final answers: sample the objective
    # often, call a stall early, and cap the iteration budget — the
    # doubling schedule (not any single round) carries convergence.
    scg_kwargs.setdefault("objective_every", 10)
    scg_kwargs.setdefault("stall_checks", 5)
    scg_kwargs.setdefault("stall_tol", 2e-3)
    scg_kwargs.setdefault("max_iter", 1200)
    m = problem.num_paths
    permutation = rng.permutation(m)
    ratio = r0
    x = np.zeros(problem.num_gates)
    rounds: list[dict] = []
    history: list[float] = []
    history_iters: list[int] = []
    total_iterations = 0
    converged = False
    for _ in range(max_rounds):
        rows_wanted = min(m, max(min_rows, int(round(ratio * m))))
        reduced = problem.subproblem(permutation[:rows_wanted])
        # Fresh step schedule per round: the enlarged problem must be
        # able to move the warm-started iterate; the objective-stall
        # stop inside SCG keeps each round short.
        inner = reference_solve_scg(reduced, x0=x, **scg_kwargs)
        total_iterations += inner.iterations
        change = reference_relative_change(inner.x, x)
        x = inner.x
        objective = problem.objective(x)
        history.append(objective)
        # x-axis for convergence plots: cumulative inner iterations
        # spent when this full-problem objective was sampled.
        history_iters.append(total_iterations)
        # The paper's row-count condition: m'' must exceed the number
        # of nonzero components of x*, else the reduced system is
        # underdetermined and its solution overfits the sampled rows.
        # x* is unknown, so the current iterate's support estimates it.
        support = int(np.count_nonzero(np.abs(x) > 1e-3))
        rounds.append({
            "rows": rows_wanted,
            "ratio": ratio,
            "change": change,
            "support": support,
            "objective": objective,
        })
        enough_rows = rows_wanted >= 2 * support
        if change < eps_u and enough_rows:
            converged = True
            break
        if rows_wanted >= m:
            # The whole problem has been solved; nothing left to double.
            converged = True
            break
        # Double the *row count*, not the nominal ratio alone — when the
        # min_rows floor is in force the paper's pure ratio-doubling
        # would wastefully re-run identical round sizes.
        ratio = max(ratio * 2.0, 2.0 * rows_wanted / m)
    runtime = watch.elapsed()
    counter("sampling.rounds").inc(len(rounds))
    histogram("sampling.round_rows").observe(
        rounds[-1]["rows"] if rounds else 0
    )
    return SolverResult(
        x=x,
        solver="scg+rs",
        iterations=total_iterations,
        converged=converged,
        runtime=runtime,
        objective=problem.objective(x),
        history=history,
        history_iters=history_iters,
        extras={"rounds": rounds},
    )
