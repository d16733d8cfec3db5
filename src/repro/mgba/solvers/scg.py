"""Algorithm 2: stochastic conjugate gradient with Kaczmarz row sampling.

Faithful to the paper's listing:

1. each row's selection probability follows its squared Euclidean norm
   (Eq. 11, the randomized-Kaczmarz distribution [14]);
2. k'' rows (default 2% of the rows) are drawn per iteration and the
   gradient is evaluated on that subset only;
3. the gradient is normalized, combined into a Polak-Ribiere conjugate
   direction, and applied with the dynamic step ``alpha_k = s/||d_k||``;
4. iteration stops when the relative movement of x drops under eps_c.

One engineering deviation, documented in EXPERIMENTS.md: the paper's
fixed s cannot ever satisfy the relative-movement test when ||x*|| is
small (the iterate keeps jittering by s), so the step decays
harmonically (``s / (1 + decay*k)``) — the schedule the cited learning
theory of randomized Kaczmarz [15] actually requires for convergence.

The rows of :data:`ROW_BLOCK` iterations are drawn at once (one
uniform draw and one ``searchsorted``) and their x-independent matrix
data gathered once (:meth:`~repro.mgba.problem.MGBAProblem.gather_rows`);
each iteration then reads its slice.  A draw of ``n`` uniforms reads the
generator's stream exactly as ``n`` one-at-a-time draws would, and a run
that stops inside a block rewinds the generator to the rows it used, so
the stream a shared generator hands on, the iterates and the stopping
decisions are those of a per-iteration draw, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mgba.problem import MGBAProblem
from repro.mgba.solvers.base import SolverResult, Stopwatch, relative_change
from repro.obs.metrics import counter, histogram
from repro.obs.telemetry import IterationStats, iteration_callbacks
from repro.utils.rng import make_rng

#: Iterations whose rows are drawn and gathered at once.  Longer blocks
#: gather rows a stopping run never uses; shorter ones pay the per-draw
#: overhead the block exists to spread.
ROW_BLOCK = 32


def kaczmarz_probabilities(problem: MGBAProblem) -> np.ndarray:
    """Row-selection distribution of Eq. (11): p_j ~ ||a_j||^2."""
    norms = problem.row_norms_squared()
    total = norms.sum()
    if total <= 0:
        return np.full(problem.num_paths, 1.0 / max(problem.num_paths, 1))
    return norms / total


def solve_scg(
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
    """Run Algorithm 2 on a problem.

    ``rows_fraction`` is the paper's k'' = 2% of rows; ``step`` its
    s = 0.02; ``eps`` its eps_c = 1e-3.  ``check_window`` smooths the
    stochastic convergence test: the movement criterion must hold for
    this many consecutive iterations (a single lucky small step on a
    noisy gradient is not convergence).  ``iteration_offset`` continues
    the step-decay schedule of an earlier run.

    A secondary stop handles the regime the paper's x-movement test
    cannot see: with a still-large stochastic step the iterate jitters
    around the optimum without its *objective* improving.  Every
    ``objective_every`` iterations the true objective is sampled; when
    the best of the last ``stall_checks`` samples no longer improves on
    the best before them by ``stall_tol`` (relative), the run stops.

    ``on_iteration`` (plus any process-wide subscriber from
    :mod:`repro.obs.telemetry`) receives one
    :class:`~repro.obs.telemetry.IterationStats` per iteration.
    Telemetry only *reads* values the solver already computed — it
    never touches the RNG stream, so an instrumented run returns a
    bit-identical ``x`` for the same seed.
    """
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
    # Bound methods: the loop runs ~10^4 times with microsecond bodies.
    draw, sample = rng.random, cumulative.searchsorted
    gradient = problem.sample_gradient
    block_first = block_last = 0  # iterations of the drawn block
    for iteration in range(1, max_iter + 1):
        if iteration > block_last:
            block_state = rng.bit_generator.state
            block_first = iteration
            block_last = min(iteration + ROW_BLOCK - 1, max_iter)
            block = block_last - block_first + 1
            cols, vals, entry_row, rhs, lower = problem.gather_rows(
                sample(draw(block * k_rows), side="right")
            )
            # Entry range of each iteration, and each entry's row
            # within its iteration's sample.
            bounds = entry_row.searchsorted(
                np.arange(0, (block + 1) * k_rows, k_rows)
            ).tolist()
            entry_row = entry_row % k_rows
        b = iteration - block_first
        lo, hi = bounds[b], bounds[b + 1]
        first_row = b * k_rows
        grad = gradient(
            x, cols[lo:hi], vals[lo:hi], entry_row[lo:hi],
            rhs[first_row:first_row + k_rows],
            lower[first_row:first_row + k_rows],
        )
        norm = math.sqrt(grad @ grad)
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
        direction = beta * direction - grad
        direction_norm = math.sqrt(direction @ direction)
        if direction_norm == 0.0:
            converged = True
            break
        decay_clock = iteration_offset + iteration
        alpha = step / (direction_norm * (1.0 + step_decay * decay_clock))
        x_next = x + alpha * direction
        change = relative_change(x_next, x)
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
    if iteration < block_last:
        # Hand the generator on as if only the used rows were drawn.
        rng.bit_generator.state = block_state
        draw((iteration - block_first + 1) * k_rows)
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
