"""Direct solver: bounded projected Newton on the damped penalty objective.

Minimizes, exactly and inside the weight clamp's box,

    f(x) = ||Ax - b||^2 + w ||max(l - Ax, 0)||^2 + damp^2 ||x||^2 ,
    floor - 1 <= x <= ceiling - 1 ,

where ``floor`` and ``ceiling`` are the derate ratios
:func:`~repro.mgba.apply.weights_from_solution` clamps a weight to, so
the solution is never clamped after the fit and the installed weights
reproduce the model's slacks.  ``f`` is a convex piecewise quadratic:
on each set V of violated rows ((Ax)_i < l_i) its Hessian is
``2 (A^T A + w A_V^T A_V + damp^2 I)``.  Each step takes the Newton
direction on the free columns (all but those at a bound whose gradient
points out of the box), with a sparse Gram matrix factored by SuperLU,
and an Armijo backtrack along the projection onto the box.  Once V and
the active bounds settle, a full step lands on the minimizer, so the
solve ends after a handful of steps.

Every operation is a sparse product, a SuperLU factorization or a short
vector reduction: nothing calls a multithreaded dense BLAS kernel, so
``x`` is the same bytes at any BLAS thread count.

Fits small problems in the mGBA flow (``solver="auto"`` up to
:data:`~repro.mgba.flow.AUTO_DIRECT_MAX_GRAM_MULTIPLIES`) and is the
ground truth for Fig. 3 (the sparsity histogram of x*), Fig. 4
(accuracy vs sampled rows) and the solver tests.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.mgba.apply import DERATE_CEILING_RATIO, DERATE_FLOOR_RATIO
from repro.mgba.problem import MGBAProblem
from repro.mgba.solvers.base import SolverResult, Stopwatch

#: The box of x: a correction may move a weight ``1 + x`` anywhere the
#: clamp in ``weights_from_solution`` lets it go, and no further.
X_LOWER = DERATE_FLOOR_RATIO - 1.0
X_UPPER = DERATE_CEILING_RATIO - 1.0

#: Armijo sufficient-decrease fraction and the shortest step tried.
_ARMIJO = 1e-4
_MIN_STEP = 2.0 ** -40
#: The solve stops once the Newton direction moves no component of x
#: by more than this, or after this many Newton steps.
_TOL = 1e-6
_MAX_STEPS = 100


def solve_direct(problem: MGBAProblem, damp: float = 1.0) -> SolverResult:
    """Projected-Newton minimizer of the damped, boxed penalty objective.

    ``damp`` adds a Tikhonov term that regularizes the path matrix —
    gates sharing all their fitted paths produce near-identical columns
    whose unregularized fit explodes into huge +/- pairs.  The default
    (1.0, against matrix entries of ~100 ps) keeps ``x`` physical and
    biased toward the sparse solution the paper observes in Fig. 3,
    and makes every Newton system positive definite.

    Starts from ``x = 0`` and stops (``converged``) when the Newton
    direction moves no component by more than ``_TOL`` or no longer
    lowers the objective in floating point, or after ``_MAX_STEPS``
    steps.  ``iterations`` counts Newton steps; ``history`` holds the
    damped objective after each, ``objective`` the problem's own
    (undamped) one, as every solver reports it.
    """
    watch = Stopwatch()
    matrix = problem.matrix.tocsr()
    rhs = problem.rhs
    lower = problem.lower_bound
    penalty = problem.penalty
    ridge = damp * damp
    n = problem.num_gates

    def damped(x: np.ndarray) -> "tuple[float, np.ndarray]":
        ax = matrix @ x
        res = ax - rhs
        vio = np.minimum(ax - lower, 0.0)
        return float(res @ res + penalty * (vio @ vio) + ridge * (x @ x)), ax

    # The Gram matrix of the piece with no violated rows; each step adds
    # its violated rows' w A_V^T A_V.
    gram_base = (
        matrix.T @ matrix + ridge * sparse.identity(n, format="csr")
    ).tocsc()
    x = np.zeros(n)
    value, ax = damped(x)
    history: list[float] = []
    converged = False
    steps = 0
    while steps < _MAX_STEPS:
        vio = np.minimum(ax - lower, 0.0)
        grad = 2.0 * (
            matrix.T @ ((ax - rhs) + penalty * vio) + ridge * x
        )
        free = ~(
            ((x <= X_LOWER) & (grad > 0.0))
            | ((x >= X_UPPER) & (grad < 0.0))
        )
        if not np.any(grad[free]):
            converged = True
            break
        violated = np.flatnonzero(vio)
        gram = gram_base
        if violated.size:
            rows = matrix[violated]
            gram = (gram_base + penalty * (rows.T @ rows)).tocsc()
        direction = _newton_direction(gram, grad, free, x)
        if direction is None or np.max(np.abs(direction)) <= _TOL:
            converged = True
            break
        steps += 1
        alpha = 1.0
        while alpha >= _MIN_STEP:
            trial = np.clip(x + alpha * direction, X_LOWER, X_UPPER)
            predicted = float(grad @ (trial - x))
            trial_value, trial_ax = damped(trial)
            if predicted < 0.0 and (
                trial_value <= value + _ARMIJO * predicted
            ):
                break
            alpha *= 0.5
        else:
            break  # no descent along the arc: report not converged
        if trial_value >= value:
            # The decrease rounds away: x is the minimizer to working
            # precision, and further steps are rounding noise.
            converged = True
            break
        x, value, ax = trial, trial_value, trial_ax
        history.append(value)
    return SolverResult(
        x=x,
        solver="direct",
        iterations=steps,
        converged=converged,
        runtime=watch.elapsed(),
        objective=problem.objective(x),
        history=history,
        history_iters=list(range(1, len(history) + 1)),
    )


def _newton_direction(gram, grad: np.ndarray, free: np.ndarray,
                      x: np.ndarray) -> "np.ndarray | None":
    """Newton direction on the free columns, zero on the others.

    A free column at a bound whose Newton component would leave the box
    is fixed and the system re-solved: the projection would clip it to
    no move, and the rest of the direction must stay a descent
    direction on its own.  Some free column always keeps a component
    along its negative gradient (``grad_F . d_F < 0``), so this ends
    with a nonzero direction, or ``None`` when no free column is left.
    """
    free = free.copy()
    while True:
        cols = np.flatnonzero(free)
        if cols.size == 0:
            return None
        sub = gram if cols.size == x.size else gram[cols][:, cols].tocsc()
        step = splu(sub).solve(-0.5 * grad[cols])
        leaving = (
            ((x[cols] <= X_LOWER) & (step < 0.0))
            | ((x[cols] >= X_UPPER) & (step > 0.0))
        )
        if not np.any(leaving):
            direction = np.zeros_like(x)
            direction[cols] = step
            return direction
        free[cols[leaving]] = False
