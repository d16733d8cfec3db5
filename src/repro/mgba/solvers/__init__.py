"""Optimization solvers for the mGBA quadratic program.

Three solvers matching the paper's Table 4 columns plus a direct one:

* :func:`~repro.mgba.solvers.gd.solve_gd` — full-batch gradient descent
  (the "GD + w/o RS" baseline).
* :func:`~repro.mgba.solvers.scg.solve_scg` — Algorithm 2: stochastic
  conjugate gradient with Kaczmarz row sampling ("SCG + w/o RS").
* :func:`~repro.mgba.solvers.sampling.solve_with_row_sampling` —
  Algorithm 1 wrapped around SCG ("SCG + RS").
* :func:`~repro.mgba.solvers.direct.solve_direct` — the exact
  minimizer of the damped penalty objective inside the weight clamp's
  box (projected Newton on a sparse SuperLU factorization); the flow's
  default on small problems (``solver="auto"``) and the ground-truth
  reference for Fig. 3/4.
"""

from repro.mgba.solvers.base import SolverResult
from repro.mgba.solvers.gd import solve_gd
from repro.mgba.solvers.scg import solve_scg
from repro.mgba.solvers.sampling import solve_with_row_sampling
from repro.mgba.solvers.direct import solve_direct

__all__ = [
    "SolverResult",
    "solve_gd",
    "solve_scg",
    "solve_with_row_sampling",
    "solve_direct",
]
