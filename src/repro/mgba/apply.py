"""Applying a solved correction back to the timing graph.

The solution ``x`` lives in correction space (``x_j ~ 0`` means "keep
the GBA derate of gate j"); the engine consumes multiplicative weights
``1 + x_j`` on the gate's GBA derate.  Weights are clamped so a noisy
solver component can never produce a non-physical derate:

* the effective derate never drops below a floor fraction of the GBA
  one (PBA can never be faster than the best table corner);
* the weight may exceed 1: the least-squares fit legitimately *adds*
  delay on some gates to compensate removal on gates they share paths
  with — only the path-level epsilon constraint bounds optimism, not
  the per-gate direction.  A generous ceiling merely guards against a
  diverged solver component.
"""

from __future__ import annotations

import numpy as np

from repro.mgba.problem import MGBAProblem

#: The clamp of a weight ``1 + x``: the effective derate keeps at least
#: this fraction of the GBA one, and at most this multiple of it.  The
#: direct solver's box is ``[floor - 1, ceiling - 1]``, read from here.
DERATE_FLOOR_RATIO = 0.3
DERATE_CEILING_RATIO = 3.0


def weights_from_solution(
    problem: MGBAProblem,
    x: np.ndarray,
    derate_floor_ratio: float = DERATE_FLOOR_RATIO,
    derate_ceiling_ratio: float = DERATE_CEILING_RATIO,
    prune_below: float = 1e-6,
) -> dict[str, float]:
    """Turn a solution vector into the engine's per-gate weight map.

    ``derate_floor_ratio`` bounds how far a derate may shrink (0.3 means
    the corrected derate keeps at least 30% of the GBA one — generous,
    since table corners rarely differ by 2x); ``derate_ceiling_ratio``
    symmetrically caps runaway positive corrections.  Entries within
    ``prune_below`` of zero are dropped: they are exactly the ~96% of
    near-zero components Fig. 3 shows, and omitting them keeps the
    weight map as sparse as the solution.
    """
    weights: dict[str, float] = {}
    for gate, correction in zip(problem.gates, np.asarray(x, dtype=float)):
        if abs(correction) < prune_below:
            continue
        weight = 1.0 + correction
        weight = min(weight, derate_ceiling_ratio)
        weight = max(weight, derate_floor_ratio)
        weights[gate] = weight
    return weights


def solution_sparsity(x: np.ndarray, window: float = 0.01) -> float:
    """Fraction of entries inside [-window, window] (Fig. 3's 95.9%)."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return 1.0
    return float(np.mean(np.abs(arr) <= window))
