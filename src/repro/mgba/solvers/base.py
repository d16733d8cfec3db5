"""Shared solver plumbing: results, convergence bookkeeping."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SolverResult:
    """Outcome of one solver run.

    ``history`` records the objective samples so benches can plot
    convergence, and ``history_iters`` the iteration index each sample
    was taken at (SCG samples only every ``objective_every`` iterations,
    so the x-axis is *not* ``range(len(history))``); ``extras`` carries
    solver-specific data (e.g. the row counts of Algorithm 1's doubling
    schedule).
    """

    x: np.ndarray
    solver: str
    iterations: int
    converged: bool
    runtime: float
    objective: float
    history: list[float] = field(default_factory=list)
    history_iters: list[int] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def convergence_curve(self) -> "list[tuple[int, float]]":
        """(iteration, objective) pairs — the plottable history."""
        return list(zip(self.history_iters, self.history))


class Stopwatch:
    """Tiny wall-clock helper so every solver reports runtime the same way."""

    def __init__(self):
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start


def relative_change(current: np.ndarray, previous: np.ndarray,
                    floor: float = 1e-12) -> float:
    """||x_k - x_{k-1}|| / ||x_{k-1}||, guarded near x = 0.

    Both Algorithm 1 and Algorithm 2 stop on this quantity; at the very
    first steps ``x`` is still ~0 and the ratio is meaningless, so the
    guard returns +inf until the iterate has any magnitude.  Norms are
    ``sqrt(v @ v)``: what ``np.linalg.norm`` computes for a 1-D float64
    vector, without its per-call overhead.
    """
    denom = math.sqrt(previous @ previous)
    if denom < floor:
        return float("inf")
    step = current - previous
    return math.sqrt(step @ step) / denom
