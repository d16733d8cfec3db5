"""RunContext — the one place run-wide knobs are resolved.

A :class:`RunContext` gathers the worker count, the parallel backend,
the fit and PBA knobs, and the cache settings into one frozen object
that is threaded through :class:`~repro.mgba.flow.MGBAFlow`,
:func:`~repro.service.suite.evaluate_suite`, the
:class:`~repro.service.engine.TimingService`, and every ``repro.api``
facade call.  The worker count and backend drive one fan-out, suite
evaluation; the service answers its other verbs in process.

Environment variables are resolved in exactly one place —
:meth:`RunContext.from_env` — into concrete values; everything
downstream reads the context, never ``os.environ``.  Code that builds
a context directly (tests, library callers) therefore gets fully
deterministic behavior regardless of the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.parallel.executor import (
    Executor,
    get_executor,
    resolve_backend,
    resolve_workers,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mgba.flow import MGBAConfig

#: Environment knobs the context resolves (see :meth:`RunContext.from_env`).
CACHE_ENV = "REPRO_CACHE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_FALSEY = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class RunContext:
    """Every run-wide knob of one timing/fit invocation, in one place.

    Attributes
    ----------
    workers / backend:
        Fan-out configuration for suite evaluation, one design per
        worker (see ``docs/parallelism.md``); every other verb runs in
        process whatever they say.  ``None`` defers to the process-wide
        default and environment at :meth:`executor` time;
        :meth:`from_env` snapshots them into concrete values instead.
    solver / seed / epsilon / penalty:
        mGBA fitting knobs (paper Eq. 5-6 and §4.1).
    k_per_endpoint / max_paths / recalc_slew:
        Path selection and golden-PBA fidelity knobs (§3.2).
    pba_k:
        Paths per endpoint for golden endpoint slacks (PBA queries).
    cache / cache_dir / cache_memory_entries / cache_disk_bytes:
        Artifact-cache configuration (see ``docs/service.md``).
    """

    workers: "int | None" = None
    backend: "str | None" = None
    solver: str = "scg+rs"
    seed: "int | None" = 0
    epsilon: float = 0.05
    penalty: float = 10.0
    k_per_endpoint: int = 20
    max_paths: int = 200_000
    recalc_slew: bool = False
    pba_k: int = 64
    cache: bool = True
    cache_dir: str = ".repro_cache"
    cache_memory_entries: int = 256
    cache_disk_bytes: int = 256 * 1024 * 1024

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, **overrides: Any) -> "RunContext":
        """Resolve every environment default into a concrete context.

        This is the *single* place ``REPRO_WORKERS``,
        ``REPRO_PARALLEL_BACKEND``, ``REPRO_CACHE``, and
        ``REPRO_CACHE_DIR`` are read for the service/facade stack;
        explicit ``overrides`` win over the environment.
        """
        resolved: dict[str, Any] = {}
        resolved["workers"] = (
            overrides.pop("workers", None)
            if "workers" in overrides else resolve_workers(None)
        )
        if resolved["workers"] is None:
            resolved["workers"] = resolve_workers(None)
        resolved["backend"] = overrides.pop("backend", None) \
            or resolve_backend(None)
        raw_cache = os.environ.get(CACHE_ENV, "")
        if raw_cache:
            resolved["cache"] = raw_cache.strip().lower() not in _FALSEY
        raw_dir = os.environ.get(CACHE_DIR_ENV, "")
        if raw_dir:
            resolved["cache_dir"] = raw_dir
        resolved.update(overrides)
        return cls(**resolved)

    def replace(self, **overrides: Any) -> "RunContext":
        """A copy with fields replaced (frozen-dataclass convenience)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    def executor(self) -> Executor:
        """The executor of the suite-evaluation fan-out."""
        return get_executor(self.workers, self.backend)

    def mgba_config(self) -> "MGBAConfig":
        """The equivalent flow config (for code that still wants one)."""
        from repro.mgba.flow import MGBAConfig

        return MGBAConfig(
            k_per_endpoint=self.k_per_endpoint,
            max_paths=self.max_paths,
            epsilon=self.epsilon,
            penalty=self.penalty,
            solver=self.solver,
            recalc_slew=self.recalc_slew,
            seed=self.seed,
        )

    def suite_fit_knobs(self) -> "dict[str, Any]":
        """The fit keywords of a suite report
        (:func:`~repro.service.suite.design_report`); an unseeded
        context fits at seed 0."""
        return {
            "k_per_endpoint": self.k_per_endpoint,
            "solver": self.solver,
            "seed": self.seed if self.seed is not None else 0,
        }

    def fit_fingerprint(self) -> "tuple[Any, ...]":
        """The fields a fitted result depends on (cache-key component).

        Deliberately excludes workers/backend/cache knobs: a fit runs
        serially inside one design whatever they say, so the same fit
        fingerprint must hit the same cached artifact at any worker
        count.
        """
        return (
            self.solver, self.seed, self.epsilon, self.penalty,
            self.k_per_endpoint, self.max_paths, self.recalc_slew,
        )
