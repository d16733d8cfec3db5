"""Design-suite fan-out: evaluate many designs on many workers.

Suite evaluation is a *service* operation — it is the coarsest batch
axis the :class:`~repro.service.engine.TimingService` exposes as the
``evaluate`` query, and it belongs next to the other batched query
machinery rather than inside the executor substrate.

The D1-D10 suite is the coarsest parallel axis in the system — each
design's build + STA + (optionally) mGBA fit is completely independent
of every other design's, and a single evaluation is seconds of pure
Python, so the process backend pays off even at suite scale.  Workers
receive only the *design name* (a few bytes to pickle) and rebuild the
design from its deterministic spec inside the child, which keeps the
fan-out cheap no matter how large ``REPRO_SUITE_SCALE`` grows.

Everything here is a module-level function precisely so the process
backend can pickle it (see ``docs/parallelism.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.parallel.executor import Executor, default_executor

if TYPE_CHECKING:  # pragma: no cover
    from repro.context import RunContext
    from repro.timing.sta import STAEngine


@dataclass(frozen=True)
class DesignReport:
    """One design's evaluation record (picklable, deterministic fields).

    ``seconds`` is the only field allowed to differ between serial and
    parallel runs; everything else is pure function of the design spec
    and the seeds, which is what the parallel-equivalence checks (tests
    and the ``bench-smoke`` CI gate) compare.
    """

    name: str
    gates: int
    flops: int
    nets: int
    endpoints: int
    period: float
    wns: float
    tns: float
    violations: int
    #: mGBA fit results; NaN / 0 when the evaluation ran STA only.
    mse_gba: float = float("nan")
    mse_mgba: float = float("nan")
    pass_ratio_gba: float = 0.0
    pass_ratio_mgba: float = 0.0
    solver_iterations: int = 0
    seconds: float = 0.0

    def comparable(self) -> tuple:
        """Every deterministic field, for serial-vs-parallel equality.

        NaN placeholders (STA-only runs) are mapped to None so the
        tuple compares equal to itself — ``nan != nan`` would otherwise
        make every STA-only report "diverge" from its identical twin.
        """
        def scrub(value: float) -> "float | None":
            return None if value != value else value

        return (
            self.name, self.gates, self.flops, self.nets, self.endpoints,
            self.period, self.wns, self.tns, self.violations,
            scrub(self.mse_gba), scrub(self.mse_mgba),
            self.pass_ratio_gba, self.pass_ratio_mgba,
            self.solver_iterations,
        )

    def to_dict(self) -> dict:
        """Plain-dict view (the JSONL batch protocol's result payload)."""
        from dataclasses import asdict

        return asdict(self)


def evaluate_design(name: str, mgba: bool = False, k_per_endpoint: int = 20,
                    solver: str = "auto", seed: int = 0) -> DesignReport:
    """Build one suite design by name and report it (:func:`design_report`).

    Deterministic given (name, knobs): the design generator and every
    solver are seeded, so two runs — in one process or many — produce
    identical reports up to the ``seconds`` field.
    """
    from repro.designs.suite import build_design
    from repro.timing.sta import STAEngine

    start = time.perf_counter()
    design = build_design(name)
    engine = STAEngine(
        design.netlist, design.constraints,
        design.placement, design.sta_config,
    )
    return design_report(
        engine, name, mgba=mgba, k_per_endpoint=k_per_endpoint,
        solver=solver, seed=seed, start=start,
    )


def design_report(engine: "STAEngine", name: str, mgba: bool = False,
                  k_per_endpoint: int = 20, solver: str = "auto",
                  seed: int = 0, start: "float | None" = None) \
        -> DesignReport:
    """One design's report from its engine: STA, optionally the mGBA fit.

    The fit runs with ``apply=False``, since no report field depends on
    installed weights; it still clears any weights the engine holds
    (the fit is defined against plain GBA), so a weighted engine comes
    back unweighted.  ``seconds`` counts from ``start`` (default: now).
    """
    if start is None:
        start = time.perf_counter()
    engine.ensure_timing()
    stats = engine.netlist.stats()
    summary = engine.summary()
    period = min(c.period for c in engine.constraints.clocks.values())
    fields = {
        "mse_gba": float("nan"), "mse_mgba": float("nan"),
        "pass_ratio_gba": 0.0, "pass_ratio_mgba": 0.0,
        "solver_iterations": 0,
    }
    if mgba:
        from repro.mgba.flow import MGBAConfig, MGBAFlow

        result = MGBAFlow(MGBAConfig(
            k_per_endpoint=k_per_endpoint, solver=solver, seed=seed,
        )).run(engine, apply=False)
        fields = {
            "mse_gba": result.mse_gba,
            "mse_mgba": result.mse_mgba,
            "pass_ratio_gba": result.pass_ratio_gba,
            "pass_ratio_mgba": result.pass_ratio_mgba,
            "solver_iterations": result.solution.iterations,
        }
    return DesignReport(
        name=name,
        gates=stats["gates"],
        flops=stats["flops"],
        nets=stats["nets"],
        endpoints=summary.endpoints,
        period=period,
        wns=summary.wns,
        tns=summary.tns,
        violations=summary.violations,
        seconds=time.perf_counter() - start,
        **fields,
    )


def evaluate_suite(names: "list[str] | None" = None, *,
                   mgba: bool = False,
                   k_per_endpoint: int = 20,
                   solver: str = "auto",
                   seed: int = 0,
                   executor: "Executor | None" = None,
                   context: "RunContext | None" = None) \
        -> "list[DesignReport]":
    """Evaluate suite designs across workers; reports in input order.

    Each design is one task, so uneven design costs (D1 is ~10x
    cheaper than D10) balance across the pool.

    A :class:`~repro.context.RunContext` supplies the executor (and
    wins over the environment); the explicit ``executor`` argument
    wins over both.
    """
    from repro.designs.suite import design_names

    chosen = list(names) if names is not None else design_names()
    if executor is None:
        executor = (
            context.executor() if context is not None
            else default_executor()
        )
    job = partial(
        evaluate_design, mgba=mgba, k_per_endpoint=k_per_endpoint,
        solver=solver, seed=seed,
    )
    with span(
        "suite.evaluate",
        designs=len(chosen), mgba=mgba,
        backend=executor.backend, workers=executor.workers,
    ):
        reports = executor.map(job, chosen, label="suite.evaluate")
    counter("suite.designs_evaluated").inc(len(reports))
    return reports
