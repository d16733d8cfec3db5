"""The stable top-level facade: one entry surface for everything.

``repro.api`` is the supported way in — the CLI subcommands, the
:class:`~repro.service.engine.TimingService`, and library callers all
route through the same six verbs::

    from repro import api

    design = api.load_design("D1")
    sta    = api.run_sta(design)          # GBA slacks + WNS/TNS
    golden = api.golden_slacks(design)    # PBA endpoint slacks
    fitres = api.fit(design)              # mGBA correction fit
    suite  = api.evaluate(["D1", "D2"])   # many designs, fanned out
    closed = api.close_timing(design)     # the optimization loop

Every verb takes an optional :class:`~repro.context.RunContext`
(parallelism, solver, epsilon knobs — resolved from the environment in
exactly one place) and returns a **frozen typed result dataclass**
whose deterministic fields support ``==`` bit-identity comparison:
two runs of the same verb on the same content produce equal results,
which is the contract the service's artifact cache is property-tested
against.

Compatibility: the exported name set below is snapshot-tested
(``tests/api/test_facade.py``); additions are fine, removals and
renames require a deprecation shim for one release (see
``docs/api.md`` for the policy).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.context import RunContext
from repro.designs.generator import Design, DesignSpec, generate_design
from repro.opt.whatif import CandidateResult, MinPeriodResult, WhatIfResult
from repro.timing.explain import DesignExplanation
from repro.timing.sta import STAEngine

__all__ = [
    "RunContext",
    "STAResult",
    "GoldenSlacksResult",
    "FitResult",
    "ClosureResult",
    "ExplainResult",
    "ScenarioSweepResult",
    "CandidateResult",
    "WhatIfResult",
    "MinPeriodResult",
    "load_design",
    "make_engine",
    "run_sta",
    "golden_slacks",
    "fit",
    "evaluate",
    "close_timing",
    "explain_slack",
    "run_scenarios",
    "what_if",
    "min_period",
]


# ----------------------------------------------------------------------
# Result types (frozen: results are facts, not workspaces)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class STAResult:
    """GBA timing of one design: per-endpoint slacks + QoR aggregate.

    ``slacks`` is (endpoint name, slack ps) in deterministic endpoint
    order.  ``seconds`` is wall time and excluded from equality — two
    results are ``==`` iff their timing content is bit-identical.
    """

    design: str
    wns: float
    tns: float
    violations: int
    endpoints: int
    slacks: "tuple[tuple[str, float], ...]"
    seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> "dict[str, Any]":
        return asdict(self)


@dataclass(frozen=True)
class GoldenSlacksResult:
    """PBA golden endpoint slacks (the expensive reference GBA bounds)."""

    design: str
    k: int
    slacks: "tuple[tuple[str, float], ...]"
    seconds: float = field(default=0.0, compare=False)

    @property
    def worst(self) -> float:
        """The design's golden WNS (+inf when every path is false)."""
        return min(
            (s for _, s in self.slacks), default=float("inf")
        )

    def to_dict(self) -> "dict[str, Any]":
        return asdict(self)


@dataclass(frozen=True)
class FitResult:
    """One mGBA fit: the correction weights and both slack views.

    ``s_gba`` / ``s_pba`` / ``s_mgba`` are the fitted paths' slack
    vectors (GBA, golden, corrected) — kept as tuples so equality is
    exact element-wise bit-identity, which the cache-transparency
    property tests rely on.
    """

    design: str
    solver: str
    iterations: int
    converged: bool
    num_paths: int
    num_gates: int
    mse_gba: float
    mse_mgba: float
    pass_ratio_gba: float
    pass_ratio_mgba: float
    weights: "tuple[tuple[str, float], ...]"
    s_gba: "tuple[float, ...]"
    s_pba: "tuple[float, ...]"
    s_mgba: "tuple[float, ...]"
    seconds: float = field(default=0.0, compare=False)

    @property
    def pass_ratio_improvement(self) -> float:
        return self.pass_ratio_mgba - self.pass_ratio_gba

    def weight_map(self) -> "dict[str, float]":
        """The weights as the dict ``STAEngine.set_gate_weights`` takes."""
        return dict(self.weights)

    def to_dict(self) -> "dict[str, Any]":
        return asdict(self)


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of the closure optimization loop on one design."""

    design: str
    use_mgba: bool
    transforms_applied: int
    transforms_tried: int
    wns_before: float
    tns_before: float
    violations_before: int
    wns_after: float
    tns_after: float
    violations_after: int
    area_after: float
    leakage_after: float
    buffers_after: int
    eco_commands: "tuple[str, ...]" = ()
    seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> "dict[str, Any]":
        return asdict(self)


@dataclass(frozen=True)
class ExplainResult:
    """Slack provenance for one endpoint or the whole design.

    ``explanation`` is the full nested
    :class:`~repro.timing.explain.DesignExplanation` record (frozen all
    the way down, so ``==`` is exact bit-identity across kernels and
    cache round-trips).  ``endpoint`` is the resolved endpoint name
    when the record was narrowed, None for a design-wide explanation.
    """

    design: str
    endpoint: "str | None"
    top_k: int
    explanation: DesignExplanation
    seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> "dict[str, Any]":
        return asdict(self)


@dataclass(frozen=True)
class ScenarioSweepResult:
    """Multi-scenario (corner/mode) signoff matrix of one design.

    ``corners`` lists (name, delay scale) in declaration order;
    ``setup``/``hold`` carry per-corner (name, WNS, TNS, violations)
    rows; ``merged`` is the per-endpoint worst setup slack across the
    matrix as (endpoint, slack, corner), worst-first — exactly how a
    multi-corner signoff report is read.  ``stacked`` records whether
    the sweep ran as one scenario-stacked kernel pass (every vector
    sweep) or as per-corner updates (scalar-oracle designs only); both
    produce bit-identical content, so ``stacked`` (like ``seconds``) is
    excluded from equality.
    """

    design: str
    corners: "tuple[tuple[str, float], ...]"
    setup: "tuple[tuple[str, float, float, int], ...]"
    hold: "tuple[tuple[str, float, float, int], ...]"
    merged: "tuple[tuple[str, float, str], ...]"
    dominant: str
    stacked: bool = field(default=True, compare=False)
    seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> "dict[str, Any]":
        return asdict(self)


# ----------------------------------------------------------------------
# Designs and engines
# ----------------------------------------------------------------------
def load_design(name: "str | DesignSpec") -> Design:
    """A fresh design bundle by suite name, ``"fig2"``, or spec.

    Suite names are D1-D10 (see ``repro-sta designs``); ``"fig2"`` is
    the paper's worked example.  A :class:`DesignSpec` generates a
    custom synthetic design.  Every call returns a fresh, mutable copy.
    """
    if isinstance(name, DesignSpec):
        return generate_design(name)
    if name in ("fig2", "paper_fig2"):
        from repro.designs.paper_example import build_fig2_design

        fig2 = build_fig2_design()
        return Design(
            name="paper_fig2",
            spec=DesignSpec(name="paper_fig2", seed=0),
            netlist=fig2.netlist,
            constraints=fig2.constraints,
            placement=None,
            sta_config=fig2.sta_config,
            derating_table=fig2.derating_table,
        )
    from repro.designs.suite import build_design

    return build_design(name)


def make_engine(design: "Design | str",
                context: "RunContext | None" = None) -> STAEngine:
    """A timing-updated :class:`STAEngine` over a design bundle."""
    del context  # engine construction has no context knobs (yet)
    bundle = load_design(design) if isinstance(design, str) else design
    engine = STAEngine(
        bundle.netlist, bundle.constraints,
        getattr(bundle, "placement", None), bundle.sta_config,
    )
    engine.update_timing()
    return engine


def corner_engine(bundle: Design, corner: "tuple[str, float]",
                  context: "RunContext | None" = None) -> STAEngine:
    """A timing-updated engine over ``bundle`` with delays scaled by
    ``corner``'s (name, delay scale) factor.

    The engine shares the bundle's netlist and constraints, so it
    serves read-only searches (``min_period``), never edits.
    """
    config = replace(
        bundle.sta_config,
        delay_scale=bundle.sta_config.delay_scale * float(corner[1]),
    )
    return make_engine(replace(bundle, sta_config=config), context)


def corner_label(corner: "tuple[str, float] | None") -> str:
    """The ``name:scale`` label a min-period search carries ("" = nominal)."""
    return "" if corner is None else f"{corner[0]}:{float(corner[1])!r}"


def _as_engine(design: "Design | STAEngine | str",
               context: "RunContext | None") -> "tuple[STAEngine, str]":
    if isinstance(design, STAEngine):
        return design, design.netlist.name
    engine = make_engine(design, context)
    return engine, engine.netlist.name


# ----------------------------------------------------------------------
# Result builders (shared by the facade and the TimingService)
# ----------------------------------------------------------------------
def sta_result_from_engine(engine: STAEngine,
                           seconds: float = 0.0) -> STAResult:
    """Fold an engine's current GBA view into an :class:`STAResult`."""
    slacks = engine.setup_slacks()
    summary = engine.summary()
    return STAResult(
        design=engine.netlist.name,
        wns=summary.wns,
        tns=summary.tns,
        violations=summary.violations,
        endpoints=summary.endpoints,
        slacks=tuple((s.name, float(s.slack)) for s in slacks),
        seconds=seconds,
    )


def golden_slacks_from_engine(
    engine: STAEngine,
    context: "RunContext | None" = None,
    k: "int | None" = None,
    seconds: float = 0.0,
) -> GoldenSlacksResult:
    """Run golden PBA over every endpoint of a clean GBA engine."""
    from repro.pba.engine import PBAEngine

    ctx = context or RunContext.from_env()
    chosen_k = k if k is not None else ctx.pba_k
    pba = PBAEngine(engine, recalc_slew=ctx.recalc_slew)
    start = time.perf_counter()
    by_node = pba.golden_endpoint_slacks(k=chosen_k)
    graph = engine.graph
    slacks = tuple(
        (str(graph.node(node_id).ref), float(slack))
        for node_id, slack in sorted(by_node.items())
    )
    return GoldenSlacksResult(
        design=engine.netlist.name,
        k=chosen_k,
        slacks=slacks,
        seconds=seconds or (time.perf_counter() - start),
    )


def fit_result_from_flow(design_name: str, result,
                         seconds: float = 0.0) -> FitResult:
    """Freeze an :class:`~repro.mgba.flow.MGBAResult` into a facade result."""
    corrected = result.problem.corrected_slacks(result.solution.x)
    return FitResult(
        design=design_name,
        solver=result.solution.solver,
        iterations=result.solution.iterations,
        converged=result.solution.converged,
        num_paths=result.problem.num_paths,
        num_gates=result.problem.num_gates,
        mse_gba=result.mse_gba,
        mse_mgba=result.mse_mgba,
        pass_ratio_gba=result.pass_ratio_gba,
        pass_ratio_mgba=result.pass_ratio_mgba,
        weights=tuple(sorted(result.weights.items())),
        s_gba=tuple(float(v) for v in result.problem.s_gba),
        s_pba=tuple(float(v) for v in result.problem.s_pba),
        s_mgba=tuple(float(v) for v in corrected),
        seconds=seconds or result.total_seconds,
    )


def explain_result_from_engine(
    engine: STAEngine,
    endpoint: "int | str | None" = None,
    top_k: int = 10,
    seconds: float = 0.0,
) -> ExplainResult:
    """Fold an engine's slack provenance into an :class:`ExplainResult`."""
    from repro.timing.explain import explain_design

    explanation = explain_design(engine, top_k=top_k, endpoint=endpoint)
    resolved = (
        explanation.paths[0].endpoint
        if endpoint is not None and explanation.paths else None
    )
    return ExplainResult(
        design=engine.netlist.name,
        endpoint=resolved,
        top_k=top_k,
        explanation=explanation,
        seconds=seconds,
    )


def scenario_result_from_analysis(analysis, seconds: float = 0.0) \
        -> ScenarioSweepResult:
    """Freeze a :class:`~repro.timing.corners.MultiCornerAnalysis`."""
    summary = analysis.summary()
    setup_rows = []
    hold_rows = []
    for corner in analysis.corners:
        per = summary[corner.name]
        setup_rows.append((
            corner.name, float(per["setup"].wns), float(per["setup"].tns),
            int(per["setup"].violations),
        ))
        hold_rows.append((
            corner.name, float(per["hold"].wns), float(per["hold"].tns),
            int(per["hold"].violations),
        ))
    merged = tuple(
        (m.name, float(m.slack), m.corner)
        for m in analysis.merged_setup()
    )
    # Rows come back worst-first, so the first names the dominant corner
    # (exactly what ``dominant_corner`` would re-merge to find).
    dominant = merged[0][2] if merged else ""
    base = analysis.engines[analysis.corners[0].name]
    return ScenarioSweepResult(
        design=base.netlist.name,
        corners=tuple(
            (c.name, float(c.delay_scale)) for c in analysis.corners
        ),
        setup=tuple(setup_rows),
        hold=tuple(hold_rows),
        merged=merged,
        dominant=dominant,
        stacked=analysis.last_update_mode == "stacked",
        seconds=seconds,
    )


# ----------------------------------------------------------------------
# The verbs
# ----------------------------------------------------------------------
def run_sta(design: "Design | STAEngine | str",
            context: "RunContext | None" = None) -> STAResult:
    """GBA timing analysis of one design."""
    start = time.perf_counter()
    engine, _ = _as_engine(design, context)
    return sta_result_from_engine(
        engine, seconds=time.perf_counter() - start
    )


def golden_slacks(design: "Design | STAEngine | str",
                  k: "int | None" = None,
                  context: "RunContext | None" = None) -> GoldenSlacksResult:
    """Golden PBA endpoint slacks of one design."""
    start = time.perf_counter()
    engine, _ = _as_engine(design, context)
    return golden_slacks_from_engine(
        engine, context, k, seconds=time.perf_counter() - start
    )


def explain_slack(design: "Design | STAEngine | str",
                  endpoint: "int | str | None" = None,
                  top_k: int = 10,
                  context: "RunContext | None" = None) -> ExplainResult:
    """Slack provenance and pessimism attribution of one design.

    ``endpoint`` (node id or endpoint pin name) narrows the record to
    one endpoint's worst path; None explains the whole design with
    per-arc detail for the ``top_k`` worst endpoints.  Per-arc rows sum
    bit-identically to the engine's reported slack under either
    propagation kernel.
    """
    start = time.perf_counter()
    engine, _ = _as_engine(design, context)
    return explain_result_from_engine(
        engine, endpoint=endpoint, top_k=top_k,
        seconds=time.perf_counter() - start,
    )


def fit(design: "Design | STAEngine | str",
        context: "RunContext | None" = None, *,
        apply: bool = True,
        solve_cache=None) -> FitResult:
    """Run the mGBA flow: select, golden PBA, fit, (optionally) apply.

    Passing an :class:`STAEngine` fits *that* engine and leaves the
    weights installed (``apply=True``), which is how the CLI reports a
    corrected summary after fitting.  ``solve_cache`` is the service's
    hook for reusing ``x*`` across identical problems.
    """
    from repro.mgba.flow import MGBAFlow

    start = time.perf_counter()
    ctx = context or RunContext.from_env()
    engine, name = _as_engine(design, ctx)
    flow = MGBAFlow(context=ctx, solve_cache=solve_cache)
    result = flow.run(engine, apply=apply)
    return fit_result_from_flow(
        name, result, seconds=time.perf_counter() - start
    )


def evaluate(names: "list[str] | None" = None, *,
             mgba: bool = False,
             context: "RunContext | None" = None):
    """Evaluate suite designs (STA, optionally + mGBA fit), fanned out.

    Returns a list of frozen
    :class:`~repro.service.suite.DesignReport` records in input order;
    see :func:`repro.service.suite.evaluate_suite` for the fan-out
    contract.
    """
    from repro.service.suite import evaluate_suite

    ctx = context or RunContext.from_env()
    return evaluate_suite(
        names, mgba=mgba, context=ctx, **ctx.suite_fit_knobs(),
    )


def run_scenarios(design: "Design | str",
                  corners=None,
                  context: "RunContext | None" = None) -> ScenarioSweepResult:
    """Multi-scenario STA: the whole corner matrix in one stacked sweep.

    ``corners`` is a sequence of
    :class:`~repro.timing.corners.Corner` values or (name, delay scale)
    pairs; None sweeps the classic ss/tt/ff set.  All scenarios
    propagate in *one* scenario-stacked kernel pass
    (:meth:`~repro.timing.corners.MultiCornerAnalysis.update_all`); a
    design configured for the scalar oracle updates corner by corner
    instead.  Both paths are bit-identical per corner, so the result
    content never depends on the path taken.  ``context`` is accepted
    for signature parity with the other verbs; the sweep itself runs
    in-process.
    """
    from repro.timing.corners import (
        DEFAULT_CORNERS,
        Corner,
        MultiCornerAnalysis,
    )

    start = time.perf_counter()
    bundle = load_design(design) if isinstance(design, str) else design
    chosen = tuple(
        c if isinstance(c, Corner) else Corner(str(c[0]), float(c[1]))
        for c in (corners if corners is not None else DEFAULT_CORNERS)
    )
    analysis = MultiCornerAnalysis(
        bundle.netlist, bundle.constraints,
        getattr(bundle, "placement", None), bundle.sta_config, chosen,
    )
    analysis.update_all()
    return scenario_result_from_analysis(
        analysis, seconds=time.perf_counter() - start
    )


def what_if(design: "Design | STAEngine | str",
            candidates: "list[Any]",
            context: "RunContext | None" = None) -> WhatIfResult:
    """Score K candidate ECO edit-lists against one design.

    Each candidate is an edit-spec list (``{"kind": "resize", ...}``
    dicts — see :mod:`repro.opt.whatif`) or ECO text in the
    :mod:`repro.opt.eco` grammar.  Candidates are applied, measured,
    and reverted in sequence on one engine; passing an
    :class:`STAEngine` evaluates on *that* engine and leaves it
    bit-identical to how it arrived.  A candidate scored after others
    equals the same candidate scored alone on a fresh engine, which is
    the contract the service's per-candidate cache rests on.
    """
    from repro.opt.whatif import evaluate_what_if

    del context  # what-if runs in sequence on one engine: no knob applies
    if isinstance(design, STAEngine):
        return evaluate_what_if(design.netlist.name, candidates, engine=design)
    return evaluate_what_if(design, candidates)


def min_period(design: "Design | STAEngine | str",
               clock: "str | None" = None,
               tolerance: float = 1.0,
               max_iter: int = 64,
               corner: "tuple[str, float] | None" = None,
               context: "RunContext | None" = None) -> MinPeriodResult:
    """Binary-search the smallest feasible period of one clock.

    ``clock`` defaults to the design's primary clock; ``corner``
    (name, delay scale) searches against a scaled-delay engine instead
    of the nominal one.  The bracket/bisection sequence is a pure
    function of (content, clock, tolerance, max_iter), so the result
    is deterministic at any worker count.
    """
    from repro.opt.whatif import min_period_on_engine

    if isinstance(design, STAEngine):
        if corner is not None:
            raise ValueError(
                "corner= needs a design bundle or name, not a live engine"
            )
        engine = design
    else:
        bundle = load_design(design) if isinstance(design, str) else design
        engine = (
            make_engine(bundle, context) if corner is None
            else corner_engine(bundle, corner, context)
        )
    return min_period_on_engine(
        engine, clock=clock, tolerance=tolerance, max_iter=max_iter,
        corner=corner_label(corner),
    )


def close_timing(design: "Design | str", *,
                 use_mgba: bool = True,
                 max_transforms: int = 200,
                 acceptable_violations: int = 0,
                 context: "RunContext | None" = None) -> ClosureResult:
    """Run the timing-closure optimization loop on one design."""
    from repro.opt.closure import ClosureConfig, TimingClosureOptimizer

    ctx = context or RunContext.from_env()
    bundle = load_design(design) if isinstance(design, str) else design
    config = ClosureConfig(
        use_mgba=use_mgba,
        max_transforms=max_transforms,
        acceptable_violations=acceptable_violations,
        mgba=ctx.mgba_config(),
    )
    optimizer = TimingClosureOptimizer(
        bundle.netlist, bundle.constraints,
        getattr(bundle, "placement", None), bundle.sta_config, config,
    )
    report = optimizer.run()
    return ClosureResult(
        design=bundle.name,
        use_mgba=use_mgba,
        transforms_applied=report.transforms_applied,
        transforms_tried=report.transforms_tried,
        wns_before=report.initial.wns,
        tns_before=report.initial.tns,
        violations_before=report.initial.violations,
        wns_after=report.final.wns,
        tns_after=report.final.tns,
        violations_after=report.final.violations,
        area_after=report.final.area,
        leakage_after=report.final.leakage,
        buffers_after=report.final.buffers,
        eco_commands=tuple(report.eco_commands),
        seconds=report.seconds_total,
    )
