"""The traced run: timing wrappers around each layer's public functions.

Spans live only here, in the benchmark: :class:`LayerTracer` swaps a
timing wrapper in for each function named in :data:`WRAPPED` — at the
place its caller looks it up (``repro.mgba.flow.build_problem``, not
``repro.mgba.problem.build_problem``) — and puts the originals back on
exit.  Where wrapped calls nest, a call's self time is its duration
minus the time of the wrapped calls directly inside it.

:data:`LAYER_METRICS` is the per-layer table: every metric with its
unit, its better direction, and the metric and workload it should move
(an end-to-end metric, or a line the workload prints).  Counts the library already keeps in ``repro.obs``
(layout-cache hits, arrival-only sweeps, cache hits, accepted moves)
are read as a snapshot before and after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Wrapped:
    """One wrapped function: metric prefix, lookup site, what to record.

    ``site`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``timed``
    False only counts calls (for per-arc functions where a timer would
    cost more than the call).  ``self_time`` adds ``<prefix>_self_s``;
    ``observe`` folds extra per-call quantities out of the arguments or
    result into named sums.
    """

    prefix: str
    site: str
    timed: bool = True
    self_time: bool = False
    observe: "Callable[[tuple, dict, Any], dict[str, float]] | None" = None


def _paths(args, kwargs, result) -> "dict[str, float]":
    paths = args[1] if len(args) > 1 else kwargs["paths"]
    return {"pba.paths_analyzed": float(len(paths))}


def _rows(args, kwargs, result) -> "dict[str, float]":
    return {"mgba.rows": float(result.num_paths)}


def _iterations(args, kwargs, result) -> "dict[str, float]":
    return {"mgba.solver_iterations": float(result.iterations)}


def _candidates(args, kwargs, result) -> "dict[str, float]":
    return {"opt.whatif.candidates": float(len(result.candidates))}


def _bytes(args, kwargs, result) -> "dict[str, float]":
    store, cls, key = args[0], args[1], args[2]
    path = store._path(cls, key)
    return {"service.store.bytes_written": float(path.stat().st_size)}


#: Every wrapped function, grouped by layer (module names).
WRAPPED = (
    Wrapped("liberty.parse", "repro.liberty.parser:parse_liberty"),
    Wrapped("netlist.parse", "repro.netlist.verilog:parse_verilog"),
    Wrapped("sdc.parse", "repro.sdc.parser:parse_sdc"),
    Wrapped("timing.graph.build", "repro.timing.graph:TimingGraph.__init__",
            self_time=True),
    Wrapped("timing.graph.rebuild_net",
            "repro.timing.graph:TimingGraph.rebuild_net"),
    Wrapped("timing.kernel.build_layout", "repro.timing.kernel:build_layout"),
    Wrapped("timing.kernel.propagate_full",
            "repro.timing.kernel:propagate_full", self_time=True),
    Wrapped("timing.kernel.propagate_incremental",
            "repro.timing.kernel:propagate_incremental"),
    Wrapped("timing.kernel.patch_layout", "repro.timing.kernel:patch_layout"),
    Wrapped("timing.delaycalc.compute_arcs_batch",
            "repro.timing.delaycalc:DelayCalculator.compute_arcs_batch"),
    Wrapped("timing.delaycalc.compute_edge",
            "repro.timing.delaycalc:DelayCalculator.compute_edge",
            timed=False),
    Wrapped("timing.sta.update_timing",
            "repro.timing.sta:STAEngine.update_timing", self_time=True),
    Wrapped("timing.sta.setup_slacks",
            "repro.timing.sta:STAEngine.setup_slacks", self_time=True),
    Wrapped("timing.corners.update_all",
            "repro.timing.corners:MultiCornerAnalysis.update_all",
            self_time=True),
    Wrapped("pba.enumerate_worst_paths",
            "repro.mgba.flow:enumerate_worst_paths"),
    Wrapped("pba.analyze", "repro.pba.engine:PBAEngine.analyze",
            observe=_paths),
    Wrapped("pba.golden_endpoint_slacks",
            "repro.pba.engine:PBAEngine.golden_endpoint_slacks",
            self_time=True),
    Wrapped("mgba.build_problem", "repro.mgba.flow:build_problem",
            observe=_rows),
    Wrapped("mgba.solve", "repro.mgba.flow:MGBAConfig.solve",
            observe=_iterations),
    Wrapped("opt.closure.fix",
            "repro.opt.closure:TimingClosureOptimizer.fix_violations",
            self_time=True),
    Wrapped("opt.closure.recover",
            "repro.opt.closure:TimingClosureOptimizer.recover",
            self_time=True),
    Wrapped("opt.transforms.revert",
            "repro.opt.transforms:AppliedTransform.revert"),
    Wrapped("opt.whatif.evaluate", "repro.service.engine:evaluate_what_if",
            self_time=True, observe=_candidates),
    Wrapped("opt.whatif.min_period",
            "repro.service.engine:min_period_on_engine"),
    Wrapped("service.store.put", "repro.service.store:DiskStore.put",
            observe=_bytes),
    Wrapped("service.keys.design_key", "repro.service.keys:design_key"),
    Wrapped("service.apply_change",
            "repro.service.engine:TimingService.apply_change",
            self_time=True),
)

#: ``repro.obs`` counters read around the traced pass.
COUNTERS = (
    "kernel.layout_cache_hits", "kernel.layout_cache_misses",
    "kernel.layout_disk_hits", "kernel.layout_disk_misses",
    "kernel.arrival_only_updates", "kernel.vector_full_updates",
    "kernel.layout_patches", "kernel.layout_patch_fallbacks",
    "kernel.fallbacks", "cache.hit", "cache.miss",
    "closure.transforms_tried", "closure.transforms_applied",
)

SERVE_VERBS = (
    "sta", "explain", "pba_slacks", "mgba_fit", "scenario_sweep",
    "what_if", "min_period",
)

P50_SIGNOFF = ("op_ms_p50", "signoff")
P50_CLOSURE = ("op_ms_p50", "closure")
P50_SERVE = ("op_ms_p50", "serve")
#: Serve's cold misses set its tail and its throughput; both are printed
#: report lines of the serve workload rather than end-to-end metrics.
P90_SERVE = ("serve_latency_ms_p90", "serve")
RATE_SERVE = ("serve_requests_per_s", "serve")


def _row(name: str, unit: str, better: str, *moves) -> "dict[str, Any]":
    return {
        "name": name, "unit": unit, "better": better,
        "moves": [{"metric": m, "workload": w} for m, w in moves],
    }


def _timed(prefix: str, *moves, calls: bool = True,
           self_time: bool = False) -> "list[dict[str, Any]]":
    rows = []
    if calls:
        rows.append(_row(f"{prefix}_calls", "count", "lower", *moves))
    rows.append(_row(f"{prefix}_s", "s", "lower", *moves))
    if self_time:
        rows.append(_row(f"{prefix}_self_s", "s", "lower", *moves))
    return rows


#: The per-layer table (name, unit, better, which metric and workload
#: each should move).  A ratio's base follows it as a count.
LAYER_METRICS: "list[dict[str, Any]]" = [
    *_timed("liberty.parse", P50_SIGNOFF, calls=False),
    *_timed("netlist.parse", P50_SIGNOFF, calls=False),
    *_timed("sdc.parse", P50_SIGNOFF, calls=False),
    *_timed("timing.graph.build", P50_SIGNOFF, P90_SERVE, calls=False,
            self_time=True),
    *_timed("timing.graph.rebuild_net", P50_CLOSURE),
    *_timed("timing.kernel.build_layout", P50_SIGNOFF),
    *_timed("timing.kernel.propagate_full", P50_SIGNOFF, self_time=True),
    _row("timing.kernel.arrival_only_ratio", "ratio", "higher", P50_SIGNOFF),
    _row("timing.kernel.full_updates", "count", "lower", P50_SIGNOFF),
    *_timed("timing.kernel.propagate_incremental", P50_CLOSURE),
    *_timed("timing.kernel.patch_layout", P50_CLOSURE),
    _row("timing.kernel.patch_fallback_ratio", "ratio", "lower", P50_CLOSURE),
    _row("timing.kernel.patch_attempts", "count", "lower", P50_CLOSURE),
    _row("timing.kernel.fallbacks", "count", "lower", P50_CLOSURE),
    _row("timing.kernel.layout_cache_hit_ratio", "ratio", "higher",
         P50_SERVE),
    _row("timing.kernel.layout_cache_lookups", "count", "lower", P50_SERVE),
    _row("timing.kernel.layout_disk_hit_ratio", "ratio", "higher", P50_SERVE),
    _row("timing.kernel.layout_disk_lookups", "count", "lower", P50_SERVE),
    *_timed("timing.delaycalc.compute_arcs_batch", P50_SIGNOFF),
    _row("timing.delaycalc.compute_edge_calls", "count", "lower",
         P50_CLOSURE),
    *_timed("timing.sta.update_timing", P50_CLOSURE, P50_SIGNOFF,
            self_time=True),
    *_timed("timing.sta.setup_slacks", P50_CLOSURE, P50_SIGNOFF,
            self_time=True),
    *_timed("timing.corners.update_all", P90_SERVE, calls=False,
            self_time=True),
    *_timed("pba.enumerate_worst_paths", P50_SIGNOFF, calls=False),
    *_timed("pba.analyze", P50_SIGNOFF, calls=False),
    _row("pba.paths_analyzed", "count", "lower", P50_SIGNOFF),
    *_timed("pba.golden_endpoint_slacks", P90_SERVE, calls=False,
            self_time=True),
    *_timed("mgba.build_problem", P50_SIGNOFF, calls=False),
    *_timed("mgba.solve", P50_SIGNOFF, calls=False),
    _row("mgba.solver_iterations", "count", "lower", P50_SIGNOFF),
    _row("mgba.rows", "count", "lower", P50_SIGNOFF),
    *_timed("opt.closure.fix", P50_CLOSURE, calls=False, self_time=True),
    *_timed("opt.closure.recover", P50_CLOSURE, calls=False, self_time=True),
    _row("opt.transforms.tried", "count", "lower", P50_CLOSURE),
    _row("opt.transforms.accept_ratio", "ratio", "higher", P50_CLOSURE),
    *_timed("opt.transforms.revert", P50_CLOSURE, calls=False),
    *_timed("opt.whatif.evaluate", P90_SERVE, calls=False, self_time=True),
    _row("opt.whatif.candidates", "count", "lower", P90_SERVE),
    *_timed("opt.whatif.min_period", P90_SERVE, calls=False),
    *[
        _row(f"service.{verb}.latency_ms_p50", "ms", "lower", P50_SERVE)
        for verb in SERVE_VERBS
    ],
    _row("service.cache.hit_ratio", "ratio", "higher", P50_SERVE),
    _row("service.cache.lookups", "count", "lower", P50_SERVE),
    *_timed("service.store.put", P50_SERVE, calls=False),
    _row("service.store.bytes_written", "bytes", "lower", P50_SERVE),
    *_timed("service.keys.design_key", RATE_SERVE, calls=False),
    *_timed("service.apply_change", RATE_SERVE, calls=False,
            self_time=True),
    _row("obs.trace_overhead", "ratio", "lower"),
]


def _resolve(site: str) -> "tuple[Any, str]":
    module_name, path = site.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class _Stat:
    __slots__ = ("calls", "total", "self_total", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.active = 0


class LayerTracer:
    """Installs :data:`WRAPPED` for the duration of a ``with`` block."""

    def __init__(self):
        self.stats = {w.prefix: _Stat() for w in WRAPPED}
        self.sums: "dict[str, float]" = {}
        self._stack: "list[list[float]]" = []
        self._saved: "list[tuple[Any, str, Any]]" = []
        #: Sites that no longer resolve (reported, not fatal).
        self.missing: "list[str]" = []
        self.counters_before: "dict[str, float]" = {}
        self.counters_after: "dict[str, float]" = {}

    def _wrap(self, spec: Wrapped, fn):
        stat = self.stats[spec.prefix]
        sums = self.sums
        stack = self._stack
        observe = spec.observe

        if not spec.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            stat.active += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_total += elapsed - children[0]
                if not stat.active:   # recursion counts once, outermost
                    stat.total += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                for name, value in observe(args, kwargs, result).items():
                    sums[name] = sums.get(name, 0.0) + value
            return result
        return timed

    def __enter__(self) -> "LayerTracer":
        self.counters_before = _counters()
        for spec in WRAPPED:
            try:
                owner, attr = _resolve(spec.site)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                # A refactor moved or removed the function: its metrics
                # read 0 and the run says so rather than failing.
                self.missing.append(spec.site)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(spec, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.counters_after = _counters()

    def counter(self, name: str) -> float:
        return self.counters_after[name] - self.counters_before[name]

    def metrics(self, ops, overhead: float) -> "dict[str, float]":
        """Every :data:`LAYER_METRICS` value from this trace.

        ``ops`` are the traced pass's operations (their labels give the
        serve verbs); ``overhead`` is traced wall / untraced wall - 1.
        """
        values: "dict[str, float]" = {}
        for spec in WRAPPED:
            stat = self.stats[spec.prefix]
            values[f"{spec.prefix}_calls"] = float(stat.calls)
            values[f"{spec.prefix}_s"] = stat.total
            values[f"{spec.prefix}_self_s"] = stat.self_total
        values.update(self.sums)
        c = self.counter
        ratios = {
            "timing.kernel.arrival_only_ratio": (
                c("kernel.arrival_only_updates"),
                c("kernel.vector_full_updates"),
                "timing.kernel.full_updates"),
            "timing.kernel.patch_fallback_ratio": (
                c("kernel.layout_patch_fallbacks"),
                c("kernel.layout_patches") + c("kernel.layout_patch_fallbacks"),
                "timing.kernel.patch_attempts"),
            "timing.kernel.layout_cache_hit_ratio": (
                c("kernel.layout_cache_hits"),
                c("kernel.layout_cache_hits") + c("kernel.layout_cache_misses"),
                "timing.kernel.layout_cache_lookups"),
            "timing.kernel.layout_disk_hit_ratio": (
                c("kernel.layout_disk_hits"),
                c("kernel.layout_disk_hits") + c("kernel.layout_disk_misses"),
                "timing.kernel.layout_disk_lookups"),
            "service.cache.hit_ratio": (
                c("cache.hit"), c("cache.hit") + c("cache.miss"),
                "service.cache.lookups"),
            "opt.transforms.accept_ratio": (
                c("closure.transforms_applied"),
                c("closure.transforms_tried"),
                "opt.transforms.tried"),
        }
        for name, (hits, base, base_name) in ratios.items():
            values[name] = hits / base if base else 0.0
            values[base_name] = base
        values["timing.kernel.fallbacks"] = c("kernel.fallbacks")
        for verb in SERVE_VERBS:
            latencies = [1000.0 * op.seconds for op in ops
                         if op.ok and op.label == verb]
            values[f"service.{verb}.latency_ms_p50"] = (
                statistics.median(latencies) if latencies else 0.0
            )
        values["obs.trace_overhead"] = overhead
        return {row["name"]: float(values.get(row["name"], 0.0))
                for row in LAYER_METRICS}


def _counters() -> "dict[str, float]":
    from repro.obs.metrics import default_registry

    registry = default_registry()
    return {name: float(registry.counter(name).value) for name in COUNTERS}
