"""The persistent timing service: batched queries over cached artifacts.

A :class:`TimingService` owns registered designs, their live
:class:`~repro.timing.sta.STAEngine` instances (the in-process tier of
the "timing graph + STA state" artifact class), and an
:class:`~repro.service.store.ArtifactCache` for everything expensive:

* ``sta`` — GBA slack vectors keyed by the design's content address;
* ``scenarios`` — multi-corner sweep matrices keyed by the design's
  content address plus the (name, delay scale) corner sequence;
* ``pba`` — golden PBA endpoint slacks keyed additionally by (k',
  slew-recalc, variation);
* ``solve`` — fitted ``x*`` vectors keyed by (A-matrix fingerprint,
  solver config);
* ``fit`` — whole-flow fit results keyed by (design, fit knobs);
* ``what_if`` — scored ECO candidates keyed by (design, canonical
  edit list) — per candidate, so any batch hits on every candidate an
  earlier request already scored;
* ``min_period`` — min-period searches keyed by (design, clock,
  tolerance, iteration cap, corner);
* ``layout`` — the vector kernel's persisted levelized-layout
  structural arrays, keyed by (netlist hash, boundary, GBA depths) —
  wired into :mod:`repro.timing.kernel` at service construction so a
  serve restart hydrates instead of re-flattening known designs.

Dispatch is declarative: every verb (query and control) is one row in
:mod:`repro.service.registry`, which also feeds the JSONL layer, the
CLI, and the docs' verb table.

Queries arrive as :class:`Query` values (or the JSONL dicts of
``docs/service.md``), are **coalesced** (duplicate queries in one
batch compute once), and cache-miss groups are **sharded** across the
:mod:`repro.parallel` executors — one design per worker, the same
shard axis as ``evaluate_suite``, so results are bit-identical at any
worker count.

Invalidation is key *rotation*, not deletion: a
:class:`~repro.netlist.edit.ChangeRecord` fed to :meth:`apply_change`
updates the live engine incrementally (``repro.timing.incremental``)
and recomputes the design's content address, so every dependent lookup
misses and recomputes — while artifacts of the *previous* content stay
on disk and hit again if an optimizer reverts the edit.  A stale fit
can never be served because nothing maps the new key to old bytes
(property-tested in ``tests/service``).
"""

from __future__ import annotations

import itertools
import os
import time
import traceback as traceback_mod
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro import api
from repro.context import RunContext
from repro.designs.generator import Design
from repro.errors import ReproError
from repro.netlist.edit import ChangeRecord
from repro.obs.flight import default_flight_recorder
from repro.obs.metrics import (
    counter,
    default_registry,
    gauge,
    histogram,
    labeled,
    latency_buckets,
)
from repro.obs.slo import SLOSpec, evaluate_slo
from repro.obs.trace import baggage, span
from repro.opt.whatif import (
    CandidateResult,
    MinPeriodResult,
    WhatIfResult,
    evaluate_what_if,
    min_period_on_engine,
    normalize_candidate,
)
from repro.service import keys as keymod
from repro.service.registry import QUERY_OPS, VERBS, verb
from repro.service.store import ArtifactCache
from repro.service.suite import DesignReport
from repro.timing.sta import STAEngine

#: mgba_fit parameters that override the service context per query.
_FIT_PARAMS = (
    "solver", "seed", "epsilon", "penalty", "k_per_endpoint",
    "max_paths", "recalc_slew",
)


class ServiceError(ReproError):
    """A malformed or unanswerable service query."""


_request_counter = itertools.count(1)


def new_request_id() -> str:
    """A process-unique request ID (``r<pid>-<seq>``).

    Monotonic per process and pid-qualified, so IDs minted inside
    process-backend shard workers never collide with the parent's —
    and a trace filtered on one ID isolates exactly one request's
    span subtree.
    """
    return f"r{os.getpid()}-{next(_request_counter):06d}"


def note_request(op: str, request_id: str, seconds: float,
                 ok: bool = True, cached: "bool | None" = None,
                 design: str = "", key_prefix: str = "",
                 error: "str | None" = None) -> None:
    """The single per-verb telemetry choke point.

    Every answered request — query verbs through
    :meth:`TimingService._run`, control verbs at the protocol layer —
    passes through here, which keeps three surfaces in lockstep with
    the verb registry: the labeled ``service.requests`` /
    ``service.request.errors`` counters and the per-verb
    ``service.request.latency{verb=...}`` histogram (scraped via
    :mod:`repro.obs.expo`), and the flight recorder's request ring
    (the SLO evaluation window).  No verb can ship without telemetry
    because dispatch itself is registry-driven and lands here.
    """
    counter(labeled("service.requests", verb=op)).inc()
    if not ok:
        counter(labeled("service.request.errors", verb=op)).inc()
    histogram(
        labeled("service.request.latency", verb=op), latency_buckets()
    ).observe(seconds)
    default_flight_recorder().record_request(
        verb=op, request_id=request_id, design=design,
        key_prefix=key_prefix, cached=cached, ok=ok,
        seconds=seconds, error=error,
    )


def _hashable(value: Any) -> Any:
    """Recursively freeze JSON-ish values so queries are hashable."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(
            sorted((k, _hashable(v)) for k, v in value.items())
        )
    return value


@dataclass(frozen=True)
class Query:
    """One service query: an operation, a design, and its parameters.

    Frozen and hashable, so a batch can be coalesced with a dict;
    ``params`` is a sorted tuple of (name, value) pairs.
    """

    op: str
    design: str = ""
    params: "tuple[tuple[str, Any], ...]" = ()

    def __post_init__(self):
        if self.op not in QUERY_OPS:
            raise ServiceError(
                f"unknown query op {self.op!r}; choose from {QUERY_OPS}"
            )

    @classmethod
    def from_any(cls, raw: "Query | dict") -> "Query":
        """Normalize a dict (one parsed JSONL record) into a query."""
        if isinstance(raw, Query):
            return raw
        if not isinstance(raw, dict):
            raise ServiceError(
                f"query must be a Query or dict, got {type(raw).__name__}"
            )
        payload = dict(raw)
        payload.pop("id", None)
        op = payload.pop("op", None)
        if not op:
            raise ServiceError("query record is missing 'op'")
        design = payload.pop("design", "") or ""
        params = tuple(sorted(
            (name, _hashable(value)) for name, value in payload.items()
        ))
        return cls(op=str(op), design=str(design), params=params)

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass
class QueryResult:
    """One query's outcome: the result object plus cache provenance."""

    query: Query
    ok: bool
    cached: bool = False
    seconds: float = 0.0
    result: Any = None
    error: "str | None" = None
    request_id: "str | None" = None

    def to_dict(self) -> "dict[str, Any]":
        """JSONL response payload (see ``docs/service.md``)."""
        record: "dict[str, Any]" = {
            "op": self.query.op,
            "design": self.query.design,
            "ok": self.ok,
            "cached": self.cached,
            "seconds": round(self.seconds, 6),
        }
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.ok:
            if isinstance(self.result, (list, tuple)):
                record["result"] = [
                    r.to_dict() if hasattr(r, "to_dict") else r
                    for r in self.result
                ]
            elif hasattr(self.result, "to_dict"):
                record["result"] = self.result.to_dict()
            else:
                record["result"] = self.result
        else:
            record["error"] = self.error
        return record


class _SolveCache:
    """The flow-side hook that reuses ``x*`` across identical problems."""

    def __init__(self, cache: ArtifactCache):
        self.cache = cache

    def _key(self, problem, config) -> str:
        return keymod.solve_key(
            keymod.problem_fingerprint(problem),
            config.solver, config.seed,
        )

    def lookup(self, problem, config):
        return self.cache.get("solve", self._key(problem, config))

    def store(self, problem, config, solution) -> None:
        self.cache.put("solve", self._key(problem, config), solution)


def _run_query_group(
    job: "tuple[RunContext, str, tuple[Query, ...], tuple[str | None, ...]]",
) -> "list[QueryResult]":
    """Worker body of the cache-miss shard (module-level: picklable).

    Builds a fresh service in the worker — sharing the *disk* cache
    tier with the parent through the context's ``cache_dir`` — and
    runs one design's queries serially.  A fresh service per group is
    what makes the thread backend safe: no two workers ever touch the
    same engine.  Request IDs ride along so worker-side spans and
    responses keep the caller's identity.
    """
    context, _design, queries, request_ids = job
    service = TimingService(context=context.replace(workers=1))
    return [
        service._run(query, request_id)
        for query, request_id in zip(queries, request_ids)
    ]


class TimingService:
    """Persistent, cached, batched timing queries over many designs."""

    #: Live engines kept in memory at once (LRU beyond this).
    max_engines = 8

    def __init__(self, context: "RunContext | None" = None,
                 cache: "ArtifactCache | None" = None,
                 slo_spec: "SLOSpec | None" = None):
        self.context = context or RunContext.from_env()
        self.cache = (
            cache if cache is not None
            else ArtifactCache.from_context(self.context)
        )
        # Layout persistence rides the same disk tier: engines built
        # by this service (and by the per-design workers, which
        # construct their own TimingService) hydrate cold levelized
        # layouts from the store's ``layout/`` class instead of
        # re-flattening known designs.
        if self.cache is not None and self.cache.disk is not None:
            from repro.timing import kernel as kernel_mod

            kernel_mod.set_layout_disk_store(self.cache.disk)
        #: Declarative objectives the ``health`` verb evaluates over
        #: the flight window (``repro-sta serve --slo FILE``).
        self.slo_spec = slo_spec
        self._bundles: "dict[str, Design]" = {}
        self._factories: "dict[str, Callable[[], Design]]" = {}
        self._engines: "OrderedDict[str, STAEngine]" = OrderedDict()
        self._keys: "dict[str, keymod.DesignKey]" = {}
        #: Names resolvable by rebuild in a worker process (suite/fig2).
        self._by_name: "set[str]" = set()
        self._started = time.monotonic()
        self._register_verb_telemetry()

    @staticmethod
    def _register_verb_telemetry() -> None:
        """Pre-create every verb's labeled instruments from the registry.

        Registration (not first use) is what puts a verb on the
        OpenMetrics exposition, so a scrape of a fresh service already
        shows one ``service.request.latency{verb=...}`` series per
        registered op — zeroed, never absent.  Drift-tested in
        ``tests/service/test_observability.py``: a verb added to the
        registry ships with telemetry by construction.
        """
        registry = default_registry()
        registry.histogram("service.request.latency", latency_buckets())
        for row in VERBS:
            registry.counter(labeled("service.requests", verb=row.op))
            registry.counter(
                labeled("service.request.errors", verb=row.op)
            )
            registry.histogram(
                labeled("service.request.latency", verb=row.op),
                latency_buckets(),
            )

    # ------------------------------------------------------------------
    # Design registry
    # ------------------------------------------------------------------
    def register_design(self, name: str,
                        design: "Design | None" = None,
                        factory: "Callable[[], Design] | None" = None) \
            -> None:
        """Register a design bundle or zero-arg factory under ``name``.

        Unregistered names are resolved through
        :func:`repro.api.load_design` on first use (suite names and
        ``"fig2"``), which is also the only resolution path available
        to process-backend shard workers.
        """
        if (design is None) == (factory is None):
            raise ServiceError(
                "register_design takes exactly one of design= or factory="
            )
        if design is not None:
            self._bundles[name] = design
        else:
            self._factories[name] = factory  # type: ignore[assignment]
        self._engines.pop(name, None)
        self._keys.pop(name, None)

    def design(self, name: str) -> Design:
        """The (memoized) design bundle behind a registered name."""
        bundle = self._bundles.get(name)
        if bundle is None:
            factory = self._factories.get(name)
            if factory is not None:
                bundle = factory()
            else:
                bundle = api.load_design(name)
                self._by_name.add(name)
            self._bundles[name] = bundle
        return bundle

    def engine(self, name: str) -> STAEngine:
        """The live engine for a design (in-process STA-state tier)."""
        engine = self._engines.get(name)
        if engine is None:
            engine = api.make_engine(self.design(name), self.context)
            self._engines[name] = engine
        self._engines.move_to_end(name)
        while len(self._engines) > self.max_engines:
            self._engines.popitem(last=False)
        return engine

    def design_key(self, name: str) -> keymod.DesignKey:
        """The design's current content address (memoized until edited)."""
        key = self._keys.get(name)
        if key is None:
            bundle = self.design(name)
            key = keymod.design_key(
                bundle.netlist, bundle.constraints,
                getattr(bundle, "placement", None), bundle.sta_config,
            )
            self._keys[name] = key
        return key

    def apply_change(self, change, design: "str | None" = None) -> None:
        """Mirror a netlist edit: incremental engine update + key rotation.

        The signature matches ``STAEngine.apply_change(change)`` — the
        :class:`~repro.netlist.edit.ChangeRecord` leads, ``design``
        names which registered design it edits.  The live engine
        re-propagates only the edit's cone
        (:mod:`repro.timing.incremental`); the design's content address
        rotates, so exactly the artifacts derived from the old content
        stop being served — other designs, and this design's *previous*
        content (hit again after a revert), are untouched.
        """
        if not isinstance(change, ChangeRecord):
            raise ServiceError(
                f"apply_change takes a ChangeRecord, got "
                f"{type(change).__name__}"
            )
        if design is None:
            raise ServiceError("apply_change needs design= (the design name)")
        engine = self._engines.get(design)
        if engine is not None:
            engine.apply_change(change)
        self._keys.pop(design, None)
        counter("service.invalidations").inc()

    # ------------------------------------------------------------------
    # Introspection (the `stats` / `health` JSONL verbs)
    # ------------------------------------------------------------------
    def health(self) -> "dict[str, Any]":
        """Cheap liveness summary — never touches an engine or the cache.

        When an SLO spec is installed the summary also carries the
        objectives evaluated over the flight-recorder request window
        (``slo`` is ``None`` otherwise), and ``status`` degrades to
        ``"slo_violation"`` so a bare health probe is enough to see
        the service out of objective.
        """
        slo = self.slo_status()
        status = "ok"
        if slo is not None and not slo["ok"]:
            status = "slo_violation"
        return {
            "status": status,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "designs": len(set(self._bundles) | set(self._factories)),
            "engines_live": len(self._engines),
            "cache_enabled": self.cache is not None,
            "slo": slo,
        }

    def slo_status(self) -> "dict[str, Any] | None":
        """The SLO report over the flight window (None without a spec)."""
        if self.slo_spec is None:
            return None
        report = evaluate_slo(
            self.slo_spec, default_flight_recorder().requests()
        )
        return report.to_dict()

    def metrics_export(self) -> "dict[str, Any]":
        """The registry rendered as OpenMetrics text (control verb)."""
        from repro.obs.expo import CONTENT_TYPE, render_openmetrics

        return {
            "format": "openmetrics",
            "content_type": CONTENT_TYPE,
            "text": render_openmetrics(default_registry()),
        }

    def stats(self) -> "dict[str, Any]":
        """Request/cache/latency statistics of this process.

        Counter values come from the process-wide metrics registry, so
        a service sharing a process with other instrumented work sees
        the combined totals; the latency percentiles are the
        ``service.request.latency`` histogram rendered inline.
        """
        registry = default_registry()
        latency = registry.histogram("service.request.latency")
        cache_stats: "dict[str, Any]" = {
            "hit": registry.counter("cache.hit").value,
            "miss": registry.counter("cache.miss").value,
            "evictions": registry.counter("cache.evictions").value,
        }
        if self.cache is not None and self.cache.memory is not None:
            cache_stats["memory_entries"] = len(self.cache.memory)
        if self.cache is not None and self.cache.disk is not None:
            cache_stats["disk_bytes"] = self.cache.disk.total_bytes()
        # One row per registered verb, driven by the registry itself —
        # the row set cannot drift from the ops the service dispatches.
        verbs = {
            row.op: {
                "requests": registry.counter(
                    labeled("service.requests", verb=row.op)
                ).value,
                "errors": registry.counter(
                    labeled("service.request.errors", verb=row.op)
                ).value,
            }
            for row in VERBS
        }
        return {
            **self.health(),
            "queries": registry.counter("service.queries").value,
            "verbs": verbs,
            "coalesced": registry.counter("service.coalesced").value,
            "errors": registry.counter("service.request.errors").value,
            "invalidations": registry.counter("service.invalidations").value,
            "inflight": registry.gauge("service.inflight").value or 0,
            "design_names": sorted(
                set(self._bundles) | set(self._factories)
            ),
            "cache": cache_stats,
            "latency": {
                "count": latency.count,
                "mean": latency.mean,
                "p50": latency.percentile(50),
                "p95": latency.percentile(95),
                "p99": latency.percentile(99),
                "max": latency.maximum if latency.count else 0.0,
            },
        }

    # ------------------------------------------------------------------
    # Individual queries (raise on failure)
    # ------------------------------------------------------------------
    def sta(self, name: str) -> api.STAResult:
        """GBA timing of one design (cached by content address)."""
        result, _ = self._q_sta(Query(op="sta", design=name))
        return result

    def pba_slacks(self, name: str, k: "int | None" = None) \
            -> api.GoldenSlacksResult:
        """Golden PBA endpoint slacks (cached by content + k')."""
        params = (("k", k),) if k is not None else ()
        result, _ = self._q_pba(
            Query(op="pba_slacks", design=name, params=params)
        )
        return result

    def mgba_fit(self, name: str, **overrides: Any) -> api.FitResult:
        """The mGBA fit (cached whole-flow; ``x*`` reused by fingerprint)."""
        params = tuple(sorted(overrides.items()))
        result, _ = self._q_fit(
            Query(op="mgba_fit", design=name, params=params)
        )
        return result

    def explain(self, name: str,
                endpoint: "int | str | None" = None,
                top_k: "int | None" = None) -> api.ExplainResult:
        """Slack provenance record (cached by content + explain scope)."""
        params: "tuple[tuple[str, Any], ...]" = ()
        if endpoint is not None:
            params += (("endpoint", endpoint),)
        if top_k is not None:
            params += (("top_k", top_k),)
        result, _ = self._q_explain(
            Query(op="explain", design=name, params=tuple(sorted(params)))
        )
        return result

    def scenario_sweep(self, name: str,
                       corners: "Sequence[tuple[str, float]] | None" = None) \
            -> api.ScenarioSweepResult:
        """Multi-corner sweep matrix (cached by content + corner set)."""
        params: "tuple[tuple[str, Any], ...]" = ()
        if corners is not None:
            params = (("corners", tuple(
                (str(n), float(s)) for n, s in corners
            )),)
        result, _ = self._q_scenarios(
            Query(op="scenario_sweep", design=name, params=params)
        )
        return result

    def evaluate(self, names: "list[str] | None" = None,
                 mgba: bool = False) -> "list[DesignReport]":
        """Suite evaluation (uncached; internally fanned out)."""
        params: "tuple[tuple[str, Any], ...]" = (("mgba", mgba),)
        if names is not None:
            params += (("designs", tuple(names)),)
        result, _ = self._q_evaluate(
            Query(op="evaluate", params=params)
        )
        return list(result)

    def what_if(self, name: str, candidates: "Sequence[Any]") \
            -> WhatIfResult:
        """Score K candidate edit-lists (cached per candidate by content)."""
        params = (("candidates", _hashable(list(candidates))),)
        result, _ = self._q_what_if(
            Query(op="what_if", design=name, params=params)
        )
        return result

    def min_period(self, name: str,
                   clock: "str | None" = None,
                   tolerance: float = 1.0,
                   max_iter: int = 64,
                   corner: "tuple[str, float] | None" = None) \
            -> MinPeriodResult:
        """Min feasible clock period (cached by content + search contract)."""
        params: "tuple[tuple[str, Any], ...]" = (
            ("tolerance", float(tolerance)), ("max_iter", int(max_iter)),
        )
        if clock is not None:
            params += (("clock", clock),)
        if corner is not None:
            params += (("corner", (str(corner[0]), float(corner[1]))),)
        result, _ = self._q_min_period(
            Query(op="min_period", design=name, params=tuple(sorted(params)))
        )
        return result

    # ------------------------------------------------------------------
    # Query handlers: (result, cached)
    # ------------------------------------------------------------------
    def _cache_get(self, cls: str, key: str) -> Any:
        if self.cache is None:
            return None
        return self.cache.get(cls, key)

    def _cache_put(self, cls: str, key: str, value: Any) -> None:
        if self.cache is not None:
            self.cache.put(cls, key, value)

    def _q_sta(self, query: Query) -> "tuple[api.STAResult, bool]":
        key = self.design_key(query.design).token
        hit = self._cache_get("sta", key)
        if hit is not None:
            return replace(hit, design=query.design), True
        result = api.sta_result_from_engine(self.engine(query.design))
        result = replace(result, design=query.design)
        self._cache_put("sta", key, result)
        return result, False

    def _q_pba(self, query: Query) -> "tuple[api.GoldenSlacksResult, bool]":
        k = query.param("k")
        k = int(k) if k is not None else self.context.pba_k
        key = keymod.pba_slacks_key(
            self.design_key(query.design), k,
            self.context.recalc_slew, "table",
        )
        hit = self._cache_get("pba", key)
        if hit is not None:
            return replace(hit, design=query.design), True
        result = api.golden_slacks_from_engine(
            self.engine(query.design), self.context, k
        )
        result = replace(result, design=query.design)
        self._cache_put("pba", key, result)
        return result, False

    def _q_fit(self, query: Query) -> "tuple[api.FitResult, bool]":
        overrides = {
            name: value for name, value in query.params
            if name in _FIT_PARAMS
        }
        ctx = self.context.replace(**overrides)
        key = keymod.fit_key(
            self.design_key(query.design), ctx.fit_fingerprint()
        )
        hit = self._cache_get("fit", key)
        if hit is not None:
            return replace(hit, design=query.design), True
        solve_cache = (
            _SolveCache(self.cache) if self.cache is not None else None
        )
        result = api.fit(
            self.engine(query.design), ctx,
            apply=False, solve_cache=solve_cache,
        )
        result = replace(result, design=query.design)
        self._cache_put("fit", key, result)
        return result, False

    def _q_explain(self, query: Query) -> "tuple[api.ExplainResult, bool]":
        endpoint = query.param("endpoint")
        top_k = query.param("top_k")
        top_k = int(top_k) if top_k is not None else 10
        key = keymod.explain_key(
            self.design_key(query.design), endpoint, top_k
        )
        hit = self._cache_get("explain", key)
        if hit is not None:
            return replace(hit, design=query.design), True
        result = api.explain_result_from_engine(
            self.engine(query.design), endpoint=endpoint, top_k=top_k
        )
        result = replace(result, design=query.design)
        self._cache_put("explain", key, result)
        return result, False

    def _q_scenarios(self, query: Query) \
            -> "tuple[api.ScenarioSweepResult, bool]":
        raw = query.param("corners")
        if raw is not None:
            pairs = [(str(n), float(s)) for n, s in raw]
        else:
            from repro.timing.corners import DEFAULT_CORNERS

            pairs = [(c.name, float(c.delay_scale)) for c in DEFAULT_CORNERS]
        key = keymod.scenario_key(self.design_key(query.design), pairs)
        hit = self._cache_get("scenarios", key)
        if hit is not None:
            return replace(hit, design=query.design), True
        result = api.run_scenarios(
            self.design(query.design), corners=pairs, context=self.context
        )
        result = replace(result, design=query.design)
        self._cache_put("scenarios", key, result)
        return result, False

    def _q_evaluate(self, query: Query) \
            -> "tuple[tuple[DesignReport, ...], bool]":
        names = query.param("designs")
        reports = api.evaluate(
            list(names) if names is not None else None,
            mgba=bool(query.param("mgba", False)),
            context=self.context,
        )
        return tuple(reports), False

    def _q_what_if(self, query: Query) -> "tuple[WhatIfResult, bool]":
        raw = query.param("candidates")
        if raw is None or isinstance(raw, str) or not len(raw):
            raise ServiceError(
                "what_if query needs a non-empty 'candidates' list "
                "(each entry an edit-spec list or ECO text)"
            )
        normalized = [normalize_candidate(c) for c in raw]
        dkey = self.design_key(query.design)
        scored: "dict[Any, CandidateResult]" = {}
        misses: "list[Any]" = []
        for candidate in normalized:
            if candidate in scored or candidate in misses:
                continue
            hit = self._cache_get(
                "what_if", keymod.what_if_key(dkey, candidate)
            )
            if hit is not None:
                scored[candidate] = hit
            else:
                misses.append(candidate)
        if misses:
            if self.context.executor().is_serial:
                # Apply/revert on the live engine: content is restored
                # exactly, so the design key never rotates.
                partial = evaluate_what_if(
                    query.design, misses, self.context,
                    engine=self.engine(query.design),
                )
            else:
                source: "str | Design" = (
                    query.design if self._rebuildable(query.design)
                    else self.design(query.design)
                )
                partial = evaluate_what_if(source, misses, self.context)
            baseline = (
                partial.wns_baseline, partial.tns_baseline,
                partial.violations_baseline,
            )
            for candidate, outcome in zip(misses, partial.candidates):
                scored[candidate] = outcome
                self._cache_put(
                    "what_if", keymod.what_if_key(dkey, candidate), outcome
                )
        else:
            first = scored[normalized[0]]
            baseline = (
                first.wns_before, first.tns_before,
                first.violations_before,
            )
        return WhatIfResult(
            design=query.design,
            wns_baseline=baseline[0],
            tns_baseline=baseline[1],
            violations_baseline=baseline[2],
            candidates=tuple(scored[c] for c in normalized),
        ), not misses

    def _q_min_period(self, query: Query) -> "tuple[MinPeriodResult, bool]":
        clock = query.param("clock")
        tolerance = float(query.param("tolerance", 1.0))
        max_iter = int(query.param("max_iter", 64))
        corner = query.param("corner")
        corner_label = ""
        if corner is not None:
            corner_label = f"{corner[0]}:{float(corner[1])!r}"
        key = keymod.min_period_key(
            self.design_key(query.design), clock, tolerance, max_iter,
            corner_label,
        )
        hit = self._cache_get("min_period", key)
        if hit is not None:
            return replace(hit, design=query.design), True
        if corner is None:
            engine = self.engine(query.design)
        else:
            # An ephemeral corner engine: scaled delays, same content
            # (min_period never mutates the design, so sharing the
            # bundle's netlist/constraints is safe).
            bundle = self.design(query.design)
            config = replace(
                bundle.sta_config,
                delay_scale=bundle.sta_config.delay_scale * float(corner[1]),
            )
            engine = STAEngine(
                bundle.netlist, bundle.constraints,
                getattr(bundle, "placement", None), config,
            )
            engine.update_timing()
        result = min_period_on_engine(
            engine, clock=clock, tolerance=tolerance, max_iter=max_iter,
            corner=corner_label,
        )
        result = replace(result, design=query.design)
        self._cache_put("min_period", key, result)
        return result, False

    def _run(self, query: Query,
             request_id: "str | None" = None) -> QueryResult:
        """Execute one query, capturing failures into the result.

        Every query runs under a ``service.query`` span tagged with a
        ``request_id`` (minted here when the batch layer did not pass
        one), and the ID rides thread-local baggage so each span the
        engine, PBA, and solvers open below is filterable per request.
        The wall time lands in the ``service.request.latency``
        histogram, and ``service.inflight`` tracks concurrency.
        """
        if request_id is None:
            request_id = new_request_id()
        start = time.perf_counter()
        counter("service.queries").inc()
        inflight = gauge("service.inflight")
        inflight.add(1)
        ok = False
        cached_flag: "bool | None" = None
        error_text: "str | None" = None
        try:
            with span(
                "service.query", op=query.op, design=query.design,
                request_id=request_id,
            ) as query_span, baggage(request_id=request_id):
                try:
                    handler = getattr(self, verb(query.op).handler)
                    result, cached = handler(query)
                except Exception as exc:
                    query_span.set(error_type=type(exc).__name__)
                    counter("service.request.errors").inc()
                    error_text = f"{type(exc).__name__}: {exc}"
                    default_flight_recorder().record_error(
                        kind=type(exc).__name__, message=str(exc),
                        traceback=traceback_mod.format_exc(),
                        request_id=request_id,
                    )
                    return QueryResult(
                        query=query, ok=False,
                        seconds=time.perf_counter() - start,
                        error=error_text,
                        request_id=request_id,
                    )
                query_span.set(cached=cached)
            ok, cached_flag = True, cached
            return QueryResult(
                query=query, ok=True, cached=cached,
                seconds=time.perf_counter() - start, result=result,
                request_id=request_id,
            )
        finally:
            inflight.add(-1)
            seconds = time.perf_counter() - start
            histogram(
                "service.request.latency", latency_buckets()
            ).observe(seconds)
            # The design key is read from the memo only — telemetry
            # must never trigger a key computation the request itself
            # did not.
            key = self._keys.get(query.design)
            note_request(
                op=query.op, request_id=request_id, seconds=seconds,
                ok=ok, cached=cached_flag, design=query.design,
                key_prefix=key.token[:12] if key is not None else "",
                error=error_text,
            )

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def submit(self, queries: "Sequence[Query | dict]",
               request_ids: "Sequence[str] | None" = None) \
            -> "list[QueryResult]":
        """Run a batch: coalesce duplicates, shard misses, keep order.

        Duplicate queries in one batch compute once and share the
        result object; distinct designs fan out one-design-per-worker
        through the context's executor (names a worker can rebuild —
        suite designs and ``fig2`` — only; bundle-registered designs
        run in process).  Results come back in input order.

        ``request_ids`` (aligned with ``queries``) lets the JSONL
        layer thread externally minted per-request IDs through to the
        spans and responses; coalesced duplicates share the ID of the
        request that computed.  Missing IDs are minted per unique
        query.
        """
        normalized = [Query.from_any(q) for q in queries]
        if request_ids is not None and len(request_ids) != len(normalized):
            raise ServiceError(
                f"request_ids length {len(request_ids)} != "
                f"queries length {len(normalized)}"
            )
        unique: "OrderedDict[Query, QueryResult | None]" = OrderedDict()
        ids: "dict[Query, str]" = {}
        for index, query in enumerate(normalized):
            unique.setdefault(query, None)
            if request_ids is not None:
                ids.setdefault(query, request_ids[index])
        coalesced = len(normalized) - len(unique)
        if coalesced:
            counter("service.coalesced").inc(coalesced)
        with span(
            "service.batch", queries=len(normalized),
            unique=len(unique), coalesced=coalesced,
        ):
            self._execute(unique, ids)
        return [unique[query] for query in normalized]  # type: ignore

    def _execute(self, unique: "OrderedDict[Query, QueryResult | None]",
                 ids: "dict[Query, str] | None" = None) -> None:
        ids = ids or {}
        executor = self.context.executor()
        pending = list(unique)
        shardable: "OrderedDict[str, list[Query]]" = OrderedDict()
        inline: "list[Query]" = []
        for query in pending:
            if (
                not executor.is_serial
                and query.op != "evaluate"
                and query.design
                and self._rebuildable(query.design)
            ):
                shardable.setdefault(query.design, []).append(query)
            else:
                inline.append(query)
        if len(shardable) > 1:
            jobs = [
                (
                    self.context, design, tuple(queries),
                    tuple(ids.get(q) for q in queries),
                )
                for design, queries in shardable.items()
            ]
            groups = executor.map(
                _run_query_group, jobs, chunk_size=1,
                label="service.batch",
            )
            for results in groups:
                for outcome in results:
                    unique[outcome.query] = outcome
        else:
            inline = pending
        for query in inline:
            if unique.get(query) is None:
                unique[query] = self._run(query, ids.get(query))

    def _rebuildable(self, name: str) -> bool:
        """Can a worker process reconstruct this design from its name?"""
        if name in self._bundles and name not in self._by_name:
            return False
        if name in self._factories:
            return False
        from repro.designs.suite import DESIGN_SPECS

        return name in DESIGN_SPECS or name in ("fig2", "paper_fig2")
