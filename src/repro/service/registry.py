"""The declarative service verb registry: one table, four consumers.

Every operation the timing service speaks — query verbs that take a
design and return a frozen result, and control verbs that introspect
the process — is declared **once** here as a :class:`Verb` row.  The
dispatcher (``TimingService._run``), the JSONL batch/serve layer, the
CLI, and the documentation all derive from this table:

* ``QUERY_OPS`` / ``CONTROL_OPS`` are projections of ``VERBS`` —
  :class:`~repro.service.engine.Query` validates against the former,
  ``run_batch``/``serve`` route control records by the latter;
* ``verb(op).handler`` names the bound method to call, so adding a
  verb is one registry row plus one handler — no if/elif chain to
  thread through four files;
* :func:`verb_table_markdown` renders the table that ``docs/api.md``
  and ``docs/service.md`` embed verbatim (a tier-1 test diffs the docs
  against this function, so the table cannot drift).

The registry is deliberately import-light: it knows verb *metadata*
only, never engine or result types, so ``engine``, ``batch``, the CLI,
and the docs test can all import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verb:
    """One service operation's complete declarative description.

    ``handler`` is the method name on :class:`TimingService` that
    serves it — ``_q_*`` handlers take a ``Query`` and return
    ``(result, cached)``; control handlers take nothing and return a
    plain dict.  ``request_fields`` are the optional JSONL request
    fields beyond ``op``/``design``/``id``; ``cache_key`` names the
    :mod:`repro.service.keys` function (or the reason there is none);
    ``artifact_class`` is the :data:`~repro.service.store.ARTIFACT_CLASSES`
    bucket cached results live in ("" = uncached), read by the
    service's one cached-handler path; ``result_schema``
    summarizes the response's ``result`` payload.
    """

    op: str
    kind: str  # "query" | "control"
    handler: str
    summary: str
    request_fields: "tuple[str, ...]" = ()
    cache_key: str = ""
    artifact_class: str = ""
    result_schema: str = ""


#: Every verb the service speaks, in pipeline order (queries first).
VERBS: "tuple[Verb, ...]" = (
    Verb(
        op="sta", kind="query", handler="_q_sta",
        summary="GBA timing of one design",
        request_fields=(),
        cache_key="design_key(...).token",
        artifact_class="sta",
        result_schema="STAResult: wns/tns/violations/endpoints/slacks",
    ),
    Verb(
        op="pba_slacks", kind="query", handler="_q_pba",
        summary="Golden PBA endpoint slacks",
        request_fields=("k",),
        cache_key="pba_slacks_key(design, k, recalc_slew, variation)",
        artifact_class="pba",
        result_schema="GoldenSlacksResult: k/slacks",
    ),
    Verb(
        op="mgba_fit", kind="query", handler="_q_fit",
        summary="mGBA correction fit",
        request_fields=(
            "solver", "seed", "epsilon", "penalty", "k_per_endpoint",
            "max_paths", "recalc_slew",
        ),
        cache_key="fit_key(design, fit_fingerprint)",
        artifact_class="fit",
        result_schema="FitResult: weights/mse/pass ratios/slack vectors",
    ),
    Verb(
        op="evaluate", kind="query", handler="_q_evaluate",
        summary="Suite evaluation of the live engines",
        request_fields=("designs", "mgba"),
        cache_key="(uncached: live engines, in process)",
        artifact_class="",
        result_schema="list[DesignReport]",
    ),
    Verb(
        op="explain", kind="query", handler="_q_explain",
        summary="Slack provenance attribution",
        request_fields=("endpoint", "top_k"),
        cache_key="explain_key(design, endpoint, top_k)",
        artifact_class="explain",
        result_schema="ExplainResult: per-arc pessimism attribution",
    ),
    Verb(
        op="scenario_sweep", kind="query", handler="_q_scenarios",
        summary="Multi-corner signoff matrix",
        request_fields=("corners",),
        cache_key="scenario_key(design, corners)",
        artifact_class="scenarios",
        result_schema="ScenarioSweepResult: setup/hold/merged/dominant",
    ),
    Verb(
        op="what_if", kind="query", handler="_q_what_if",
        summary="Batched ECO candidate evaluation",
        request_fields=("candidates",),
        cache_key="what_if_key(design, candidate) per candidate",
        artifact_class="what_if",
        result_schema="WhatIfResult: per-candidate deltas/touched/eco",
    ),
    Verb(
        op="min_period", kind="query", handler="_q_min_period",
        summary="Binary-search the min feasible clock period",
        request_fields=("clock", "tolerance", "max_iter", "corner"),
        cache_key="min_period_key(design, clock, tolerance, "
                  "max_iter, corner)",
        artifact_class="min_period",
        result_schema="MinPeriodResult: period/bracket/iterations",
    ),
    Verb(
        op="stats", kind="control", handler="stats",
        summary="Request/cache/latency statistics",
        request_fields=(),
        cache_key="(control: live process state)",
        artifact_class="",
        result_schema="dict: queries/errors/cache/latency percentiles",
    ),
    Verb(
        op="health", kind="control", handler="health",
        summary="Cheap liveness summary plus SLO status",
        request_fields=(),
        cache_key="(control: live process state)",
        artifact_class="",
        result_schema="dict: status/uptime/designs/engines/slo",
    ),
    Verb(
        op="metrics_export", kind="control", handler="metrics_export",
        summary="OpenMetrics exposition of the metrics registry",
        request_fields=(),
        cache_key="(control: live process state)",
        artifact_class="",
        result_schema="dict: format/content_type/text (OpenMetrics)",
    ),
)

VERBS_BY_OP: "dict[str, Verb]" = {v.op: v for v in VERBS}

#: Query operations, in pipeline order (projection of the registry).
QUERY_OPS: "tuple[str, ...]" = tuple(
    v.op for v in VERBS if v.kind == "query"
)

#: Control operations answered at the protocol layer.
CONTROL_OPS: "tuple[str, ...]" = tuple(
    v.op for v in VERBS if v.kind == "control"
)


def verb(op: str) -> Verb:
    """The registry row for one op (raises ``KeyError`` on unknowns)."""
    return VERBS_BY_OP[op]


def verb_table_markdown() -> str:
    """The docs' verb table, rendered from the registry.

    ``docs/api.md`` and ``docs/service.md`` embed this output verbatim
    between ``<!-- verb-table:begin -->`` / ``<!-- verb-table:end -->``
    markers; ``tests/service/test_registry.py`` regenerates it and
    diffs, so the docs can never describe a verb the service does not
    dispatch (or miss one it does).
    """
    lines = [
        "| op | kind | request fields | cache key | result |",
        "|---|---|---|---|---|",
    ]
    for row in VERBS:
        fields = ", ".join(
            f"`{name}`" for name in row.request_fields
        ) or "—"
        lines.append(
            f"| `{row.op}` | {row.kind} | {fields} "
            f"| `{row.cache_key}` | {row.result_schema} |"
        )
    return "\n".join(lines)
