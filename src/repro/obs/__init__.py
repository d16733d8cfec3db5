"""Observability layer: tracing spans, metrics, solver telemetry.

Three independent, zero-dependency facilities the rest of the library
is instrumented with (see ``docs/observability.md`` for the tour):

* :mod:`repro.obs.trace` — hierarchical :func:`span` context managers
  with wall/CPU time and attributes, collected by a :class:`Tracer`
  and exportable as JSONL or Chrome ``trace_event`` files;
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  of counters, gauges, and fixed-bucket histograms;
* :mod:`repro.obs.telemetry` — per-iteration :class:`IterationStats`
  callbacks published by the mGBA solvers;
* :mod:`repro.obs.profile` — opt-in span-scoped cProfile
  (``repro-sta --profile``);
* :mod:`repro.obs.flight` — the always-on bounded flight recorder
  (last N spans / M requests / E errors), dumped on serve failures;
* :mod:`repro.obs.expo` — OpenMetrics text exposition of the registry
  plus the ``--expose-metrics`` HTTP scrape endpoint;
* :mod:`repro.obs.slo` — declarative latency/error/cache objectives
  evaluated over the flight window.

Everything is importable from the package root::

    from repro.obs import span, tracing, counter, record_iterations
"""

from repro.obs.expo import (
    CONTENT_TYPE,
    MetricsServer,
    render_openmetrics,
    start_metrics_server,
)
from repro.obs.flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    default_flight_recorder,
    format_flight,
    load_flight,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    default_registry,
    gauge,
    histogram,
    labeled,
    latency_buckets,
)
from repro.obs.slo import (
    SLOReport,
    SLOSpec,
    evaluate_slo,
    format_slo_report,
    load_slo_spec,
)
from repro.obs.report import (
    format_breakdown,
    format_metrics,
    format_tracer,
    load_metrics,
    load_trace,
    stage_breakdown,
)
from repro.obs.profile import (
    DEFAULT_PROFILED_SPANS,
    SpanProfiler,
    format_profile,
    load_profile,
    profiling,
)
from repro.obs.telemetry import (
    IterationStats,
    iteration_callbacks,
    record_iterations,
    subscribe,
    unsubscribe,
)
from repro.obs.trace import (
    Span,
    Tracer,
    baggage,
    current_baggage,
    current_span,
    current_tracer,
    install_tracer,
    sample_peak_rss_mb,
    set_span_profiler,
    span,
    tracing,
    uninstall_tracer,
)

__all__ = [
    # tracing
    "Span", "Tracer", "span", "tracing",
    "install_tracer", "uninstall_tracer",
    "current_tracer", "current_span",
    "baggage", "current_baggage", "set_span_profiler",
    "sample_peak_rss_mb",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "default_registry", "counter", "gauge", "histogram",
    "labeled", "latency_buckets",
    # flight recorder
    "FLIGHT_SCHEMA_VERSION", "FlightRecorder",
    "default_flight_recorder", "format_flight", "load_flight",
    # exposition
    "CONTENT_TYPE", "MetricsServer",
    "render_openmetrics", "start_metrics_server",
    # SLOs
    "SLOReport", "SLOSpec", "evaluate_slo", "format_slo_report",
    "load_slo_spec",
    # telemetry
    "IterationStats", "subscribe", "unsubscribe",
    "iteration_callbacks", "record_iterations",
    # reports
    "load_trace", "stage_breakdown", "format_breakdown", "format_tracer",
    "load_metrics", "format_metrics",
    # profiling
    "DEFAULT_PROFILED_SPANS", "SpanProfiler", "profiling",
    "load_profile", "format_profile",
]
