"""The mGBA service layer: cached artifacts + batched timing queries.

Three pieces compose here (see ``docs/service.md``):

* :mod:`repro.service.keys` — content addresses for every expensive
  artifact (STA state, PBA golden slacks, fitted ``x*`` vectors);
* :mod:`repro.service.store` — the two-tier cache (in-process LRU over
  an on-disk store under ``.repro_cache/``);
* :mod:`repro.service.registry` — the declarative verb table every
  dispatcher (service, JSONL layer, CLI, docs) derives from;
* :mod:`repro.service.engine` — the :class:`TimingService` that
  answers coalesced, sharded batches of registry verbs (``sta``,
  ``pba_slacks``, ``mgba_fit``, ``evaluate``, ``explain``,
  ``scenario_sweep``, ``what_if``, ``min_period``);
* :mod:`repro.service.batch` — the versioned JSONL protocol behind
  ``repro-sta batch`` and ``repro-sta serve``;
* :mod:`repro.service.suite` — design-suite fan-out.
"""

from repro.service.batch import (
    PROTOCOL_VERSION,
    ServeStats,
    run_batch,
    serve,
    write_responses,
)
from repro.service.engine import (
    Query,
    QueryResult,
    ServiceError,
    TimingService,
    new_request_id,
)
from repro.service.keys import DesignKey, design_key, netlist_hash
from repro.service.registry import (
    CONTROL_OPS,
    QUERY_OPS,
    VERBS,
    Verb,
    verb,
    verb_table_markdown,
)
from repro.service.store import (
    ARTIFACT_CLASSES,
    SCHEMA_VERSION,
    ArtifactCache,
    DiskStore,
    LRUCache,
)
from repro.service.suite import DesignReport, evaluate_design, evaluate_suite

__all__ = [
    "ARTIFACT_CLASSES",
    "CONTROL_OPS",
    "ArtifactCache",
    "DesignKey",
    "DesignReport",
    "DiskStore",
    "LRUCache",
    "PROTOCOL_VERSION",
    "QUERY_OPS",
    "Query",
    "QueryResult",
    "SCHEMA_VERSION",
    "ServeStats",
    "ServiceError",
    "TimingService",
    "VERBS",
    "Verb",
    "design_key",
    "verb",
    "verb_table_markdown",
    "evaluate_design",
    "evaluate_suite",
    "netlist_hash",
    "new_request_id",
    "run_batch",
    "serve",
    "write_responses",
]
