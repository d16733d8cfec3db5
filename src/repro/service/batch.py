"""JSONL batch protocol: stream queries in, stream results out.

This is the wire format behind ``repro-sta batch`` and ``repro-sta
serve`` (see ``docs/service.md``).  One request per line::

    {"id": 1, "op": "sta", "design": "D1"}
    {"id": 2, "op": "pba_slacks", "design": "D1", "k": 32}
    {"id": 3, "op": "mgba_fit", "design": "D1", "solver": "pgd"}

and one response per request, same ``id``, in request order::

    {"id": 1, "v": 1, "op": "sta", "design": "D1", "ok": true,
     "cached": false, "seconds": 0.41, "request_id": "r712-000001",
     "result": {...}}

``"v"`` is :data:`PROTOCOL_VERSION`, stamped on every response record
— success, control, and error alike.  The verb set (queries *and* the
control verbs below) comes from :mod:`repro.service.registry`; this
layer never hard-codes an op name.

Every request is minted a process-unique ``request_id`` the moment it
is parsed; the ID is echoed in the response **and** stamped (via span
baggage) on every tracing span the request opens down through the
engine and solvers, so a trace is filterable per request.  Coalesced
duplicates in one batch share the ID of the request that computed.

Two *control verbs* are answered by the protocol layer itself, without
consuming a timing query:

* ``{"op": "stats"}`` — request/cache/latency statistics
  (:meth:`~repro.service.engine.TimingService.stats`);
* ``{"op": "health"}`` — a cheap liveness summary.

A malformed line or failed query produces an error record
(``"ok": false`` plus ``"error"``) instead of aborting the stream —
a batch file with one typo still computes the other N-1 queries.  A
line that fails before reaching the service names itself: its error
starts ``line N:`` (1-based, blank lines counted), under both entry
points.

``run_batch`` reads the whole input and submits it as **one** batch,
so duplicates coalesce; ``serve`` answers line-by-line (flushing
after each response) for interactive front-ends that pipeline
requests, and reports how many error records it emitted so the CLI
can exit non-zero.
"""

from __future__ import annotations

import json
import time
import traceback as traceback_mod
from dataclasses import dataclass, field
from typing import Any, Iterable, TextIO

from repro.obs.flight import default_flight_recorder
from repro.obs.trace import span
from repro.service.engine import (
    Query,
    QueryResult,
    TimingService,
    new_request_id,
    note_request,
)
from repro.service.registry import CONTROL_OPS, VERBS, verb

#: Version of the JSONL response schema, echoed as ``"v"`` on every
#: response record (success, control, and error alike) so clients can
#: detect protocol changes without sniffing field shapes.  Bump on any
#: backward-incompatible response change.
PROTOCOL_VERSION = 1


def parse_request(line: str) -> "dict[str, Any]":
    """One JSONL line → request dict; raises ValueError when malformed."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(
            f"request must be a JSON object, got {type(record).__name__}"
        )
    return record


def _error_record(request_id: Any, message: str) -> "dict[str, Any]":
    record: "dict[str, Any]" = {
        "v": PROTOCOL_VERSION, "ok": False, "error": message,
    }
    if request_id is not None:
        record = {"id": request_id, **record}
    return record


def _response(request_id: Any, outcome: QueryResult) -> "dict[str, Any]":
    record = {"v": PROTOCOL_VERSION, **outcome.to_dict()}
    if request_id is not None:
        record = {"id": request_id, **record}
    return record


def _control_response(service: TimingService,
                      record: "dict[str, Any]") -> "dict[str, Any]":
    """Answer a control verb (``stats``/``health``/``metrics_export``).

    Control verbs never reach :meth:`TimingService._run`, so this is
    where their per-verb telemetry and flight-recorder request records
    come from (the same :func:`~repro.service.engine.note_request`
    choke point the query path uses).
    """
    op = record["op"]
    request_id = new_request_id()
    start = time.perf_counter()
    payload = getattr(service, verb(op).handler)()
    note_request(
        op=op, request_id=request_id,
        seconds=time.perf_counter() - start, ok=True,
    )
    response: "dict[str, Any]" = {
        "v": PROTOCOL_VERSION, "op": op, "ok": True,
        "request_id": request_id, "result": payload,
    }
    if record.get("id") is not None:
        response = {"id": record["id"], **response}
    return response


def run_batch(service: TimingService,
              lines: "Iterable[str]") -> "list[dict[str, Any]]":
    """Parse a JSONL request stream, run it as one coalesced batch.

    Returns response records in request order; parse failures become
    error records in place, without consuming a service query, and
    control verbs (``stats`` / ``health``) are answered *after* the
    batch computes — so a trailing ``stats`` line observes the cache
    traffic of the requests above it.
    """
    #: (kind, payload) per request line, in order.  Kinds:
    #: "query" -> (line id, Query, request_id); "control" -> record;
    #: "error" -> (line id, message).
    entries: "list[tuple[str, Any]]" = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = parse_request(text)
            if record.get("op") in CONTROL_OPS:
                entries.append(("control", record))
            else:
                entries.append(("query", (
                    record.get("id"), Query.from_any(record),
                    new_request_id(),
                )))
        except Exception as exc:
            entries.append(("error", (
                None, f"line {lineno}: {type(exc).__name__}: {exc}"
            )))
    queries = [p[1] for kind, p in entries if kind == "query"]
    request_ids = [p[2] for kind, p in entries if kind == "query"]
    with span("service.run_batch", requests=len(entries)):
        outcomes = iter(service.submit(queries, request_ids=request_ids))
    responses: "list[dict[str, Any]]" = []
    for kind, payload in entries:
        if kind == "error":
            line_id, message = payload
            responses.append(_error_record(line_id, message))
        elif kind == "control":
            responses.append(_control_response(service, payload))
        else:
            line_id, _query, _rid = payload
            responses.append(_response(line_id, next(outcomes)))
    return responses


def write_responses(responses: "Iterable[dict[str, Any]]",
                    stream: TextIO) -> int:
    """Emit response records as JSONL; returns how many were written."""
    count = 0
    for record in responses:
        stream.write(json.dumps(record, default=str) + "\n")
        count += 1
    return count


@dataclass(frozen=True)
class ServeStats:
    """What one :func:`serve` session did.

    ``by_verb`` always carries one ``(op, served, errors)`` row per
    verb in the registry, in registry order — the row set is a
    projection of :data:`~repro.service.registry.VERBS`, so it can
    never drift from the ops the service dispatches (rows for verbs
    the session never saw are zero, not absent).
    """

    served: int = 0   #: responses written (errors included)
    errors: int = 0   #: error records among them
    by_verb: "tuple[tuple[str, int, int], ...]" = field(
        default_factory=lambda: tuple((v.op, 0, 0) for v in VERBS)
    )
    flight_dump: "str | None" = None  #: post-mortem path, when written
    slo_ok: "bool | None" = None      #: SLO verdict (None: no spec)


def serve(service: TimingService, in_stream: TextIO,
          out_stream: TextIO,
          flight_dump: "Any | None" = None) -> ServeStats:
    """Answer requests line-by-line until EOF.

    Each response is flushed immediately, so a front-end driving the
    service through pipes sees every answer as soon as it is computed.
    Unlike :func:`run_batch` there is no cross-request coalescing —
    but the artifact cache still makes repeats cheap.  Returns a
    :class:`ServeStats` so the CLI can exit non-zero when any request
    failed (malformed line or query error) while still having served
    the rest.

    ``flight_dump`` names the post-mortem file: whenever the session
    ends on the error path — any error record served, or an exception
    escaping the loop — the process flight recorder is dumped there,
    so every exit-2 comes with its recent history.  ``None`` disables
    the dump.
    """
    served = 0
    errors = 0
    counts = {v.op: [0, 0] for v in VERBS}

    def _dump() -> "str | None":
        if flight_dump is None:
            return None
        try:
            default_flight_recorder().save_json(flight_dump)
        except OSError:
            return None  # the dump must never mask the real failure
        return str(flight_dump)

    try:
        for lineno, line in enumerate(in_stream, start=1):
            text = line.strip()
            if not text:
                continue
            record: "dict[str, Any] | None" = None
            try:
                record = parse_request(text)
                if record.get("op") in CONTROL_OPS:
                    response = _control_response(service, record)
                else:
                    query = Query.from_any(record)
                    outcome = service.submit(
                        [query], request_ids=[new_request_id()]
                    )[0]
                    response = _response(record.get("id"), outcome)
            except Exception as exc:
                # Echo the request id when the line parsed far enough
                # to have one, and name the line, as run_batch does, so
                # clients can correlate the failure either way.
                line_id = (
                    record.get("id") if isinstance(record, dict) else None
                )
                response = _error_record(
                    line_id, f"line {lineno}: {type(exc).__name__}: {exc}"
                )
                default_flight_recorder().record_error(
                    kind=type(exc).__name__, message=str(exc),
                    traceback=traceback_mod.format_exc(),
                )
            failed = not response.get("ok")
            if failed:
                errors += 1
            op = response.get("op")
            if op in counts:
                counts[op][0] += 1
                if failed:
                    counts[op][1] += 1
            out_stream.write(json.dumps(response, default=str) + "\n")
            out_stream.flush()
            served += 1
    except BaseException as exc:
        # A crash of the serve loop itself is the flight recorder's
        # prime use case: capture it, dump, and re-raise unchanged.
        default_flight_recorder().record_error(
            kind=type(exc).__name__, message=str(exc),
            traceback=traceback_mod.format_exc(),
        )
        _dump()
        raise
    dump_path = _dump() if errors else None
    slo = service.slo_status()
    return ServeStats(
        served=served, errors=errors,
        by_verb=tuple(
            (v.op, counts[v.op][0], counts[v.op][1]) for v in VERBS
        ),
        flight_dump=dump_path,
        slo_ok=None if slo is None else bool(slo["ok"]),
    )
