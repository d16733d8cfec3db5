"""The flight recorder: an always-on, bounded post-mortem buffer.

A production timing service cannot afford to trace everything all the
time, but when a request fails the *recent* history is exactly what a
post-mortem needs.  The :class:`FlightRecorder` is the compromise: a
thread-safe, fixed-capacity ring buffer that passively captures

* the last N **completed spans** (name, wall seconds, error, and the
  ``request_id`` baggage when present) — fed by
  :func:`repro.obs.trace.span` through a one-``is None``-check seam,
  so the hot path cost is one lock + one deque append;
* the last M **service requests** (verb, request id, design, cache-key
  prefix, cache hit/miss, latency, ok/error) — fed by the
  :class:`~repro.service.engine.TimingService` dispatch path;
* the last E **error records** with full tracebacks.

The recorder never grows past its capacities (``collections.deque``
with ``maxlen``), never raises into the paths that feed it, and dumps
to a schema-versioned JSON document (:meth:`FlightRecorder.dump` /
:meth:`FlightRecorder.save_json`) that ``repro-sta obs-report
--flight`` renders and :func:`repro.service.batch.serve` writes
automatically on any error-path exit — so every exit-2 comes with its
recent history.  See ``docs/observability.md`` and the dump schema in
``docs/formats.md``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any

from repro.obs.report import load_json_object

#: Bump on any backward-incompatible change to the dump document.
FLIGHT_SCHEMA_VERSION = 1

#: Default ring capacities: sized so a dump stays a few hundred KB at
#: most while still covering minutes of moderate service traffic.
DEFAULT_MAX_SPANS = 256
DEFAULT_MAX_REQUESTS = 512
DEFAULT_MAX_ERRORS = 64


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, reduced to what a post-mortem needs."""

    name: str
    seconds: float
    error: "str | None" = None
    request_id: "str | None" = None
    when: float = 0.0  #: time.time() at close


@dataclass(frozen=True)
class RequestRecord:
    """One service request as the dispatch layer saw it.

    ``cached`` is ``None`` for control verbs (``stats``, ``health``,
    ``metrics_export``) — they never touch the artifact cache, so a
    cache-hit-ratio SLO must not count them.
    """

    verb: str
    request_id: str = ""
    design: str = ""
    key_prefix: str = ""
    cached: "bool | None" = None
    ok: bool = True
    seconds: float = 0.0
    error: "str | None" = None
    when: float = 0.0


@dataclass(frozen=True)
class ErrorRecord:
    """One captured failure, traceback included."""

    kind: str
    message: str
    traceback: str = ""
    request_id: "str | None" = None
    when: float = 0.0


@dataclass
class _Totals:
    """Lifetime counts (the rings only retain the newest entries)."""

    spans: int = 0
    requests: int = 0
    errors: int = 0


class FlightRecorder:
    """Thread-safe fixed-capacity rings of spans/requests/errors.

    One lock guards all three rings: every feed path does a single
    append under it, so records are never torn and the capacity bound
    holds under arbitrary concurrency (hammer-tested in
    ``tests/obs/test_flight.py``).
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS,
                 max_requests: int = DEFAULT_MAX_REQUESTS,
                 max_errors: int = DEFAULT_MAX_ERRORS):
        self._spans: "deque[SpanRecord]" = deque(maxlen=max_spans)
        self._requests: "deque[RequestRecord]" = deque(maxlen=max_requests)
        self._errors: "deque[ErrorRecord]" = deque(maxlen=max_errors)
        self._totals = _Totals()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Feed paths (never raise)
    # ------------------------------------------------------------------
    def record_span(self, name: str, seconds: float,
                    error: "str | None" = None,
                    request_id: "str | None" = None) -> None:
        record = SpanRecord(
            name=name, seconds=seconds, error=error,
            request_id=request_id, when=time.time(),
        )
        with self._lock:
            self._spans.append(record)
            self._totals.spans += 1

    def record_request(self, verb: str, request_id: str = "",
                       design: str = "", key_prefix: str = "",
                       cached: "bool | None" = None, ok: bool = True,
                       seconds: float = 0.0,
                       error: "str | None" = None) -> None:
        record = RequestRecord(
            verb=verb, request_id=request_id, design=design,
            key_prefix=key_prefix, cached=cached, ok=ok,
            seconds=seconds, error=error, when=time.time(),
        )
        with self._lock:
            self._requests.append(record)
            self._totals.requests += 1

    def record_error(self, kind: str, message: str, traceback: str = "",
                     request_id: "str | None" = None) -> None:
        record = ErrorRecord(
            kind=kind, message=message, traceback=traceback,
            request_id=request_id, when=time.time(),
        )
        with self._lock:
            self._errors.append(record)
            self._totals.errors += 1

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def spans(self) -> "list[SpanRecord]":
        with self._lock:
            return list(self._spans)

    def requests(self) -> "list[RequestRecord]":
        with self._lock:
            return list(self._requests)

    def errors(self) -> "list[ErrorRecord]":
        with self._lock:
            return list(self._errors)

    def clear(self) -> None:
        """Drop everything (tests / per-session isolation)."""
        with self._lock:
            self._spans.clear()
            self._requests.clear()
            self._errors.clear()
            self._totals = _Totals()

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def dump(self) -> "dict[str, Any]":
        """The schema-versioned post-mortem document (JSON-able)."""
        with self._lock:
            spans = [asdict(r) for r in self._spans]
            requests = [asdict(r) for r in self._requests]
            errors = [asdict(r) for r in self._errors]
            totals = {
                "spans": self._totals.spans,
                "requests": self._totals.requests,
                "errors": self._totals.errors,
            }
        return {
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "dumped_at": time.time(),
            "pid": os.getpid(),
            "recorded": totals,       # lifetime counts
            "retained": {             # what the rings still hold
                "spans": len(spans),
                "requests": len(requests),
                "errors": len(errors),
            },
            "spans": spans,
            "requests": requests,
            "errors": errors,
        }

    def save_json(self, path: Any) -> None:
        """Write the dump atomically (tmp file + ``os.replace``).

        Atomic so a dump racing a crash (its whole reason to exist)
        never leaves a half-written document behind.
        """
        document = self.dump()
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(document, fh, indent=2, default=str)
            fh.write("\n")
        os.replace(tmp, path)


_default = FlightRecorder()


def default_flight_recorder() -> FlightRecorder:
    """The process-wide recorder every feed path writes to."""
    return _default


def load_flight(path: Any) -> "dict[str, Any] | None":
    """Load a flight dump (see :func:`repro.obs.report.load_json_object`)."""
    return load_json_object(path)


def format_flight(dump: "dict[str, Any]", top: "int | None" = None) -> str:
    """Render a flight dump as the recent-requests table.

    Newest requests last (the tail is what a post-mortem reads first);
    error records follow with their tracebacks truncated to the last
    frame line.  ``top`` keeps only the newest N request rows.
    """
    requests = list(dump.get("requests") or [])
    errors = list(dump.get("errors") or [])
    retained = dump.get("retained") or {}
    recorded = dump.get("recorded") or {}
    lines = [
        f"schema v{dump.get('schema_version', '?')}, pid "
        f"{dump.get('pid', '?')}: "
        f"{retained.get('requests', len(requests))} request(s) retained "
        f"of {recorded.get('requests', '?')} recorded, "
        f"{retained.get('errors', len(errors))} error(s), "
        f"{retained.get('spans', '?')} span(s)",
    ]
    if top is not None and top > 0 and len(requests) > top:
        dropped = len(requests) - top
        requests = requests[-top:]
        lines.append(f"... ({dropped} older request(s) hidden; raise --top)")
    if requests:
        header = (
            f"{'verb':<15} {'design':<8} {'cache':<6} {'ok':<4} "
            f"{'seconds':>9}  {'request_id':<16} error"
        )
        lines += ["", header, "-" * len(header)]
        for record in requests:
            cached = record.get("cached")
            cache = "-" if cached is None else ("hit" if cached else "miss")
            error = record.get("error") or ""
            lines.append(
                f"{record.get('verb', '?'):<15} "
                f"{record.get('design') or '-':<8} {cache:<6} "
                f"{'yes' if record.get('ok') else 'NO':<4} "
                f"{record.get('seconds', 0.0):>9.4f}  "
                f"{record.get('request_id') or '-':<16} {error}"
            )
    else:
        lines.append("(no requests recorded)")
    if errors:
        lines.append("")
        lines.append(f"{len(errors)} recent error(s):")
        for record in errors:
            rid = record.get("request_id")
            tag = f" [{rid}]" if rid else ""
            lines.append(
                f"  {record.get('kind', '?')}{tag}: "
                f"{record.get('message', '')}"
            )
            tb = (record.get("traceback") or "").strip().splitlines()
            if tb:
                lines.append(f"    {tb[-1].strip()}")
    return "\n".join(lines)


# Install the default recorder as the span-close seam: importing this
# module (which ``repro.obs`` always does) turns passive span capture
# on.  Kept at the bottom so the import cannot run before the
# recorder exists.
from repro.obs import trace as _trace  # noqa: E402

_trace.set_flight_recorder(_default)

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "ErrorRecord",
    "FlightRecorder",
    "RequestRecord",
    "SpanRecord",
    "default_flight_recorder",
    "format_flight",
    "load_flight",
]
