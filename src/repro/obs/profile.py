"""Span-scoped profiling: cProfile attached to chosen top-level spans.

Tracing answers *which stage* is slow; this module answers *which
function inside it*.  A :class:`SpanProfiler` installs into the span
machinery (:func:`repro.obs.trace.set_span_profiler`) and, whenever a
span whose name it claims opens — by default the flow's coarse stages
``mgba.run``, ``sta.update_timing``, and ``closure.run`` — wraps the
region in a :class:`cProfile.Profile`.  Stats from every profiled
region aggregate by function, so the thousands of incremental STA
updates inside a closure run fold into one self-time ranking.

cProfile cannot nest (and ``sta.update_timing`` *does* open inside
``closure.run``), so only the outermost claimed span on a thread
profiles; inner claimed spans are counted but skipped.  Profiling is
strictly opt-in — ``repro-sta --profile FILE`` — because cProfile
costs real overhead; nothing here runs when no profiler is installed.

The aggregate serializes as JSON (one record per function) and
``repro-sta obs-report --profile FILE`` renders the top-N self-time
table.
"""

from __future__ import annotations

import cProfile
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.report import load_json_object
from repro.obs.trace import set_span_profiler

#: The flow's coarse stages — where a profile answers "what dominates
#: a run" without drowning in per-call noise.
DEFAULT_PROFILED_SPANS = frozenset(
    {"mgba.run", "sta.update_timing", "closure.run"}
)

#: Version of the saved profile schema.
PROFILE_SCHEMA = 1


@dataclass(frozen=True)
class ProfileRow:
    """One function's aggregate across every profiled region."""

    func: str       #: ``file:lineno(name)`` or ``<builtin name>``
    calls: int
    self_seconds: float   #: time inside the function itself (tottime)
    cum_seconds: float    #: time including callees (cumtime)

    def to_dict(self) -> "dict[str, Any]":
        return {
            "func": self.func, "calls": self.calls,
            "self": self.self_seconds, "cum": self.cum_seconds,
        }


def _func_label(code: Any) -> str:
    if isinstance(code, str):   # builtin: cProfile stores a str
        return code
    return f"{code.co_filename}:{code.co_firstlineno}({code.co_name})"


class SpanProfiler:
    """Aggregating cProfile harness keyed on span names.

    ``start``/``stop`` are the :func:`repro.obs.trace.span` hook
    protocol; everything else reads the aggregate out.  Thread-safe in
    the narrow sense that matters: only one region profiles at a time
    (cProfile is per-thread and non-reentrant), claimed spans opening
    on other threads or nested inside a profiled region are tallied in
    :attr:`skipped` instead of crashing the run.
    """

    def __init__(self, names: "frozenset[str] | set[str] | None" = None):
        self.names = frozenset(
            names if names is not None else DEFAULT_PROFILED_SPANS
        )
        self.spans_profiled = 0
        self.skipped = 0
        self._lock = threading.Lock()
        self._active: "cProfile.Profile | None" = None
        self._active_name = ""
        self._active_thread = 0
        self._totals: "dict[str, list[float]]" = {}  # func -> [calls, self, cum]

    # ------------------------------------------------------------------
    # Span hook protocol
    # ------------------------------------------------------------------
    def start(self, name: str) -> bool:
        """Begin profiling ``name`` if claimed and nothing is active."""
        if name not in self.names:
            return False
        profile = cProfile.Profile()
        with self._lock:
            if self._active is not None:
                self.skipped += 1
                return False
            self._active = profile
            self._active_name = name
            self._active_thread = threading.get_ident()
        profile.enable()
        return True

    def stop(self, name: str) -> None:
        """Finish the active region and fold its stats in."""
        with self._lock:
            if (
                self._active is None
                or name != self._active_name
                or threading.get_ident() != self._active_thread
            ):
                return
            profile = self._active
            self._active = None
            self._active_name = ""
            self._active_thread = 0
        profile.disable()
        self._merge(profile)

    def _merge(self, profile: "cProfile.Profile") -> None:
        with self._lock:
            self.spans_profiled += 1
            for entry in profile.getstats():
                label = _func_label(entry.code)
                row = self._totals.get(label)
                if row is None:
                    row = self._totals[label] = [0, 0.0, 0.0]
                row[0] += entry.callcount
                row[1] += entry.inlinetime
                row[2] += entry.totaltime

    # ------------------------------------------------------------------
    # Reading the aggregate
    # ------------------------------------------------------------------
    def rows(self) -> "list[ProfileRow]":
        """Every function, self-time descending."""
        with self._lock:
            rows = [
                ProfileRow(func=func, calls=int(calls),
                           self_seconds=self_s, cum_seconds=cum_s)
                for func, (calls, self_s, cum_s) in self._totals.items()
            ]
        rows.sort(key=lambda r: (-r.self_seconds, r.func))
        return rows

    def top(self, n: int = 20) -> "list[ProfileRow]":
        return self.rows()[:n]

    def to_dict(self) -> "dict[str, Any]":
        return {
            "schema": PROFILE_SCHEMA,
            "spans": sorted(self.names),
            "spans_profiled": self.spans_profiled,
            "skipped": self.skipped,
            "rows": [row.to_dict() for row in self.rows()],
        }

    def save_json(self, path: Any) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


@contextmanager
def profiling(names: "set[str] | frozenset[str] | None" = None) \
        -> "Iterator[SpanProfiler]":
    """Scope-install a :class:`SpanProfiler`; restores the previous one."""
    profiler = SpanProfiler(names)
    previous = set_span_profiler(profiler)
    try:
        yield profiler
    finally:
        set_span_profiler(previous)


def load_profile(path: Any) -> "dict[str, Any] | None":
    """Load a saved profile, tolerantly (None when missing/garbled).

    A JSON object without ``rows`` is not a profile and reads as None.
    """
    data = load_json_object(path)
    return data if data is not None and "rows" in data else None


def format_profile(data: "dict[str, Any]", top: int = 20) -> str:
    """Render a saved profile as the top-N self-time table."""
    rows = data.get("rows") or []
    header_bits = (
        f"{data.get('spans_profiled', 0)} span(s) profiled"
        f" ({', '.join(data.get('spans', []))})"
    )
    if data.get("skipped"):
        header_bits += f", {data['skipped']} nested/concurrent skipped"
    if not rows:
        return f"{header_bits}\n(no profile samples)"
    shown = rows[:top] if top else rows
    func_width = max(len("function"), *(len(str(r["func"])) for r in shown))
    header = (
        f"{'function':<{func_width}}  {'calls':>9}  "
        f"{'self(s)':>9}  {'cum(s)':>9}"
    )
    lines = [header_bits, "", header, "-" * len(header)]
    for row in shown:
        lines.append(
            f"{row['func']:<{func_width}}  {row['calls']:>9}  "
            f"{row['self']:>9.4f}  {row['cum']:>9.4f}"
        )
    if top and len(rows) > top:
        lines.append(f"... ({len(rows) - top} more)")
    return "\n".join(lines)
