"""Reading traces back: JSONL parsing and per-stage breakdown tables.

The inverse of :meth:`repro.obs.trace.Tracer.export_jsonl`:
:func:`load_trace` re-assembles the span forest from a JSONL file, and
:func:`format_breakdown` renders it as the per-stage runtime table the
``repro-sta obs-report`` subcommand prints::

    stage                        calls   wall(s)    cpu(s)   self(s)      %
    closure.run                      1     12.41     12.38      0.52  100.0
      closure.mgba_fit               1      3.10      3.09      0.01   25.0
        mgba.run                     1      3.09      3.08      0.02   24.9
          mgba.select                1      0.41      0.41      0.41    3.3
    ...

Aggregation is by *tree path*: two spans count in the same row when
their name chain from the root matches, so repeated stages (every
``sta.update_timing`` inside the fix loop) fold into one row with a
call count instead of thousands of lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.obs.trace import Span, Tracer


def parse_records(records: "list[dict]") -> "list[Span]":
    """Rebuild the span forest from flattened records (see to_records)."""
    spans: dict[int, Span] = {}
    roots: list[Span] = []
    for record in records:
        span_obj = Span(
            name=record["name"],
            attrs=dict(record.get("attrs") or {}),
            start=record.get("start", 0.0),
            end=record.get("end"),
            cpu_start=record.get("cpu_start", 0.0),
            cpu_end=record.get("cpu_end"),
            error=record.get("error"),
        )
        spans[record["id"]] = span_obj
        parent = record.get("parent")
        if parent is None:
            roots.append(span_obj)
        else:
            try:
                spans[parent].children.append(span_obj)
            except KeyError:
                raise ValueError(
                    f"span {record['id']} references unknown parent {parent}"
                ) from None
    return roots


def load_trace(path) -> "list[Span]":
    """Load a JSONL trace file into its root spans."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return parse_records(records)


@dataclass
class BreakdownRow:
    """Aggregate of every span sharing one name chain from the root."""

    path: tuple[str, ...]
    calls: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    self_wall: float = 0.0
    errors: int = 0
    children: "dict[str, BreakdownRow]" = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1


#: Sort keys accepted by :func:`stage_breakdown` / ``obs-report --sort``.
SORT_KEYS = ("wall", "self", "calls")

_SORTERS = {
    "wall": lambda r: -r.wall,
    "self": lambda r: -r.self_wall,
    "calls": lambda r: -r.calls,
}


def stage_breakdown(roots: "list[Span]",
                    sort: str = "wall") -> "list[BreakdownRow]":
    """Fold a span forest into aggregated rows, one per name chain.

    ``sort`` orders siblings at every depth: ``wall`` (inclusive time,
    the default), ``self`` (exclusive time — where the work actually
    is), or ``calls`` (hot by invocation count).  The tree shape is
    preserved regardless; only sibling order changes.
    """
    if sort not in _SORTERS:
        raise ValueError(
            f"unknown sort key {sort!r}; choose from {SORT_KEYS}"
        )
    sorter = _SORTERS[sort]
    top: dict[str, BreakdownRow] = {}

    def fold(span_obj: Span, siblings: "dict[str, BreakdownRow]",
             prefix: tuple[str, ...]) -> None:
        path = prefix + (span_obj.name,)
        row = siblings.get(span_obj.name)
        if row is None:
            row = siblings[span_obj.name] = BreakdownRow(path=path)
        row.calls += 1
        row.wall += span_obj.duration
        row.cpu += span_obj.cpu_seconds
        row.self_wall += span_obj.self_seconds
        if span_obj.error is not None:
            row.errors += 1
        for child in span_obj.children:
            fold(child, row.children, path)

    for root in roots:
        fold(root, top, ())

    rows: list[BreakdownRow] = []

    def flatten(row: BreakdownRow) -> None:
        rows.append(row)
        for child in sorted(row.children.values(), key=sorter):
            flatten(child)

    for row in sorted(top.values(), key=sorter):
        flatten(row)
    return rows


def format_breakdown(roots: "list[Span]", sort: str = "wall",
                     top: "int | None" = None) -> str:
    """Render the per-stage runtime breakdown table.

    ``sort`` picks the sibling ordering (see :func:`stage_breakdown`);
    ``top`` truncates the table to its first N rows (depth-first, so
    the hottest subtrees survive the cut).
    """
    rows = stage_breakdown(roots, sort=sort)
    if not rows:
        return "(empty trace)"
    total_wall = sum(r.wall for r in rows if r.depth == 0) or 1.0
    truncated = 0
    if top is not None and top > 0 and len(rows) > top:
        truncated = len(rows) - top
        rows = rows[:top]
    name_width = max(
        len("stage"), *(2 * r.depth + len(r.name) for r in rows)
    )
    header = (
        f"{'stage':<{name_width}}  {'calls':>6}  {'wall(s)':>9}  "
        f"{'cpu(s)':>9}  {'self(s)':>9}  {'%':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        label = "  " * row.depth + row.name
        if row.errors:
            label += f" [!{row.errors}]"
        lines.append(
            f"{label:<{name_width}}  {row.calls:>6}  {row.wall:>9.3f}  "
            f"{row.cpu:>9.3f}  {row.self_wall:>9.3f}  "
            f"{100.0 * row.wall / total_wall:>6.1f}"
        )
    if truncated:
        lines.append(f"... ({truncated} more row(s); raise --top)")
    return "\n".join(lines)


def format_tracer(tracer: Tracer) -> str:
    """Breakdown of a live (in-memory) tracer."""
    return format_breakdown(tracer.roots)


def load_json_object(path: Any) -> "dict[str, Any] | None":
    """A file's JSON object, or ``None`` when there is none to read.

    ``None`` covers a missing, unreadable, empty, garbled, or
    non-object file — a run that crashed before writing its metrics,
    flight dump, or profile degrades an ``obs-report`` invocation to a
    note, not a traceback.
    """
    try:
        with open(path) as fh:
            data = json.loads(fh.read())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def load_metrics(path: Any) -> "dict[str, Any] | None":
    """Load a ``--metrics`` JSON snapshot (see :func:`load_json_object`)."""
    return load_json_object(path)


def format_metrics(snapshot: "dict") -> str:
    """Render a metrics snapshot (``MetricsRegistry.snapshot``) as a table."""
    if not snapshot:
        return "(no metrics recorded)"
    name_width = max(len("metric"), *(len(name) for name in snapshot))
    header = f"{'metric':<{name_width}}  {'type':<9}  value"
    lines = [header, "-" * len(header)]
    for name in sorted(snapshot):
        record = snapshot[name]
        if not isinstance(record, dict):
            lines.append(f"{name:<{name_width}}  {'?':<9}  {record}")
            continue
        kind = record.get("type", "?")
        if kind == "histogram":
            if record.get("count"):
                value = (
                    f"count={record.get('count')} "
                    f"mean={record.get('mean'):.4g} "
                    f"p50={record.get('p50'):.4g}"
                )
                if record.get("p95") is not None:
                    value += f" p95={record.get('p95'):.4g}"
                value += f" p99={record.get('p99'):.4g}"
                if record.get("max") is not None:
                    value += f" max={record.get('max'):.4g}"
            else:
                value = "count=0"
        else:
            raw = record.get("value")
            # Gauges like obs.rss_peak_mb carry long floats; compact them.
            value = f"{raw:.6g}" if isinstance(raw, float) else f"{raw}"
        lines.append(f"{name:<{name_width}}  {kind:<9}  {value}")
    return "\n".join(lines)
