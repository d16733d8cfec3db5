"""Shared benchmark fixtures.

Every table/figure bench pulls designs (and expensive intermediate
results) from the session-scoped caches here, so regenerating all
tables in one pytest run builds each design exactly once.

Environment knobs:

* ``REPRO_BENCH_DESIGNS`` — comma-separated subset (default: all ten).
* ``REPRO_BENCH_TRANSFORMS`` — closure move budget for Tables 2/5
  (default 150).
* ``REPRO_BENCH_METRICS_DIR`` — where each bench's metrics snapshot is
  written as ``BENCH_<name>.json`` (default ``bench_metrics/``; set
  empty to disable).
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.designs.suite import build_design, design_names
from repro.mgba.flow import MGBAConfig
from repro.opt.closure import ClosureConfig
from repro.timing.sta import STAEngine


def bench_design_names() -> list[str]:
    raw = os.environ.get("REPRO_BENCH_DESIGNS", "")
    if not raw:
        return design_names()
    chosen = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = set(chosen) - set(design_names())
    if unknown:
        raise ValueError(f"unknown designs in REPRO_BENCH_DESIGNS: {unknown}")
    return chosen


def closure_budget() -> int:
    return int(os.environ.get("REPRO_BENCH_TRANSFORMS", "150"))


#: Snapshot filenames already emitted this session.  Sanitizing node
#: names can collapse distinct parametrizations (``[a/b]`` and
#: ``[a.b]`` both sanitize to ``a_b``), so collisions get a monotonic
#: ``__N`` suffix instead of silently overwriting the earlier snapshot.
_snapshot_names: dict[str, int] = {}


def _snapshot_filename(node_name: str) -> str:
    base = re.sub(r"[^A-Za-z0-9_.-]+", "_", node_name)
    seen = _snapshot_names.get(base)
    _snapshot_names[base] = 0 if seen is None else seen + 1
    if seen is None:
        return f"BENCH_{base}.json"
    return f"BENCH_{base}__{seen + 1}.json"


@pytest.fixture(autouse=True)
def bench_metrics_snapshot(request):
    """Archive each bench's metrics as ``BENCH_<name>.json``.

    The process-wide registry is cleared before the bench and dumped
    after it, so every run of the suite leaves one JSON per bench —
    solver iteration counts, timing-update histograms, etc.  Work done lazily inside
    session-scoped caches lands in the bench that first triggered it.
    Filenames are collision-safe: two benches whose sanitized names
    coincide get distinct numbered snapshots.
    """
    directory = os.environ.get("REPRO_BENCH_METRICS_DIR", "bench_metrics")
    if not directory:
        yield
        return
    from repro.obs import default_registry

    registry = default_registry()
    registry.reset()
    yield
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry.save_json(out_dir / _snapshot_filename(request.node.name))


@pytest.fixture(scope="session")
def design_cache():
    """name -> Design, built on demand, pristine (do not mutate)."""
    cache: dict = {}

    def get(name: str):
        if name not in cache:
            cache[name] = build_design(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def engine_cache(design_cache):
    """name -> timing-updated clean GBA engine (do not mutate)."""
    cache: dict = {}

    def get(name: str) -> STAEngine:
        if name not in cache:
            design = design_cache(name)
            engine = STAEngine(
                design.netlist, design.constraints,
                design.placement, design.sta_config,
            )
            engine.update_timing()
            cache[name] = engine
        return cache[name]

    return get


@pytest.fixture(scope="session")
def comparison_cache():
    """name -> FlowComparison (shared by the Table 2 and Table 5 benches)."""
    from repro.designs.suite import design_factory
    from repro.opt.compare import run_flow_comparison

    cache: dict = {}

    def get(name: str):
        if name not in cache:
            cache[name] = run_flow_comparison(
                name,
                design_factory(name),
                ClosureConfig(
                    max_transforms=closure_budget(),
                    mgba=MGBAConfig(seed=0),
                ),
            )
        return cache[name]

    return get


def print_table(title: str, headers: list[str], rows: list[list],
                note: str = "") -> None:
    """Uniform fixed-width table printer for all benches."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    if note:
        print(note)
