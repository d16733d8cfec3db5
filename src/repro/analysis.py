"""Pessimism analysis: where GBA lies, and by how much.

The report every user of this framework wants first: per endpoint, the
GBA slack, the golden (PBA) slack, the pessimism between them, and
whether the endpoint is a *phantom violation* — failing under GBA but
actually met.  Phantom violations are the direct cost of pessimism: a
GBA-driven flow spends area, leakage, and runtime fixing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.metrics import counter
from repro.pba.engine import PBAEngine
from repro.timing.sta import STAEngine


@dataclass(frozen=True)
class EndpointPessimism:
    """One endpoint's GBA-vs-golden comparison."""

    name: str
    gba_slack: float
    golden_slack: float

    @property
    def pessimism(self) -> float:
        """Golden minus GBA slack (>= 0; inf for all-false endpoints)."""
        return self.golden_slack - self.gba_slack

    @property
    def is_phantom_violation(self) -> bool:
        """Failing under GBA, actually met."""
        return self.gba_slack < 0.0 <= self.golden_slack

    @property
    def is_real_violation(self) -> bool:
        """Failing under golden timing too."""
        return self.golden_slack < 0.0


@dataclass(frozen=True)
class PessimismSummary:
    """Aggregates over one design's endpoints."""

    endpoints: int
    gba_violations: int
    real_violations: int
    phantom_violations: int
    mean_pessimism: float
    max_pessimism: float

    @property
    def phantom_fraction(self) -> float:
        """Share of GBA violations that are phantom."""
        if self.gba_violations == 0:
            return 0.0
        return self.phantom_violations / self.gba_violations


def pessimism_report(engine: STAEngine,
                     k_paths: int = 16) -> list[EndpointPessimism]:
    """Per-endpoint GBA vs golden comparison, worst GBA slack first.

    The engine must be a clean GBA engine (weights are cleared); golden
    slacks come from per-endpoint PBA over the ``k_paths`` worst paths.
    Endpoints with no data paths are skipped and counted on the
    ``pba.pathless_endpoints`` counter; any other failure raises.
    """
    engine.clear_gate_weights()
    engine.update_timing()
    golden, pathless = PBAEngine(engine).golden_slacks(k=k_paths)
    counter("pba.pathless_endpoints").inc(len(pathless))
    gba = {s.node: s for s in engine.setup_slacks()}
    rows = [
        EndpointPessimism(
            name=gba[endpoint].name,
            gba_slack=gba[endpoint].slack,
            golden_slack=slack,
        )
        for endpoint, slack in golden.items()
    ]
    rows.sort(key=lambda r: r.gba_slack)
    return rows


def summarize_pessimism(rows: "list[EndpointPessimism]") -> PessimismSummary:
    """Aggregate a pessimism report."""
    finite = [r.pessimism for r in rows if math.isfinite(r.pessimism)]
    return PessimismSummary(
        endpoints=len(rows),
        gba_violations=sum(1 for r in rows if r.gba_slack < 0),
        real_violations=sum(1 for r in rows if r.is_real_violation),
        phantom_violations=sum(
            1 for r in rows if r.is_phantom_violation
        ),
        mean_pessimism=sum(finite) / len(finite) if finite else 0.0,
        max_pessimism=max(finite) if finite else 0.0,
    )


def format_pessimism_report(rows: "list[EndpointPessimism]",
                            max_rows: int = 20) -> str:
    """Human-readable pessimism table plus summary block."""
    summary = summarize_pessimism(rows)
    lines = [
        f"{'endpoint':<24} {'GBA slack':>11} {'golden':>11} "
        f"{'pessimism':>11}  verdict",
        "-" * 72,
    ]
    for row in rows[:max_rows]:
        if row.is_phantom_violation:
            verdict = "PHANTOM violation"
        elif row.is_real_violation:
            verdict = "real violation"
        else:
            verdict = "met"
        golden = (
            f"{row.golden_slack:>11.1f}"
            if math.isfinite(row.golden_slack) else f"{'inf':>11}"
        )
        pess = (
            f"{row.pessimism:>11.1f}"
            if math.isfinite(row.pessimism) else f"{'inf':>11}"
        )
        lines.append(
            f"{row.name:<24} {row.gba_slack:>11.1f} {golden} {pess}"
            f"  {verdict}"
        )
    if len(rows) > max_rows:
        lines.append(f"... ({len(rows) - max_rows} more endpoints)")
    lines += [
        "",
        f"endpoints:            {summary.endpoints}",
        f"GBA violations:       {summary.gba_violations}",
        f"  real:               {summary.real_violations}",
        f"  phantom:            {summary.phantom_violations} "
        f"({summary.phantom_fraction:.0%} of GBA violations)",
        f"pessimism mean / max: {summary.mean_pessimism:.1f} / "
        f"{summary.max_pessimism:.1f} ps",
    ]
    return "\n".join(lines)
