"""GBA-flow vs mGBA-flow A/B comparison (Tables 2 and 5).

Both flows start from identical copies of a design (the caller passes a
factory so each run gets a pristine netlist), run the same closure
configuration, and are finally judged by the *same* sign-off measure —
golden PBA endpoint slacks — so the comparison never rewards a flow for
merely believing its own numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.metrics import counter
from repro.opt.closure import ClosureConfig, ClosureReport, TimingClosureOptimizer
from repro.pba.engine import PBAEngine
from repro.timing.sta import STAEngine


@dataclass(frozen=True)
class SignoffQoR:
    """PBA-golden WNS/TNS over all endpoints."""

    wns: float
    tns: float
    violations: int


def signoff_qor(engine: STAEngine, k_paths: int = 16) -> SignoffQoR:
    """Golden (PBA) endpoint slacks of the engine's current netlist.

    Endpoints with no data paths are skipped and counted on the
    ``pba.pathless_endpoints`` counter; any other failure raises.
    """
    engine.clear_gate_weights()
    engine.update_timing()
    golden, pathless = PBAEngine(engine).golden_slacks(k=k_paths)
    counter("pba.pathless_endpoints").inc(len(pathless))
    wns = 0.0
    tns = 0.0
    violations = 0
    for slack in golden.values():
        wns = min(wns, slack)
        if slack < 0:
            tns += slack
            violations += 1
    return SignoffQoR(wns=wns, tns=tns, violations=violations)


@dataclass
class FlowComparison:
    """One Table 2 / Table 5 row."""

    design: str
    gba: ClosureReport
    mgba: ClosureReport
    gba_signoff: SignoffQoR
    mgba_signoff: SignoffQoR

    def qor_improvement(self) -> dict[str, float]:
        """Table 2 percentages: positive = mGBA flow better."""
        gains = self.mgba.final.improvement_over(self.gba.final)
        # WNS/TNS are judged at sign-off, not by each flow's own view.
        scale_wns = abs(self.gba_signoff.wns) or 1.0
        scale_tns = abs(self.gba_signoff.tns) or 1.0
        gains["wns"] = 100.0 * (
            self.mgba_signoff.wns - self.gba_signoff.wns
        ) / scale_wns
        gains["tns"] = 100.0 * (
            self.mgba_signoff.tns - self.gba_signoff.tns
        ) / scale_tns
        return gains

    def runtime_row(self) -> dict[str, float]:
        """Table 5 columns (seconds).

        ``fix_speedup`` isolates the violation-fixing phase, which is
        the work GBA pessimism inflates; ``speedup`` is the total
        including recovery (where the mGBA flow may legitimately spend
        *more* time banking extra savings).
        """
        fix_gba = self.gba.seconds_fix or 1e-9
        fix_mgba = self.mgba.seconds_fix + self.mgba.seconds_mgba
        return {
            "gba_flow": self.gba.seconds_total,
            "post_route": self.mgba.seconds_optimization,
            "mgba": self.mgba.seconds_mgba,
            "total": self.mgba.seconds_total,
            "speedup": (
                self.gba.seconds_total / self.mgba.seconds_total
                if self.mgba.seconds_total > 0 else float("inf")
            ),
            "fix_speedup": fix_gba / fix_mgba if fix_mgba > 0 else float("inf"),
        }


def run_flow_comparison(
    design_name: str,
    design_factory: Callable[[], tuple],
    closure_config: ClosureConfig | None = None,
) -> FlowComparison:
    """Run the closure loop twice (GBA-driven, mGBA-driven) on a design.

    ``design_factory`` must return a fresh
    ``(netlist, constraints, placement, sta_config)`` tuple per call —
    the two flows mutate their netlists independently.
    """
    from dataclasses import replace

    base = closure_config or ClosureConfig()

    netlist, constraints, placement, sta_config = design_factory()
    gba_opt = TimingClosureOptimizer(
        netlist, constraints, placement, sta_config,
        replace(base, use_mgba=False),
    )
    gba_report = gba_opt.run()
    gba_sign = signoff_qor(gba_opt.engine)

    netlist, constraints, placement, sta_config = design_factory()
    mgba_opt = TimingClosureOptimizer(
        netlist, constraints, placement, sta_config,
        replace(base, use_mgba=True),
    )
    mgba_report = mgba_opt.run()
    mgba_sign = signoff_qor(mgba_opt.engine)

    return FlowComparison(
        design=design_name,
        gba=gba_report,
        mgba=mgba_report,
        gba_signoff=gba_sign,
        mgba_signoff=mgba_sign,
    )
