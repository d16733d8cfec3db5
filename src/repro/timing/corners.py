"""Multi-corner analysis (SS / TT / FF).

Sign-off times every design at several process/voltage/temperature
corners and merges the worst slack per endpoint.  Each
:class:`Corner` derives an engine from the typical configuration by
scaling cell delays (``delay_scale``) and optionally swapping the AOCV
table; :class:`MultiCornerAnalysis` runs them all and merges.

Setup is checked at every corner (slow corners usually dominate but
derating can flip paths); hold at every corner too (fast corners
dominate).  The merged view is per-endpoint worst — exactly how a
multi-corner signoff report is read.

Corners share one netlist and differ only in values (delay scale,
derate table), so ``update_all`` propagates them all in *one* stacked
array sweep (:class:`repro.timing.scenarios.ScenarioStack` — one
column per corner through the vector kernel's own level loop over the
shared levelized layout).  Only scalar-oracle engines, which the stack
refuses, update one by one in declaration order.  Both paths are
bit-identical to each engine's own ``update_timing()``.  Every merged
view reads the engines afterwards through one merge, :meth:`_merge`,
which iterates corners in declaration order, so ties go to the first
declared corner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.aocv.table import DeratingTable
from repro.errors import TimingError
from repro.netlist.core import Netlist
from repro.netlist.placement import Placement
from repro.obs.trace import span
from repro.sdc.constraints import Constraints
from repro.timing.scenarios import ScenarioError, ScenarioStack
from repro.timing.slack import CheckKind, EndpointSlack, SlackSummary
from repro.timing.sta import STAConfig, STAEngine


@dataclass(frozen=True)
class Corner:
    """One PVT corner.

    ``delay_scale`` multiplies every cell delay/slew (SS > 1, FF < 1);
    ``derating_table`` optionally replaces the typical table (corners
    often ship their own OCV characterization).
    """

    name: str
    delay_scale: float
    derating_table: DeratingTable | None = None


#: The classic three-corner set.
DEFAULT_CORNERS = (
    Corner("ss", 1.15),
    Corner("tt", 1.00),
    Corner("ff", 0.87),
)


@dataclass(frozen=True)
class MergedEndpoint:
    """Worst slack of one endpoint across corners, with its corner."""

    name: str
    slack: float
    corner: str


class MultiCornerAnalysis:
    """Runs one design at several corners and merges results."""

    def __init__(
        self,
        netlist: Netlist,
        constraints: Constraints,
        placement: Placement | None,
        base_config: STAConfig,
        corners: "tuple[Corner, ...]" = DEFAULT_CORNERS,
    ):
        if not corners:
            raise TimingError("need at least one corner")
        names = [c.name for c in corners]
        if len(set(names)) != len(names):
            raise TimingError(f"duplicate corner names: {names}")
        self.corners = corners
        #: How the last ``update_all`` ran: ``"stacked"`` (one scenario
        #: sweep), ``"serial"`` (per-engine updates), or ``"none"``.
        self.last_update_mode = "none"
        self.engines: dict[str, STAEngine] = {}
        for corner in corners:
            config = replace(
                base_config,
                delay_scale=base_config.delay_scale * corner.delay_scale,
                derating_table=(
                    corner.derating_table or base_config.derating_table
                ),
            )
            self.engines[corner.name] = STAEngine(
                netlist, constraints, placement, config
            )

    def engine(self, corner_name: str) -> STAEngine:
        """The engine of one corner."""
        try:
            return self.engines[corner_name]
        except KeyError:
            raise TimingError(f"unknown corner {corner_name!r}") from None

    def update_all(self) -> None:
        """Run timing at every corner, as one stacked sweep if possible.

        When every corner engine runs the vector kernel over the same
        structure, the whole corner set propagates as one
        :class:`~repro.timing.scenarios.ScenarioStack` pass — one
        column per corner instead of one update per corner.  Engines
        the stack refuses up front
        (:class:`~repro.timing.scenarios.ScenarioError`: scalar-oracle
        engines) update one by one in corner declaration order.  The stacked path is bit-identical per corner to that
        serial loop, so every downstream merge is too.
        """
        names = list(self.engines)
        engines = list(self.engines.values())
        with span("corners.update_all", corners=len(names)):
            try:
                stack = ScenarioStack.from_engines(engines, names)
            except ScenarioError:
                for engine in engines:
                    engine.update_timing()
                self.last_update_mode = "serial"
                return
            stack.update_all()
        self.last_update_mode = "stacked"

    # ------------------------------------------------------------------
    # Merged views
    # ------------------------------------------------------------------
    def _merge(self, per_corner: "dict[str, list[EndpointSlack]]"
               ) -> list[MergedEndpoint]:
        worst: dict[str, MergedEndpoint] = {}
        for corner_name, slacks in per_corner.items():
            for s in slacks:
                current = worst.get(s.name)
                if current is None or s.slack < current.slack:
                    worst[s.name] = MergedEndpoint(
                        name=s.name, slack=s.slack, corner=corner_name
                    )
        return sorted(worst.values(), key=lambda m: m.slack)

    def merged_setup(self) -> list[MergedEndpoint]:
        """Per-endpoint worst setup slack across corners."""
        return self._merge({
            name: engine.setup_slacks()
            for name, engine in self.engines.items()
        })

    def merged_hold(self) -> list[MergedEndpoint]:
        """Per-endpoint worst hold slack across corners."""
        return self._merge({
            name: engine.hold_slacks()
            for name, engine in self.engines.items()
        })

    def summary(self) -> dict[str, dict[str, SlackSummary]]:
        """Per-corner setup/hold summaries."""
        return {
            name: {
                "setup": engine.summary(CheckKind.SETUP),
                "hold": engine.summary(CheckKind.HOLD),
            }
            for name, engine in self.engines.items()
        }

    def dominant_corner(self, kind: CheckKind = CheckKind.SETUP) -> str:
        """The corner holding the design's overall worst slack."""
        merged = (
            self.merged_setup() if kind is CheckKind.SETUP
            else self.merged_hold()
        )
        if not merged:
            raise TimingError("design has no endpoints to merge")
        return merged[0].corner

    def report(self) -> str:
        """Human-readable multi-corner summary block."""
        lines = [f"{'corner':<6} {'scale':>6} {'setup WNS':>11} "
                 f"{'setup TNS':>12} {'hold WNS':>10}"]
        lines.append("-" * len(lines[0]))
        summaries = self.summary()
        for corner in self.corners:
            summary = summaries[corner.name]
            lines.append(
                f"{corner.name:<6} {corner.delay_scale:>6.2f} "
                f"{summary['setup'].wns:>11.1f} "
                f"{summary['setup'].tns:>12.1f} "
                f"{summary['hold'].wns:>10.1f}"
            )
        merged = self.merged_setup()
        if merged:
            worst = merged[0]
            lines.append(
                f"merged setup WNS {worst.slack:.1f} ps "
                f"at {worst.name} ({worst.corner} corner)"
            )
        return "\n".join(lines)
