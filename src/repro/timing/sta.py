"""The STA engine facade.

:class:`STAEngine` owns the timing graph, delay calculator, propagation
state, AOCV context, and CRPR calculator for one design, and exposes the
operations the rest of the system needs:

* ``update_timing()`` — full propagation.
* ``apply_change(record)`` — mirror a netlist edit and update
  incrementally (see :mod:`repro.timing.incremental`).
* ``setup_slacks()`` / ``hold_slacks()`` / ``summary()`` — QoR views.
* ``set_gate_weights(...)`` — install mGBA per-gate correction factors
  (``weight = 1 + x_j``) and refresh; this is how the solved model is
  applied back to the graph (Fig. 5 of the paper, "update timing
  graph").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.aocv.depth import compute_gba_depths
from repro.aocv.table import DeratingTable
from repro.errors import TimingError
from repro.netlist.core import Netlist
from repro.netlist.edit import ChangeRecord
from repro.netlist.placement import Placement
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span
from repro.sdc.constraints import Constraints
from repro.timing import kernel as kernel_mod
from repro.timing.crpr import CRPRCalculator
from repro.timing.delaycalc import DelayCalculator
from repro.timing.graph import TimingGraph
from repro.timing.propagation import (
    BoundaryConditions,
    DerateSettings,
    TimingState,
    compute_edge_derates,
    propagate_full,
)
from repro.timing import slack as slack_mod
from repro.timing.slack import CheckKind, EndpointSlack, SlackSummary


@dataclass(frozen=True)
class STAConfig:
    """Engine knobs.

    Attributes
    ----------
    derating_table:
        AOCV table for data cells; None disables AOCV (flat
        ``flat_derate_late`` applies instead).
    clock_derate_late / clock_derate_early:
        Flat OCV derates on clock-network arcs; their gap is what CRPR
        credits back on common segments.
    data_early_derate:
        Flat early derate on data cells (hold analysis).
    input_slew / clock_slew:
        Boundary slews at data/clock input ports (ps).
    wire_r_per_nm / wire_c_per_nm:
        Elmore wire parasitics (kOhm/nm, fF/nm).
    gba_distance:
        AOCV distance used by GBA for every gate; None derives the
        conservative value (whole-design bounding-box half-perimeter).
    flat_derate_late:
        Data-cell late derate when no AOCV table is installed.
    """

    derating_table: DeratingTable | None = None
    #: Hold-side AOCV: early derates (< 1) per (depth, distance); when
    #: None, the flat ``data_early_derate`` applies instead.  GBA uses
    #: the same worst depth as for late analysis — the early factor
    #: grows toward 1 with depth, so the *smallest* depth again gives
    #: the conservative (smallest) bound.
    early_derating_table: DeratingTable | None = None
    clock_derate_late: float = 1.05
    clock_derate_early: float = 0.95
    data_early_derate: float = 0.90
    input_slew: float = 20.0
    clock_slew: float = 15.0
    wire_r_per_nm: float = 1e-6
    wire_c_per_nm: float = 2e-4
    gba_distance: float | None = None
    flat_derate_late: float = 1.0
    #: Global process/voltage/temperature scale on every cell delay and
    #: slew (1.0 = typical; slow corners > 1, fast corners < 1).  Used
    #: by :mod:`repro.timing.corners` to derive corner engines from one
    #: characterized library.
    delay_scale: float = 1.0
    #: Propagation kernel: ``"vector"`` (levelized numpy kernel, see
    #: :mod:`repro.timing.kernel`; the default for ``None``) or
    #: ``"scalar"`` (the per-node oracle the tests and equivalence
    #: benches compare against).  Deliberately excluded from the
    #: service-layer config hash — both kernels produce bit-identical
    #: results.
    kernel: str | None = None


_KERNELS = ("vector", "scalar")


def resolve_kernel(configured: str | None) -> str:
    """Resolve the propagation kernel (``None`` means ``"vector"``)."""
    value = configured or "vector"
    if value not in _KERNELS:
        raise TimingError(
            f"unknown STA kernel {value!r}; expected one of {_KERNELS}"
        )
    return value


class STAEngine:
    """Graph-based timing analysis of one design."""

    def __init__(
        self,
        netlist: Netlist,
        constraints: Constraints,
        placement: Placement | None = None,
        config: STAConfig | None = None,
    ):
        self.netlist = netlist
        self.constraints = constraints
        self.placement = placement
        self.config = config or STAConfig()
        self.graph = TimingGraph(netlist)
        self.calc = DelayCalculator(
            netlist, placement,
            self.config.wire_r_per_nm, self.config.wire_c_per_nm,
            delay_scale=self.config.delay_scale,
        )
        self.state = TimingState()
        self.crpr = CRPRCalculator(self.graph, self.state)
        self.weights: dict[str, float] = {}
        self.gba_depths: dict[str, int] = {}
        self.kernel = resolve_kernel(self.config.kernel)
        self._layout: kernel_mod.LevelizedLayout | None = None
        self._boundary: BoundaryConditions | None = None
        self._structure_dirty = True
        self._timing_fresh = False
        self._setup_slack_cache: list[EndpointSlack] | None = None

    # ------------------------------------------------------------------
    # Configuration-derived values
    # ------------------------------------------------------------------
    @property
    def clock_ports(self) -> list[str]:
        """Source ports of all defined clocks."""
        return [c.source_port for c in self.constraints.clocks.values()]

    def gba_distance(self) -> float:
        """The conservative AOCV distance GBA uses for every gate."""
        if self.config.gba_distance is not None:
            return self.config.gba_distance
        if self.placement is None or not self.placement.locations:
            return 0.0
        return self.placement.bbox_half_perimeter(
            list(self.placement.locations)
        )

    def boundary(self) -> BoundaryConditions:
        """Boundary conditions derived from the SDC constraints."""
        if self._boundary is None:
            input_delays = {
                entry.port: entry.delay
                for entry in self.constraints.io_delays if entry.is_input
            }
            self._boundary = BoundaryConditions(
                clock_ports=frozenset(self.clock_ports),
                input_delays=input_delays,
                input_slew=self.config.input_slew,
                clock_slew=self.config.clock_slew,
            )
        return self._boundary

    def derate_settings(self) -> DerateSettings:
        """Current derating context for edge classification."""
        return DerateSettings(
            table=self.config.derating_table,
            early_table=self.config.early_derating_table,
            gba_distance=self.gba_distance(),
            clock_late=self.config.clock_derate_late,
            clock_early=self.config.clock_derate_early,
            data_early=self.config.data_early_derate,
            flat_late=self.config.flat_derate_late,
        )

    # ------------------------------------------------------------------
    # Timing updates
    # ------------------------------------------------------------------
    def _ensure_layout(self) -> kernel_mod.LevelizedLayout:
        """The levelized layout of the current topology (vector kernel).

        Rebuilt only when the graph's ``structure_version`` moved, so a
        weight-only re-derate (every mGBA ``set_gate_weights``) reuses
        the flattened arrays.  When the version did move, a bounded
        structural edit (the what-if loop's buffer insert/remove) is
        first spliced into the existing layout via
        :func:`repro.timing.kernel.patch_layout`; only a non-patchable
        edit pays the full flattening.
        """
        layout = self._layout
        if (
            layout is not None
            and layout.structure_version != self.graph.structure_version
        ):
            layout = kernel_mod.patch_layout(
                layout, self.graph, self.boundary(), self.gba_depths
            )
            self._layout = layout
        if layout is None:
            layout = kernel_mod.build_layout(
                self.graph, self.boundary(), self.gba_depths
            )
            self._layout = layout
        return layout

    def _refresh_structure(self) -> None:
        """Recompute everything that depends on graph topology."""
        self.graph.mark_clock_tree(self.clock_ports)
        self.gba_depths = compute_gba_depths(self.netlist)
        # Clock marking is deterministic per topology, so a layout built
        # for this structure_version stays valid across weight-only
        # refreshes — the reuse that makes mGBA weight installs cheap.
        if self.kernel == "vector":
            kernel_mod.compute_edge_derates(
                self._ensure_layout(), self.graph, self.state,
                self.derate_settings(), self.weights,
            )
        else:
            compute_edge_derates(
                self.graph, self.state, self.derate_settings(),
                self.gba_depths, self.weights,
            )
        self._structure_dirty = False

    def update_timing(self) -> None:
        """Full delay calculation + propagation over the whole design."""
        with span(
            "sta.update_timing", structure_dirty=self._structure_dirty,
            kernel=self.kernel,
        ) as update_span:
            if self._structure_dirty:
                self._refresh_structure()
            if self.kernel == "vector":
                kernel_mod.propagate_full(
                    self._ensure_layout(), self.graph, self.calc,
                    self.state, self.boundary(),
                )
            else:
                propagate_full(
                    self.graph, self.calc, self.state, self.boundary()
                )
            self.crpr.invalidate()
            self._setup_slack_cache = None
            self._timing_fresh = True
        counter("sta.full_updates").inc()
        histogram("sta.update_seconds").observe(update_span.duration)

    def ensure_timing(self) -> None:
        """Run a full update if no valid timing is available."""
        if not self._timing_fresh:
            self.update_timing()

    def set_gate_weights(self, weights: dict[str, float]) -> None:
        """Install mGBA per-gate derate multipliers and re-analyze.

        ``weights`` maps gate names to ``1 + x_j``; gates absent from the
        map keep weight 1.0 (plain GBA).  Weights are clamped below so a
        wildly optimistic correction can never drive an effective derate
        negative.
        """
        floor = 0.05
        self.weights = {
            gate: max(value, floor) for gate, value in weights.items()
        }
        self._structure_dirty = True
        self._timing_fresh = False

    def clear_gate_weights(self) -> None:
        """Return to plain GBA derating."""
        self.weights = {}
        self._structure_dirty = True
        self._timing_fresh = False

    def apply_change(self, change: ChangeRecord) -> None:
        """Mirror a netlist edit into the graph and update incrementally."""
        from repro.timing.incremental import apply_change_incremental

        self._setup_slack_cache = None
        with span("sta.apply_change", kind=change.kind, kernel=self.kernel):
            apply_change_incremental(self, change)
        counter("sta.incremental_updates").inc()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def setup_slacks(self) -> list[EndpointSlack]:
        """GBA setup slack at every endpoint (fresh timing guaranteed).

        Memoized until the next timing update — the closure loop asks
        several times per candidate move.
        """
        self.ensure_timing()
        if self._setup_slack_cache is None:
            self._setup_slack_cache = slack_mod.setup_slacks(
                self.graph, self.state, self.constraints
            )
        return self._setup_slack_cache

    def hold_slacks(self) -> list[EndpointSlack]:
        """GBA hold slack at every flop endpoint."""
        self.ensure_timing()
        return slack_mod.hold_slacks(self.graph, self.state, self.constraints)

    def summary(self, kind: CheckKind = CheckKind.SETUP) -> SlackSummary:
        """WNS / TNS / violation-count aggregate for one check."""
        slacks = (
            self.setup_slacks() if kind is CheckKind.SETUP
            else self.hold_slacks()
        )
        return SlackSummary.from_slacks(kind, slacks)

    def violating_endpoints(self) -> list[EndpointSlack]:
        """Setup endpoints with negative slack, worst first."""
        return sorted(
            (s for s in self.setup_slacks() if s.slack < 0),
            key=lambda s: s.slack,
        )

    def design_rule_violations(self) -> list[dict]:
        """Max-transition / max-capacitance design-rule check.

        Returns one record per violating pin:
        ``{"pin", "kind", "value", "limit"}`` with kind
        ``"max_transition"`` (propagated slew exceeds the pin's limit)
        or ``"max_capacitance"`` (an output pin drives more than it is
        characterized for).  Sorted worst-overshoot first.
        """
        self.ensure_timing()
        violations: list[dict] = []
        for node in self.graph.live_nodes():
            ref = node.ref
            if ref.gate is None:
                continue
            pin = self.netlist.cell_of(ref.gate).pin(ref.pin)
            slew = float(self.state.slew[node.id])
            if slew > pin.max_transition:
                violations.append({
                    "pin": str(ref),
                    "kind": "max_transition",
                    "value": slew,
                    "limit": pin.max_transition,
                })
            from repro.liberty.cell import PinDirection

            if pin.direction is PinDirection.OUTPUT:
                net = self.netlist.gate(ref.gate).connections.get(ref.pin)
                if net is not None:
                    load = self.calc.output_load(net)
                    if load > pin.max_capacitance:
                        violations.append({
                            "pin": str(ref),
                            "kind": "max_capacitance",
                            "value": load,
                            "limit": pin.max_capacitance,
                        })
        violations.sort(key=lambda v: v["limit"] - v["value"])
        return violations

    def required_times(self):
        """Late required time per node (see :func:`compute_required_times`)."""
        self.ensure_timing()
        if self.kernel == "vector":
            return kernel_mod.compute_required_times(
                self._ensure_layout(), self.graph, self.state,
                self.constraints,
            )
        return slack_mod.compute_required_times(
            self.graph, self.state, self.constraints
        )

    def gate_slacks(self) -> dict[str, float]:
        """Worst slack per gate (optimizer candidate ranking)."""
        required = self.required_times()
        if self.kernel == "vector":
            return kernel_mod.gate_worst_slacks(
                self._ensure_layout(), self.graph, self.state, required
            )
        return slack_mod.gate_worst_slacks(self.graph, self.state, required)

    # ------------------------------------------------------------------
    # Introspection used by PBA / mGBA
    # ------------------------------------------------------------------
    def node_id(self, gate: str | None, pin: str) -> int:
        """Timing node id of a pin reference."""
        from repro.netlist.core import PinRef

        ref = PinRef(gate, pin)
        try:
            return self.graph.node_of[ref]
        except KeyError:
            raise TimingError(f"no timing node for {ref}") from None

    def late_edge_delay(self, edge_id: int) -> float:
        """Derated late delay of one edge."""
        edge = self.graph.edge(edge_id)
        return edge.delay * float(self.state.derate_late[edge_id])

    def base_edge_delay(self, edge_id: int) -> float:
        """Underated base delay of one edge."""
        return self.graph.edge(edge_id).delay

    def with_config(self, **overrides) -> "STAConfig":
        """A copy of the config with fields replaced (convenience)."""
        return replace(self.config, **overrides)
