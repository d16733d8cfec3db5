"""The timing-closure optimization loop (Fig. 5, left).

Greedy violation fixing under incremental timing:

1. analyze (GBA, or mGBA-corrected when a flow installed weights);
2. pick the worst violating endpoint, trace its worst path;
3. try candidate edits (upsize or LVT-swap path gates, buffer heavy
   nets) and keep the first one that improves the endpoint without
   hurting the design's TNS; undo the rest;
4. repeat until few enough violating endpoints remain (the paper notes
   "usually no more than 100 violated endpoints is acceptable") or the
   move budget runs out;
5. recovery: downsize comfortably-positive gates to win back area and
   leakage without creating violations.

The pessimism connection: a flow driven by plain GBA sees phantom
violations (paths PBA would accept), burns moves and area on them, and
keeps iterating; the mGBA-driven flow sees corrected slacks, fixes only
real violations, and exits earlier with a smaller design — Table 2.

Every move is an edit spec (:mod:`repro.opt.whatif` grammar) applied
and undone by :func:`~repro.opt.whatif.apply_edit`, the same path the
``what_if`` verb scores candidates on.  Moves never touch sequential
cells or the clock network: clock-tree surgery is a different
discipline than data-path closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable

from repro.mgba.flow import MGBAConfig, MGBAFlow, MGBAResult
from repro.netlist.core import Netlist, PinRef
from repro.netlist.placement import Placement
from repro.obs.metrics import counter
from repro.obs.trace import Span, span
from repro.opt.qor import QoRMetrics
from repro.opt.whatif import WhatIfError, apply_edit
from repro.sdc.constraints import Constraints
from repro.timing.graph import EdgeKind
from repro.timing.report import trace_worst_path
from repro.timing.sta import STAConfig, STAEngine
from repro.utils.log import get_logger

logger = get_logger("opt.closure")


@dataclass(frozen=True)
class ClosureConfig:
    """Knobs of the closure loop."""

    max_transforms: int = 400
    acceptable_violations: int = 0
    fix_hold: bool = False
    max_hold_transforms: int = 100
    recovery: bool = True
    recovery_margin: float = 30.0   # ps of slack a gate must keep
    #: Recovery move budget; None = bounded only by the candidate list.
    #: Kept separate from the fixing budget: capping both at the same
    #: number makes the GBA and mGBA flows converge artificially (both
    #: just exhaust the cap) and hides the pessimism cost.
    max_recovery: int | None = None
    candidate_gates_per_path: int = 6
    use_mgba: bool = False
    #: Re-run the mGBA fit after this many accepted fixing moves; the
    #: netlist drifts away from the fitted one as transforms land, so
    #: long flows refresh the correction (0 = fit once up front).
    mgba_refresh_every: int = 0
    mgba: MGBAConfig = field(default_factory=MGBAConfig)


@dataclass
class ClosureReport:
    """Outcome of one closure run.

    ``fix_*`` counts cover the violation-fixing phase (the work
    pessimism inflates); ``recovery_*`` the area/leakage recovery phase
    (where *more* work is better — each accepted move is savings).
    """

    initial: QoRMetrics
    final: QoRMetrics
    transforms_applied: int
    transforms_tried: int
    fix_applied: int = 0
    fix_tried: int = 0
    recovery_applied: int = 0
    recovery_tried: int = 0
    iterations: int = 0
    seconds_total: float = 0.0
    seconds_mgba: float = 0.0
    seconds_fix: float = 0.0
    seconds_recovery: float = 0.0
    mgba_refreshes: int = 0
    mgba_result: MGBAResult | None = None
    #: Replayable ECO commands for every accepted move, in order (see
    #: :mod:`repro.opt.eco`).
    eco_commands: list[str] = field(default_factory=list)
    #: The ``closure.run`` tracing span (fix/recover/mGBA stages are
    #: its children); the ``seconds_*`` fields above are derived from
    #: its tree.
    run_span: Span | None = None

    @property
    def seconds_optimization(self) -> float:
        """Time spent in the transform loop (excl. the mGBA fit)."""
        return self.seconds_total - self.seconds_mgba


class TimingClosureOptimizer:
    """Runs the closure loop on one design."""

    def __init__(
        self,
        netlist: Netlist,
        constraints: Constraints,
        placement: Placement | None = None,
        sta_config: STAConfig | None = None,
        config: ClosureConfig | None = None,
    ):
        self.config = config or ClosureConfig()
        self.engine = STAEngine(netlist, constraints, placement, sta_config)

    # ------------------------------------------------------------------
    # Edit specs (None = a move the loop refuses)
    # ------------------------------------------------------------------
    def is_touchable(self, gate_name: str) -> bool:
        """True when the loop may edit this gate: it is not sequential
        and none of its pins is on the clock tree (read from the live,
        timed graph)."""
        netlist = self.engine.netlist
        cell = netlist.cell_of(gate_name)
        if cell.is_sequential:
            return False
        self.engine.ensure_timing()
        graph = self.engine.graph
        return not any(
            graph.node(graph.node_of[PinRef(gate_name, pin)]).is_clock_tree
            for pin in cell.pins
        )

    def resize_spec(self, gate_name: str, up: bool) -> dict[str, Any] | None:
        """One size step up or down."""
        if not self.is_touchable(gate_name):
            return None
        return {"kind": "resize", "gate": gate_name, "up": up}

    def vt_spec(self, gate_name: str, vt: str) -> dict[str, Any] | None:
        """Another VT flavour: ``"lvt"`` speeds a critical gate up,
        ``"hvt"`` recovers leakage on a slack-rich one."""
        if not self.is_touchable(gate_name):
            return None
        return {"kind": "vt_swap", "gate": gate_name, "vt": vt}

    def buffer_spec(self, net_name: str) -> dict[str, Any] | None:
        """A mid-size buffer isolating the off-critical loads of a net.

        Keeps the single most critical load (approximated by the latest
        arrival) on the original net and moves the other gate loads
        behind the buffer, cutting the load the critical arc sees.
        """
        netlist, engine = self.engine.netlist, self.engine
        driver = netlist.net_driver(net_name)
        if driver is None or (
            driver.gate and not self.is_touchable(driver.gate)
        ):
            return None
        loads = [r for r in netlist.net_loads(net_name) if not r.is_port]
        buffers = netlist.library.buffers()
        if len(loads) < 2 or not buffers:
            return None

        def arrival(ref: PinRef) -> float:
            node_id = engine.graph.node_of.get(ref)
            if node_id is None:
                return 0.0
            return float(engine.state.arrival_late[node_id])

        critical = max(loads, key=arrival)
        return {
            "kind": "insert_buffer", "net": net_name,
            "buffer_cell": buffers[len(buffers) // 2].name,
            "loads": [str(r) for r in loads if r != critical],
        }

    def hold_pad_spec(self, endpoint_ref: PinRef) -> dict[str, Any] | None:
        """The smallest buffer inserted right before a hold endpoint.

        Reroutes only the endpoint's own pin, so other sinks of the net
        (and their setup paths) are untouched; the padded pin gains the
        buffer's delay on *every* path, early and late — helping hold
        at a bounded setup cost the acceptance check verifies.
        """
        netlist = self.engine.netlist
        if endpoint_ref.gate is None:
            return None
        net_name = netlist.gate(endpoint_ref.gate).connections.get(
            endpoint_ref.pin
        )
        buffers = netlist.library.buffers()
        if (
            net_name is None or netlist.net_driver(net_name) is None
            or not buffers
        ):
            return None
        return {
            "kind": "insert_buffer", "net": net_name,
            "buffer_cell": buffers[0].name, "loads": [str(endpoint_ref)],
        }

    def _attempt(self, spec: dict[str, Any] | None,
                 accept: Callable[[], bool]) -> bool:
        """Apply one spec; keep its ECO when ``accept()`` holds, else undo.

        Every call counts as tried, refused (None) and inapplicable
        specs included.  Generated buffer names are ``wbuf<k>`` with
        ``k`` the ECO command's position, so a run's ECO does not
        depend on what the process did before it.
        """
        self._tried += 1
        if spec is None:
            return False
        try:
            change, undo, eco = apply_edit(self.engine, spec, len(self._eco))
        except WhatIfError:
            return False
        if accept():
            logger.debug("accepted %s", change.description)
            self._eco.append(eco)
            return True
        undo(self.engine)
        return False

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _path_candidates(self, endpoint: int) -> tuple[list[str], list[str]]:
        """(gates to upsize, nets to buffer) along the worst path."""
        graph, state = self.engine.graph, self.engine.state
        edges = trace_worst_path(graph, state, endpoint)
        gates: list[str] = []
        nets: list[str] = []
        seen_gates: set[str] = set()
        seen_nets: set[str] = set()
        for edge_id in edges:
            edge = graph.edge(edge_id)
            if edge.kind is EdgeKind.CELL and edge.gate is not None:
                if (
                    edge.gate not in seen_gates
                    and self.is_touchable(edge.gate)
                ):
                    seen_gates.add(edge.gate)
                    gates.append(edge.gate)
            elif edge.kind is EdgeKind.NET and edge.net is not None:
                if edge.net not in seen_nets:
                    seen_nets.add(edge.net)
                    nets.append(edge.net)
        # Heaviest-loaded driver first: upsizing helps most where the
        # cell is weakest relative to its load.
        def load_pressure(gate_name: str) -> float:
            cell = self.engine.netlist.cell_of(gate_name)
            gate = self.engine.netlist.gate(gate_name)
            pressure = 0.0
            for pin in cell.output_pins:
                net = gate.connections.get(pin.name)
                if net is not None:
                    pressure = max(
                        pressure,
                        self.engine.calc.output_load(net) / cell.drive_strength,
                    )
            return pressure

        gates.sort(key=load_pressure, reverse=True)
        limit = self.config.candidate_gates_per_path
        heavy_nets = [
            n for n in nets
            if len(self.engine.netlist.net_loads(n)) >= 3
        ]
        return gates[:limit], heavy_nets[:limit]

    # ------------------------------------------------------------------
    # Greedy accept/undo
    # ------------------------------------------------------------------
    def _endpoint_slack(self, endpoint: int) -> float:
        for s in self.engine.setup_slacks():
            if s.node == endpoint:
                return s.slack
        return 0.0

    def _try_fix_endpoint(self, endpoint: int) -> bool:
        """Try candidates on one endpoint; True when one was accepted."""
        before_slack = self._endpoint_slack(endpoint)
        before = self.engine.summary()
        gates, nets = self._path_candidates(endpoint)

        def improves() -> bool:
            return (
                self._endpoint_slack(endpoint) > before_slack + 1e-9
                and self.engine.summary().tns >= before.tns - 1e-9
            )

        # Lazy: each spec is built against the timing its move sees.
        specs = chain(
            (self.resize_spec(g, up=True) for g in gates),
            (self.vt_spec(g, "lvt") for g in gates),
            (self.buffer_spec(n) for n in nets),
        )
        return any(self._attempt(spec, improves) for spec in specs)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def fix_violations(self) -> tuple[int, int]:
        """Greedy violation fixing; returns (applied, iterations)."""
        applied = 0
        iterations = 0
        since_refresh = 0
        hopeless: set[int] = set()
        refresh_every = (
            self.config.mgba_refresh_every if self.config.use_mgba else 0
        )
        while applied + len(hopeless) <= self.config.max_transforms:
            iterations += 1
            violations = [
                s for s in self.engine.violating_endpoints()
                if s.node not in hopeless
            ]
            if len(violations) <= self.config.acceptable_violations:
                break
            if applied >= self.config.max_transforms:
                break
            endpoint = violations[0].node
            if self._try_fix_endpoint(endpoint):
                applied += 1
                since_refresh += 1
                if refresh_every and since_refresh >= refresh_every:
                    self._refresh_mgba()
                    since_refresh = 0
                    hopeless.clear()  # corrected view may re-rank them
            else:
                hopeless.add(endpoint)
        return applied, iterations

    def _refresh_mgba(self) -> None:
        """Re-fit the correction against the current netlist."""
        with span("closure.mgba_refresh") as refresh_span:
            MGBAFlow(self.config.mgba).run(self.engine)
        self._mgba_refreshes += 1
        self._refresh_spans.append(refresh_span)

    def fix_hold_violations(self) -> int:
        """Pad hold-violating endpoints with delay buffers.

        Each pad must improve the endpoint's hold slack and must not
        increase setup violations or TNS (padding a D pin delays its
        late arrival too).  Returns accepted pads.
        """
        applied = 0
        hopeless: set[int] = set()
        while applied < self.config.max_hold_transforms:
            holds = sorted(
                (
                    s for s in self.engine.hold_slacks()
                    if s.slack < 0 and s.node not in hopeless
                ),
                key=lambda s: s.slack,
            )
            if not holds:
                break
            worst = holds[0]
            endpoint_ref = self.engine.graph.node(worst.node).ref
            setup_before = self.engine.summary()

            def improves() -> bool:
                hold_after = next(
                    (s for s in self.engine.hold_slacks()
                     if s.node == worst.node), None
                )
                setup_after = self.engine.summary()
                return (
                    hold_after is not None
                    and hold_after.slack > worst.slack + 1e-9
                    and setup_after.violations <= setup_before.violations
                    and setup_after.tns >= setup_before.tns - 1e-9
                )

            if self._attempt(self.hold_pad_spec(endpoint_ref), improves):
                applied += 1
            else:
                hopeless.add(worst.node)
        return applied

    def recover(self) -> int:
        """Recover area/leakage on comfortably-positive gates.

        Tries, per candidate in descending-slack order, an HVT swap
        (big leakage win, no area change) and then a downsize (area +
        leakage win); each move must not create violations or worsen
        TNS, else it is undone.  Returns the number of applied moves.
        """
        applied = 0
        margin = self.config.recovery_margin
        gate_slacks = self.engine.gate_slacks()
        candidates = sorted(
            (g for g, s in gate_slacks.items() if s > margin),
            key=lambda g: -gate_slacks[g],
        )
        budget = self.config.max_recovery
        before = self.engine.summary()

        def no_worse() -> bool:
            nonlocal before
            after = self.engine.summary()
            if (
                after.violations > before.violations
                or after.tns < before.tns - 1e-9
            ):
                return False
            before = after
            return True

        for gate_name in candidates:
            if budget is not None and applied >= budget:
                break
            for spec in (
                self.vt_spec(gate_name, "hvt"),
                self.resize_spec(gate_name, up=False),
            ):
                if self._attempt(spec, no_worse):
                    applied += 1
        return applied

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> ClosureReport:
        """Execute the configured flow and return its report."""
        self._tried = 0
        self._mgba_refreshes = 0
        self._refresh_spans: list[Span] = []
        self._eco: list[str] = []
        with span(
            "closure.run", use_mgba=self.config.use_mgba
        ) as run_span:
            self.engine.update_timing()
            initial = QoRMetrics.measure(self.engine)
            mgba_result = None
            seconds_fit = 0.0
            if self.config.use_mgba:
                with span("closure.mgba_fit") as fit_span:
                    mgba_result = MGBAFlow(self.config.mgba).run(self.engine)
                seconds_fit = fit_span.duration
                logger.info(
                    "mGBA fit: pass ratio %.2f%% -> %.2f%%",
                    100 * mgba_result.pass_ratio_gba,
                    100 * mgba_result.pass_ratio_mgba,
                )
            with span("closure.fix") as fix_span:
                fixed, iterations = self.fix_violations()
                if self.config.fix_hold:
                    with span("closure.fix_hold"):
                        fixed += self.fix_hold_violations()
            fix_span.set(applied=fixed, iterations=iterations)
            fix_tried = self._tried
            with span("closure.recover") as recover_span:
                recovered = self.recover() if self.config.recovery else 0
            recover_span.set(applied=recovered)
            final = QoRMetrics.measure(self.engine)
        # mGBA refreshes happen *inside* the fix loop; keep the
        # historical accounting: they count toward seconds_mgba, not
        # seconds_fix.
        seconds_refresh = sum(s.duration for s in self._refresh_spans)
        counter("closure.transforms_tried").inc(self._tried)
        counter("closure.transforms_applied").inc(fixed + recovered)
        return ClosureReport(
            initial=initial,
            final=final,
            transforms_applied=fixed + recovered,
            transforms_tried=self._tried,
            fix_applied=fixed,
            fix_tried=fix_tried,
            recovery_applied=recovered,
            recovery_tried=self._tried - fix_tried,
            iterations=iterations,
            seconds_total=run_span.duration,
            seconds_mgba=seconds_fit + seconds_refresh,
            seconds_fix=fix_span.duration - seconds_refresh,
            seconds_recovery=recover_span.duration,
            mgba_refreshes=self._mgba_refreshes,
            mgba_result=mgba_result,
            eco_commands=list(self._eco),
            run_span=run_span,
        )
