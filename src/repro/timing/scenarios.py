"""Scenario-stacked propagation: N corners × M modes in one sweep.

The levelized CSR layout of :mod:`repro.timing.kernel` turns forward
propagation into per-level segment reductions over per-edge arrays.
Scenarios — PVT corners, constraint modes — that share one netlist
differ only in *values* (delay scale, derate tables, mGBA weights,
boundary conditions), never in structure, so the whole MCMM matrix
stacks as one trailing numpy axis: arrivals become ``(n_nodes, S)``,
per-edge delays ``(n_edges, S)``, one column per scenario.  The sweep
itself is the kernel's :func:`~repro.timing.kernel.sweep_levels`, the
same level loop a lone engine runs on its 1-D arrays: ``a[ids]``
indexing and the segment reductions along axis 0 carry the column axis
along, and one :meth:`~repro.timing.delaycalc.DelayCalculator.compute_arcs_batch`
call per level serves every scenario (``(k, S)`` slews,
``(k, 1)`` loads, an ``(S,)`` row of delay scales), which is why the
marginal cost per scenario is near zero compared to one update per
corner.

**Bit-identity contract** (tier-1 gate in
``tests/timing/test_scenarios.py``, against the scalar oracle; CI gate
in ``benchmarks/bench_scenarios.py --check``): after
:meth:`ScenarioStack.update_all`, every engine's state is bit-identical
— IEEE-754 equality on arrivals, slews, delays, derates, required
times, and slack dictionaries including insertion order — to running
that engine's own ``update_timing()`` in isolation.  Elementwise
broadcasting and axis-0 segment reductions evaluate the 1-D kernel's
operations per element, column by column.

Structural compatibility is validated up front: anything that could
make the scenarios disagree on topology or shared statics (different
netlist objects, clock ports, kernels, wire models, placements) raises
:class:`ScenarioError`, which
:meth:`repro.timing.corners.MultiCornerAnalysis.update_all` treats as
"update each engine on its own" (only scalar-oracle corner sets get
there).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.aocv.depth import compute_gba_depths
from repro.errors import TimingError
from repro.obs.metrics import counter, gauge
from repro.obs.trace import span
from repro.timing import kernel as kernel_mod
from repro.timing.propagation import TimingState

if TYPE_CHECKING:
    from repro.timing.kernel import LevelizedLayout
    from repro.timing.sta import STAEngine


class ScenarioError(TimingError):
    """The engines cannot be stacked (structurally incompatible)."""


class ScenarioStack:
    """N scenario engines propagated as one stacked array sweep.

    Construct with :meth:`from_engines`; :meth:`update_all` then runs
    the kernel's level loop once over ``(n, S)`` arrays and scatters
    each column back into its engine, leaving each exactly as its own
    ``update_timing()`` would have.  Nothing stacked is kept afterwards:
    merged views read the engines (``MultiCornerAnalysis``).
    """

    def __init__(
        self,
        engines: "list[STAEngine]",
        names: "list[str] | None" = None,
    ):
        self.engines = engines
        self.names = names or [f"s{i}" for i in range(len(engines))]
        self.graph = engines[0].graph

    # ------------------------------------------------------------------
    # Construction / validation
    # ------------------------------------------------------------------
    @classmethod
    def from_engines(
        cls,
        engines: "list[STAEngine]",
        names: "list[str] | None" = None,
    ) -> "ScenarioStack":
        """Validate structural compatibility and build a stack.

        Scenarios may disagree on anything value-like — delay scale,
        derating tables, mGBA weights, constraint modes, boundary
        delays — but must agree on everything the shared layout bakes
        in: the netlist *object*, clock ports, placement, parasitics,
        wire model, and the vector kernel itself.
        """
        if not engines:
            raise ScenarioError("need at least one scenario engine")
        if names is not None and len(names) != len(engines):
            raise ScenarioError("scenario names do not match engine count")
        base = engines[0]
        for i, eng in enumerate(engines):
            if eng.kernel != "vector":
                raise ScenarioError(
                    f"scenario {i} runs the {eng.kernel!r} kernel; "
                    "stacking needs the vector kernel everywhere"
                )
            if eng.netlist is not base.netlist:
                raise ScenarioError(
                    f"scenario {i} has its own netlist object; "
                    "stacked scenarios must share one netlist"
                )
            if eng.placement is not base.placement:
                raise ScenarioError(f"scenario {i} has its own placement")
            if eng.calc.parasitics is not base.calc.parasitics:
                raise ScenarioError(f"scenario {i} has its own parasitics")
            if (
                eng.config.wire_r_per_nm != base.config.wire_r_per_nm
                or eng.config.wire_c_per_nm != base.config.wire_c_per_nm
            ):
                raise ScenarioError(
                    f"scenario {i} uses a different wire model"
                )
            if frozenset(eng.clock_ports) != frozenset(base.clock_ports):
                raise ScenarioError(
                    f"scenario {i} defines different clock ports"
                )
            if (
                eng.graph.structure_version != base.graph.structure_version
                or len(eng.graph.nodes) != len(base.graph.nodes)
                or len(eng.graph.edges) != len(base.graph.edges)
            ):
                raise ScenarioError(
                    f"scenario {i}'s timing graph diverged structurally"
                )
        return cls(list(engines), list(names) if names else None)

    # ------------------------------------------------------------------
    # The stacked sweep
    # ------------------------------------------------------------------
    def update_all(self) -> None:
        """One stacked forward pass; every engine ends fully updated."""
        base = self.engines[0]
        graph = self.graph
        if base._structure_dirty or not base.gba_depths:
            graph.mark_clock_tree(base.clock_ports)
            base.gba_depths = compute_gba_depths(base.netlist)
        layout = base._ensure_layout()
        n_scen = len(self.engines)
        with span(
            "kernel.scenario_propagate",
            scenarios=n_scen, levels=layout.levels,
            nodes=int(layout.order.size), edges=int(layout.live_eids.size),
        ):
            self._scatter(layout, self._propagate(layout))
        counter("kernel.scenario_sweeps").inc()
        gauge("kernel.scenario_count").set(n_scen)

    def _propagate(self, layout: LevelizedLayout) -> TimingState:
        """Fill per-scenario columns, then run the kernel's level loop."""
        base = self.engines[0]
        graph = self.graph
        node_shape = (layout.n_node_slots, len(self.engines))
        edge_shape = (layout.n_edge_slots, len(self.engines))
        state = TimingState(
            arrival_late=np.zeros(node_shape),
            arrival_early=np.zeros(node_shape),
            slew=np.zeros(node_shape),
            derate_late=np.ones(edge_shape),
            derate_early=np.ones(edge_shape),
            edge_delay=np.zeros(edge_shape),
            edge_out_slew=np.zeros(edge_shape),
        )
        boundary_arrival = np.zeros(node_shape)
        boundary_slew = np.zeros(node_shape)
        base_boundary = base.boundary()
        for i, eng in enumerate(self.engines):
            # Column views alias the stack, so the one-engine derate fill
            # writes scenario i in place (ensure_capacity no-ops on
            # exactly-sized columns).
            column = TimingState(
                arrival_late=state.arrival_late[:, i],
                arrival_early=state.arrival_early[:, i],
                slew=state.slew[:, i],
                derate_late=state.derate_late[:, i],
                derate_early=state.derate_early[:, i],
            )
            kernel_mod.compute_edge_derates(
                layout, graph, column, eng.derate_settings(), eng.weights
            )
            boundary = eng.boundary()
            if boundary == base_boundary:
                boundary_arrival[:, i] = layout.boundary_arrival
                boundary_slew[:, i] = layout.boundary_slew
                continue
            for node_id in layout.source_ids.tolist():
                arrival, slew = kernel_mod._boundary_source_values(
                    graph, boundary, node_id
                )
                boundary_arrival[node_id, i] = arrival
                boundary_slew[node_id, i] = slew
        load_of_edge = kernel_mod._refresh_static_delays(
            layout, graph, base.calc, state
        )
        kernel_mod.sweep_levels(
            layout, graph, base.calc, state,
            boundary_arrival, boundary_slew, load_of_edge[:, None],
            np.asarray([eng.calc.delay_scale for eng in self.engines]),
        )
        return state

    def _scatter(self, layout: LevelizedLayout, state: TimingState) -> None:
        """Install each scenario's column into its engine.

        Leaves every engine exactly as its own ``update_timing()``
        would: state arrays filled (edge delays and out-slews among
        them), caches dropped, freshness flags set.
        """
        n_nodes = layout.n_node_slots
        n_edges = layout.n_edge_slots
        base = self.engines[0]
        for i, eng in enumerate(self.engines):
            eng.state.ensure_capacity(
                len(eng.graph.nodes), len(eng.graph.edges)
            )
            eng.state.arrival_late[:n_nodes] = state.arrival_late[:, i]
            eng.state.arrival_early[:n_nodes] = state.arrival_early[:, i]
            eng.state.slew[:n_nodes] = state.slew[:, i]
            eng.state.derate_late[:n_edges] = state.derate_late[:, i]
            eng.state.derate_early[:n_edges] = state.derate_early[:, i]
            eng.state.edge_delay[:n_edges] = state.edge_delay[:, i]
            eng.state.edge_out_slew[:n_edges] = state.edge_out_slew[:, i]
            if eng is not base:
                if eng._structure_dirty:
                    eng.graph.mark_clock_tree(eng.clock_ports)
                if not eng.gba_depths:
                    eng.gba_depths = dict(base.gba_depths)
            # Do NOT build layouts eagerly here (that would erase the
            # stacking win); a layout an engine already has must not
            # certify its last own sweep for the values written here.
            if eng._layout is not None:
                eng._layout._flow_key = None
            eng._structure_dirty = False
            eng._derates_dirty = False
            eng._timing_updated()
