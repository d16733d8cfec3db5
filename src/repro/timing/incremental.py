"""Incremental timing update.

Re-running full STA after every optimizer transform is the classic
bottleneck the paper's Fig. 5 sidesteps with "incremental timing update
techniques".  This module implements cone invalidation: a netlist edit
seeds a set of timing nodes, and a rank-ordered worklist re-propagates
arrivals/slews only while values keep changing.

Correctness contract (property-tested): after any sequence of edits,
``apply_change_incremental`` leaves the state identical to a full
``update_timing()``.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.netlist.edit import ChangeRecord
from repro.timing.domains import graph_domains
from repro.timing.graph import TimingGraph
from repro.timing.propagation import (
    MOVE_EPS,
    BoundaryConditions,
    TimingState,
    relax_node,
    update_out_edges,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.netlist.core import PinRef
    from repro.timing.delaycalc import DelayCalculator
    from repro.timing.sta import STAEngine


def _collect_seed_nodes(graph: TimingGraph, change: ChangeRecord) -> set[int]:
    """Timing nodes whose inputs may have changed after an edit.

    * every pin node of a touched gate (its arcs/caps changed);
    * the driving gate's *input* pins for every touched net (load on the
      net changed, so those cell arcs must be re-evaluated);
    * the driver output node and all load nodes of every touched net
      (net arcs changed).
    """
    netlist = graph.netlist
    seeds: set[int] = set()
    for gate_name in change.gates:
        if gate_name in netlist.gates:
            seeds.update(graph.gate_nodes(gate_name))
    for net_name in change.nets:
        if net_name not in netlist.nets:
            continue
        driver = netlist.net_driver(net_name)
        if driver is not None:
            driver_node = graph.node_of.get(driver)
            if driver_node is not None:
                seeds.add(driver_node)
            if driver.gate is not None:
                cell = netlist.cell_of(driver.gate)
                for pin in cell.input_pins:
                    node_id = graph.node_of.get(_ref(driver.gate, pin.name))
                    if node_id is not None:
                        seeds.add(node_id)
        for load in netlist.net_loads(net_name):
            node_id = graph.node_of.get(load)
            if node_id is not None:
                seeds.add(node_id)
    return seeds


def _ref(gate: str, pin: str) -> "PinRef":
    from repro.netlist.core import PinRef

    return PinRef(gate, pin)


def _mirror_structure(engine: "STAEngine", change: ChangeRecord) -> bool:
    """Sync the timing graph with the netlist after an edit.

    Returns True when topology changed (new/removed nodes or edges), in
    which case depths, clock marking, and derates must be refreshed.
    Every edge it creates reads a delay and out-slew of 0.0 until delay
    calculation writes them, even in a reused slot.
    """
    graph: TimingGraph = engine.graph
    netlist = engine.netlist
    structural = False
    created: list[int] = []
    for gate_name in change.gates:
        in_netlist = gate_name in netlist.gates
        has_nodes = bool(graph.gate_nodes(gate_name))
        if in_netlist and not has_nodes:
            for node_id in graph.add_gate_nodes(gate_name):
                created.extend(graph.out_edges[node_id])
            structural = True
        elif not in_netlist and has_nodes:
            graph.remove_gate_nodes(gate_name)
            structural = True
        elif in_netlist:
            # Gate exists on both sides: a resize may have re-pointed the
            # instance at a different cell, so re-bind the arc tables.
            refresh_gate_arcs(graph, gate_name)
    for net_name in change.nets:
        if net_name in netlist.nets:
            created.extend(graph.rebuild_net(net_name))
            structural = True
        elif graph.drop_net_edges(net_name):
            structural = True
    state = engine.state
    # Slots past the arrays' end grow as zeros.
    reused = [edge_id for edge_id in created
              if edge_id < state.edge_delay.size]
    state.edge_delay[reused] = 0.0
    state.edge_out_slew[reused] = 0.0
    return structural


def refresh_gate_arcs(graph: TimingGraph, gate_name: str) -> None:
    """Re-bind a gate's cell-arc references after a cell swap.

    Size variants share pin names, so the graph topology is unchanged;
    only the characterized tables (and the endpoint's constraint arcs)
    move.
    """
    from repro.liberty.cell import ArcKind

    graph.arc_epoch += 1  # invalidate per-level LUT groupings
    cell = graph.netlist.cell_of(gate_name)
    setup = next(
        (a for a in cell.constraint_arcs() if a.kind is ArcKind.SETUP), None
    )
    hold = next(
        (a for a in cell.constraint_arcs() if a.kind is ArcKind.HOLD), None
    )
    for node_id in graph.gate_nodes(gate_name):
        src_pin = graph.node(node_id).ref.pin
        for edge_id in graph.out_edges[node_id]:
            edge = graph.edge(edge_id)
            if edge.gate != gate_name:
                continue  # a net arc leaving the gate
            arc = cell.arc_between(src_pin, graph.node(edge.dst).ref.pin)
            if arc is not None:
                edge.arc = arc
        info = graph.endpoints.get(node_id)
        if info is not None and info.gate == gate_name:
            info.setup_arc = setup
            info.hold_arc = hold


def propagate_incremental(
    graph: TimingGraph,
    calc: "DelayCalculator",
    state: TimingState,
    boundary: BoundaryConditions,
    seeds: set[int],
) -> int:
    """Re-propagate from seed nodes; returns the number of nodes visited.

    Nodes are processed in topological rank order (a heap keyed by rank)
    so every node is relaxed at most once per update, after all of its
    possibly-dirty predecessors.
    """
    if not seeds:
        return 0
    rank = graph.topological_rank()
    heap: list[tuple[int, int]] = []
    queued: set[int] = set()
    for node_id in seeds:
        if node_id in rank:
            heapq.heappush(heap, (rank[node_id], node_id))
            queued.add(node_id)
    visited = 0
    while heap:
        _, node_id = heapq.heappop(heap)
        queued.discard(node_id)
        visited += 1
        old_late = state.arrival_late[node_id]
        old_early = state.arrival_early[node_id]
        old_slew = state.slew[node_id]
        relax_node(graph, state, node_id, boundary)
        node_changed = (
            abs(state.arrival_late[node_id] - old_late) > MOVE_EPS
            or abs(state.arrival_early[node_id] - old_early) > MOVE_EPS
            or abs(state.slew[node_id] - old_slew) > MOVE_EPS
        )
        # Out-edge delays depend on the node's slew and on downstream
        # loads; seeds may have stale edges even when the node's own
        # values did not move, so always recompute and diff.
        edges_changed = update_out_edges(graph, calc, state, node_id)
        if node_changed or edges_changed:
            for edge_id in graph.out_edges[node_id]:
                dst = graph.edge(edge_id).dst
                if dst not in queued:
                    heapq.heappush(heap, (rank[dst], dst))
                    queued.add(dst)
    return visited


def _propagate(engine: "STAEngine", seeds: set[int]) -> int:
    """Run the engine's configured incremental kernel over ``seeds``.

    The vector kernel advances a per-level frontier over the levelized
    layout (see :func:`repro.timing.kernel.propagate_incremental`); the
    scalar oracle runs the rank-ordered worklist above.  Both relax the
    same node set and produce bit-identical states.
    """
    if getattr(engine, "kernel", "scalar") == "vector":
        from repro.timing import kernel as kernel_mod

        return kernel_mod.propagate_incremental(
            engine._ensure_layout(), engine.graph, engine.calc,
            engine.state, engine.boundary(), seeds,
        )
    return propagate_incremental(
        engine.graph, engine.calc, engine.state, engine.boundary(), seeds
    )


def _seed_derate_moves(engine: "STAEngine", seeds: set[int],
                       old_derates: np.ndarray) -> None:
    """Seed the dst of every edge whose late derate moved (or is new).

    A structural edit changes GBA depths — and therefore derates — on
    gates far from the edit site; those edges' destinations must be
    re-relaxed too.  Under both kernels the diff is three array ops over
    the graph's domain arrays (edge liveness and destinations).
    """
    domains = graph_domains(engine.graph)
    live = np.flatnonzero(domains.edge_live)
    shared = min(old_derates.size, engine.state.derate_late.size)
    old_part = live[live < shared]
    moved = old_part[
        np.abs(engine.state.derate_late[old_part] - old_derates[old_part])
        > MOVE_EPS
    ]
    seeds.update(domains.edge_dst[moved].tolist())
    seeds.update(domains.edge_dst[live[live >= shared]].tolist())


def apply_change_incremental(engine: "STAEngine", change: ChangeRecord) -> int:
    """Mirror a netlist edit into an engine and update its timing.

    Returns the number of nodes the incremental pass visited (useful
    for instrumentation and the Table 5 runtime bench).

    A structural edit (buffer in/out) changes GBA depths — and therefore
    derates — on gates far from the edit site, so after refreshing the
    derate arrays every edge whose derate moved seeds its destination
    node in addition to the edit's own cone.

    Cell swaps (``resize`` / ``vt_swap``) keep topology, depths, and
    derates (derating depends on depth and weight, not on the cell), so
    they take a fast path: re-bind the arc tables and re-propagate the
    cone — no graph surgery, no depth recompute, no derate pass.
    """
    engine.ensure_timing()
    if change.kind in ("resize", "vt_swap"):
        for gate_name in change.gates:
            refresh_gate_arcs(engine.graph, gate_name)
        seeds = _collect_seed_nodes(engine.graph, change)
        visited = _propagate(engine, seeds)
        engine._timing_updated()
        return visited
    old_derates = engine.state.derate_late.copy()
    structural = _mirror_structure(engine, change)
    if structural:
        engine._refresh_structure()
    seeds = _collect_seed_nodes(engine.graph, change)
    _seed_derate_moves(engine, seeds, old_derates)
    visited = _propagate(engine, seeds)
    engine._timing_updated()
    return visited
