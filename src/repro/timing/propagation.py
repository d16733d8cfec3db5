"""Forward propagation: slews, base delays, derated arrivals.

GBA semantics exactly as industrial tools implement them:

* **worst slew propagation** — a node's slew is the max over its fanin
  arcs' output slews, even when the max-slew arc is not the max-arrival
  arc (one of the pessimism sources the paper's mGBA absorbs);
* **worst-depth AOCV derating** — data cell arcs are multiplied by
  ``table.derate(gba_depth(gate), gba_distance)``;
* **late/early clock split** — clock-network arcs carry flat late/early
  derates so launch (late) and capture (early) clock arrivals diverge,
  which is what CRPR later gives back on the common segment.

mGBA plugs in through per-gate ``weights``: the effective late derate of
a data cell arc is ``lambda_gba(gate) * weight(gate)``, with
``weight = 1 + x_j`` from the solved correction vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.aocv.table import DeratingTable
from repro.timing.delaycalc import DelayCalculator
from repro.timing.graph import EdgeKind, TimingEdge, TimingGraph

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Movement threshold of both kernels' incremental sweeps: a node's
#: fanout is re-relaxed when its arrivals, its slew, or one of its
#: out-arcs moved by more.  One value, or their post-edit states diverge.
MOVE_EPS = 1e-9


class EdgeDomain(enum.Enum):
    """Derating domain of a timing edge."""

    CLOCK = "clock"          # clock-network arc: flat late/early derates
    DATA_CELL = "data_cell"  # combinational data cell arc: AOCV derate
    PLAIN = "plain"          # net arcs, CK->Q arcs: no derate


def classify_edge(graph: TimingGraph, edge: TimingEdge) -> EdgeDomain:
    """Assign an edge to its derating domain."""
    src = graph.node(edge.src)
    dst = graph.node(edge.dst)
    if src.is_clock_tree and dst.is_clock_tree:
        return EdgeDomain.CLOCK
    if edge.kind is EdgeKind.CELL and edge.gate is not None:
        cell = graph.netlist.cell_of(edge.gate)
        if not cell.is_sequential and not src.is_clock_tree:
            return EdgeDomain.DATA_CELL
    return EdgeDomain.PLAIN


@dataclass
class TimingState:
    """Per-node propagation results and per-edge delays and derates.

    Arrays are indexed by node/edge id and resized on demand, so the
    state survives surgical graph updates.  ``edge_delay`` is each
    arc's *base* (underated) delay from delay calculation and
    ``edge_out_slew`` the slew it presents at its destination (cell
    arcs: table lookup; net arcs: pass-through); derating multiplies
    the base delay at propagation, so re-derating never re-runs delay
    calculation.  Both kernels, PBA, explain and CRPR read these arrays
    and nothing else holds the values.  A slot reads 0.0 until delay
    calculation writes it (a new edge's slot is zeroed when the edit
    creates it); a freed slot keeps its last values, which nothing
    reads.
    """

    arrival_late: np.ndarray = field(
        default_factory=lambda: np.zeros(0)
    )
    arrival_early: np.ndarray = field(
        default_factory=lambda: np.zeros(0)
    )
    slew: np.ndarray = field(default_factory=lambda: np.zeros(0))
    derate_late: np.ndarray = field(default_factory=lambda: np.ones(0))
    derate_early: np.ndarray = field(default_factory=lambda: np.ones(0))
    edge_delay: np.ndarray = field(default_factory=lambda: np.zeros(0))
    edge_out_slew: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def ensure_capacity(self, node_count: int, edge_count: int) -> None:
        """Grow the arrays to cover the current graph size."""
        if self.arrival_late.size < node_count:
            grow = node_count - self.arrival_late.size
            self.arrival_late = np.concatenate(
                [self.arrival_late, np.zeros(grow)]
            )
            self.arrival_early = np.concatenate(
                [self.arrival_early, np.zeros(grow)]
            )
            self.slew = np.concatenate([self.slew, np.zeros(grow)])
        if self.derate_late.size < edge_count:
            grow = edge_count - self.derate_late.size
            self.derate_late = np.concatenate([self.derate_late, np.ones(grow)])
            self.derate_early = np.concatenate(
                [self.derate_early, np.ones(grow)]
            )
            self.edge_delay = np.concatenate([self.edge_delay, np.zeros(grow)])
            self.edge_out_slew = np.concatenate(
                [self.edge_out_slew, np.zeros(grow)]
            )


@dataclass(frozen=True)
class DerateSettings:
    """Everything needed to derate one edge."""

    table: DeratingTable | None
    gba_distance: float
    clock_late: float
    clock_early: float
    data_early: float
    flat_late: float = 1.0
    early_table: DeratingTable | None = None


def compute_edge_derates(
    graph: TimingGraph,
    state: TimingState,
    settings: DerateSettings,
    depths: dict[str, int],
    weights: dict[str, float],
) -> None:
    """Fill the per-edge late/early derate arrays.

    ``depths`` is the GBA worst-depth map from
    :func:`repro.aocv.depth.compute_gba_depths`; ``weights`` the mGBA
    per-gate correction multipliers (empty dict = plain GBA).
    """
    state.ensure_capacity(len(graph.nodes), len(graph.edges))
    # GBA uses one distance for the whole design, so the table lookups
    # depend only on the (integer) depth: memoize them.
    late_of_depth: dict[int, float] = {}
    early_of_depth: dict[int, float] = {}

    def _aocv_late(depth: int) -> float:
        value = late_of_depth.get(depth)
        if value is None:
            value = settings.table.derate(depth, settings.gba_distance)
            late_of_depth[depth] = value
        return value

    def _aocv_early(depth: int) -> float:
        value = early_of_depth.get(depth)
        if value is None:
            value = settings.early_table.derate(
                depth, settings.gba_distance
            )
            early_of_depth[depth] = value
        return value

    for edge in graph.live_edges():
        domain = classify_edge(graph, edge)
        if domain is EdgeDomain.CLOCK:
            late, early = settings.clock_late, settings.clock_early
        elif domain is EdgeDomain.DATA_CELL:
            assert edge.gate is not None
            depth = depths.get(edge.gate, 1)
            if settings.table is not None:
                late = _aocv_late(depth)
            else:
                late = settings.flat_late
            late *= weights.get(edge.gate, 1.0)
            if settings.early_table is not None:
                early = _aocv_early(depth)
            else:
                early = settings.data_early
        else:
            late, early = 1.0, 1.0
        state.derate_late[edge.id] = late
        state.derate_early[edge.id] = early


def effective_late(state: TimingState, edge: TimingEdge) -> float:
    """Late (derated) delay of an edge."""
    return state.edge_delay[edge.id] * state.derate_late[edge.id]


def effective_early(state: TimingState, edge: TimingEdge) -> float:
    """Early (derated) delay of an edge."""
    return state.edge_delay[edge.id] * state.derate_early[edge.id]


@dataclass(frozen=True)
class BoundaryConditions:
    """Arrival/slew rules at graph sources."""

    clock_ports: frozenset[str]
    input_delays: dict[str, float]
    input_slew: float
    clock_slew: float


def apply_boundary(
    graph: TimingGraph, state: TimingState, node_id: int,
    boundary: BoundaryConditions,
) -> None:
    """Set arrival/slew at a source (no-fanin) node."""
    node = graph.node(node_id)
    if node.ref.is_port and node.ref.pin in boundary.clock_ports:
        state.arrival_late[node_id] = 0.0
        state.arrival_early[node_id] = 0.0
        state.slew[node_id] = boundary.clock_slew
    elif node.ref.is_port:
        delay = boundary.input_delays.get(node.ref.pin, 0.0)
        state.arrival_late[node_id] = delay
        state.arrival_early[node_id] = delay
        state.slew[node_id] = boundary.input_slew
    else:
        # Dangling gate pin: time zero with the default slew.
        state.arrival_late[node_id] = 0.0
        state.arrival_early[node_id] = 0.0
        state.slew[node_id] = boundary.input_slew


def relax_node(
    graph: TimingGraph, state: TimingState, node_id: int,
    boundary: BoundaryConditions,
) -> None:
    """Recompute one node's arrival/slew from its (computed) in-edges."""
    in_list = graph.in_edges[node_id]
    if not in_list:
        apply_boundary(graph, state, node_id, boundary)
        return
    late = NEG_INF
    early = POS_INF
    slew = 0.0
    for edge_id in in_list:
        edge = graph.edge(edge_id)
        late = max(
            late, state.arrival_late[edge.src] + effective_late(state, edge)
        )
        early = min(
            early, state.arrival_early[edge.src] + effective_early(state, edge)
        )
        slew = max(slew, state.edge_out_slew[edge_id])
    state.arrival_late[node_id] = late
    state.arrival_early[node_id] = early
    state.slew[node_id] = slew


def compute_out_edges(
    graph: TimingGraph, calc: DelayCalculator, state: TimingState,
    node_id: int,
) -> None:
    """Run delay calculation for a node's fanout arcs at its slew."""
    slew = float(state.slew[node_id])
    for edge_id in graph.out_edges[node_id]:
        state.edge_delay[edge_id], state.edge_out_slew[edge_id] = \
            calc.compute_edge(graph, graph.edge(edge_id), slew)


def update_out_edges(
    graph: TimingGraph, calc: DelayCalculator, state: TimingState,
    node_id: int,
) -> bool:
    """:func:`compute_out_edges`, reporting whether any arc moved.

    True when an out-arc's delay or out-slew changed by more than
    :data:`MOVE_EPS`.  Both kernels' incremental sweeps call it, so they
    mark fanout dirty on the same test.
    """
    edge_delay = state.edge_delay
    edge_out_slew = state.edge_out_slew
    slew = float(state.slew[node_id])
    moved = False
    for edge_id in graph.out_edges[node_id]:
        old_delay = edge_delay.item(edge_id)
        old_out_slew = edge_out_slew.item(edge_id)
        delay, out_slew = calc.compute_edge(graph, graph.edge(edge_id), slew)
        edge_delay[edge_id] = delay
        edge_out_slew[edge_id] = out_slew
        if (
            abs(delay - old_delay) > MOVE_EPS
            or abs(out_slew - old_out_slew) > MOVE_EPS
        ):
            moved = True
    return moved


def propagate_full(
    graph: TimingGraph,
    calc: DelayCalculator,
    state: TimingState,
    boundary: BoundaryConditions,
) -> None:
    """One complete forward pass over the whole graph.

    Assumes the derate arrays are current (call
    :func:`compute_edge_derates` first).
    """
    state.ensure_capacity(len(graph.nodes), len(graph.edges))
    for node_id in graph.topological_order():
        relax_node(graph, state, node_id, boundary)
        compute_out_edges(graph, calc, state, node_id)


def check_propagation_sanity(graph: TimingGraph, state: TimingState) -> list[str]:
    """Debug helper: verify arrival >= max-fanin identity on every node.

    Returns human-readable violations (empty list = consistent); used by
    tests and by the incremental engine's self-check mode.

    Runs as one segment-max over the live edges grouped by destination,
    read from the graph's domain arrays
    (:func:`repro.timing.domains.graph_domains`); the tolerance
    hand-codes ``math.isclose(rel_tol=1e-9, abs_tol=1e-9)`` element-wise
    (with an exact-equality guard so ``inf == inf`` passes, as it does
    there).
    """
    from repro.timing.domains import graph_domains

    domains = graph_domains(graph)
    live = np.flatnonzero(domains.edge_live)
    if not live.size:
        return []
    edge_ids = live[np.argsort(domains.edge_dst[live], kind="stable")]
    node_ids, seg = np.unique(domains.edge_dst[edge_ids], return_index=True)
    values = (
        state.arrival_late[domains.edge_src[edge_ids]]
        + state.edge_delay[edge_ids] * state.derate_late[edge_ids]
    )
    expect = np.maximum.reduceat(values, seg)
    got = state.arrival_late[node_ids]
    diff = np.abs(expect - got)
    tol = np.maximum(1e-9 * np.maximum(np.abs(expect), np.abs(got)), 1e-9)
    bad = ~((expect == got) | (diff <= tol))
    problems: list[str] = []
    for idx in np.flatnonzero(bad).tolist():
        node = graph.node(int(node_ids[idx]))
        problems.append(
            f"node {node.ref}: arrival_late {got[idx]} "
            f"!= max-fanin {expect[idx]}"
        )
    return problems
