"""One edge classification per graph structure, patched per edit.

:func:`~repro.timing.propagation.classify_edge` assigns one edge to its
derating domain with two node lookups and, on cell arcs, a ``cell_of``.
The scalar derate fill keeps calling it edge by edge: it is the oracle
(``tests/timing/test_domains.py`` holds a rebuild to it).  Every other
reader — the vector kernel's layout build and patch, the incremental
derate seeding, the path enumerator, PBA and explain — reads
:class:`GraphDomains` instead: the same answers, classified as arrays
from each edge's endpoint clock flags and whether it is a combinational
cell arc, plus each edge's endpoints and liveness and each node's clock
and launch flags, as id-indexed arrays.  The graph caches one under its
``(structure_version, clock_epoch)``.  After a structural edit the
cached arrays are patched from :meth:`TimingGraph.touched_since
<repro.timing.graph.TimingGraph.touched_since>`: only the touched slots
are reclassified, and the gate columns are put back in the first-seen
order a rebuild would give.  A rebuild happens only when the journal
was trimmed past the cached version or the clock tree moved
(``clock_epoch``).  A cell swap moves neither key: ``Netlist.swap_cell``
keeps a gate sequential or combinational, and nothing else about a cell
enters a classification.  The arrays do not depend on the propagation
kernel, so explain and PBA answer the same under both.

:func:`path_distances` is the AOCV distance of many paths at once (the
bounding-box half-perimeter of each path's placed anchors); PBA and
explain share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.timing.graph import EdgeKind, NodeKind, TimingGraph
from repro.timing.propagation import EdgeDomain

#: ``edge_domain`` codes; dead edge slots read ``DOMAIN_DEAD``.
DOMAIN_CLOCK = 0
DOMAIN_DATA = 1
DOMAIN_PLAIN = 2
DOMAIN_DEAD = -1

#: ``EdgeDomain`` of each live code (index by code).
DOMAINS = (EdgeDomain.CLOCK, EdgeDomain.DATA_CELL, EdgeDomain.PLAIN)


def padded(arr: np.ndarray, size: int, fill: Any) -> np.ndarray:
    """A fresh copy of ``arr`` grown to ``size`` slots.

    Always copies, even at equal size: published arrays are never
    written, because layouts and their clones share them.
    """
    out = np.full(size, fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


@dataclass(frozen=True, eq=False)
class GraphDomains:
    """Per-structure classification of one timing graph.

    Edge arrays are indexed by edge id, node arrays by node id; dead
    slots read ``DOMAIN_DEAD`` / -1 / False.  ``gates`` lists the gates
    of data-cell arcs in first-seen edge-id order (the vector kernel's
    weight-column order, and PBA's matrix-column order), ``edge_gate``
    indexes it and ``gate_index`` inverts it.  No array is written
    once published: a patch builds new ones.
    """

    key: tuple[int, int]
    edge_domain: np.ndarray        # int8
    edge_gate: np.ndarray          # int64, -1 off data-cell arcs
    edge_src: np.ndarray           # int64
    edge_dst: np.ndarray           # int64
    gates: tuple[str, ...]
    gate_index: dict[str, int]
    node_is_clock_tree: np.ndarray  # bool
    #: Where a data path starts: input ports, sequential outputs (a flop
    #: Q, whose arrival already holds the late clock and CK->Q), and
    #: nodes without fanin.
    node_is_launch: np.ndarray     # bool

    @property
    def edge_live(self) -> np.ndarray:
        """Bool per edge slot: the slot holds a live edge."""
        return self.edge_domain != DOMAIN_DEAD


_EMPTY = GraphDomains(
    key=(-1, -1),
    edge_domain=np.zeros(0, dtype=np.int8),
    edge_gate=np.zeros(0, dtype=np.int64),
    edge_src=np.zeros(0, dtype=np.int64),
    edge_dst=np.zeros(0, dtype=np.int64),
    gates=(),
    gate_index={},
    node_is_clock_tree=np.zeros(0, dtype=bool),
    node_is_launch=np.zeros(0, dtype=bool),
)


def graph_domains(graph: TimingGraph) -> GraphDomains:
    """The graph's :class:`GraphDomains`, patched or rebuilt when stale.

    Clock-tree marking must be current (``mark_clock_tree``), as for
    ``classify_edge``.
    """
    key = (graph.structure_version, graph.clock_epoch)
    cached = graph.domain_cache
    if cached is not None and cached.key == key:
        return cached
    touched = (
        graph.touched_since(cached.key[0])
        if cached is not None and cached.key[1] == graph.clock_epoch
        else None
    )
    if touched is None:
        domains = _reclassify(
            graph, key, _EMPTY,
            np.arange(len(graph.nodes)), np.arange(len(graph.edges)),
        )
    else:
        domains = _reclassify(
            graph, key, cached,
            *(np.fromiter(ids, dtype=np.int64) for ids in touched),
        )
    graph.domain_cache = domains
    return domains


def _reclassify(graph: TimingGraph, key: tuple[int, int],
                base: GraphDomains, nids: np.ndarray,
                eids: np.ndarray) -> GraphDomains:
    """``base`` with node slots ``nids`` and edge slots ``eids`` re-read
    from the graph.

    A rebuild is the same call over every slot of an empty ``base``.
    The node flags are read first; each edge is then classified from
    its endpoints' clock flags and whether it is a combinational cell
    arc, vectorized, by the rules ``classify_edge`` applies one edge at
    a time.
    """
    nodes = graph.nodes
    cell_of = graph.netlist.cell_of
    clock: list[bool] = []
    launch: list[bool] = []
    for node_id in nids.tolist():
        node = nodes[node_id]
        if node is None:
            clock.append(False)
            launch.append(False)
            continue
        clock.append(node.is_clock_tree)
        if node.kind is NodeKind.PORT_IN:
            launch.append(True)
        elif node.kind is NodeKind.PIN_OUT and node.ref.gate is not None:
            launch.append(cell_of(node.ref.gate).is_sequential)
        else:
            launch.append(not graph.in_edges[node_id])
    node_is_clock_tree = padded(base.node_is_clock_tree, len(nodes), False)
    node_is_launch = padded(base.node_is_launch, len(nodes), False)
    node_is_clock_tree[nids] = clock
    node_is_launch[nids] = launch

    srcs: list[int] = []
    dsts: list[int] = []
    comb_gates: list[str | None] = []  # gate of a combinational cell arc
    for edge_id in eids.tolist():
        edge = graph.edges[edge_id]
        if edge is None:
            srcs.append(-1)
            dsts.append(-1)
            comb_gates.append(None)
            continue
        srcs.append(edge.src)
        dsts.append(edge.dst)
        comb = (edge.kind is EdgeKind.CELL and edge.gate is not None
                and not cell_of(edge.gate).is_sequential)
        comb_gates.append(edge.gate if comb else None)
    src = np.array(srcs, dtype=np.int64)
    dst = np.array(dsts, dtype=np.int64)
    comb = np.array([gate is not None for gate in comb_gates], dtype=bool)
    from_clock = node_is_clock_tree[src]
    code = np.where(
        from_clock & node_is_clock_tree[dst], DOMAIN_CLOCK,
        np.where(comb & ~from_clock, DOMAIN_DATA, DOMAIN_PLAIN),
    )
    code[src < 0] = DOMAIN_DEAD
    gates = list(base.gates)
    gate_index = dict(base.gate_index)
    cols = [-1] * eids.size
    for i in np.flatnonzero(code == DOMAIN_DATA).tolist():
        col = gate_index.get(comb_gates[i])
        if col is None:
            col = gate_index[comb_gates[i]] = len(gates)
            gates.append(comb_gates[i])
        cols[i] = col
    n_edges = len(graph.edges)
    edge_domain = padded(base.edge_domain, n_edges, DOMAIN_DEAD)
    edge_gate = padded(base.edge_gate, n_edges, -1)
    edge_src = padded(base.edge_src, n_edges, -1)
    edge_dst = padded(base.edge_dst, n_edges, -1)
    edge_domain[eids] = code
    edge_gate[eids] = cols
    edge_src[eids] = src
    edge_dst[eids] = dst
    # Columns are first-seen in edge-id order, as a rebuild's id-order
    # walk assigns them; an edit can add a gate at a reused low slot or
    # drop a gate's last data arc, so renumber when the order moved.
    data_eids = np.flatnonzero(edge_domain == DOMAIN_DATA)
    data_cols = edge_gate[data_eids]
    used, first = np.unique(data_cols, return_index=True)
    kept = used[np.argsort(first)]
    if kept.size != len(gates) or np.any(kept != np.arange(kept.size)):
        renumber = np.full(len(gates), -1, dtype=np.int64)
        renumber[kept] = np.arange(kept.size, dtype=np.int64)
        edge_gate[data_eids] = renumber[data_cols]
        gates = [gates[col] for col in kept.tolist()]
        gate_index = {gate: col for col, gate in enumerate(gates)}
    return GraphDomains(
        key=key,
        edge_domain=edge_domain,
        edge_gate=edge_gate,
        edge_src=edge_src,
        edge_dst=edge_dst,
        gates=tuple(gates),
        gate_index=gate_index,
        node_is_clock_tree=node_is_clock_tree,
        node_is_launch=node_is_launch,
    )


def path_distances(graph: TimingGraph, placement,
                   node_ptr: np.ndarray, node_ids: np.ndarray) -> np.ndarray:
    """AOCV distance per path: bbox half-perimeter of its placed anchors.

    Path ``i`` visits ``node_ids[node_ptr[i]:node_ptr[i + 1]]``.  A
    node's anchor is its gate (gate pins) or its port; unplaced anchors
    are skipped, and a path with none reads 0.0.  The bounds come from
    min/max reductions, which are exact in any order, so the result is
    ``(max x - min x) + (max y - min y)`` over the anchors, as
    :meth:`~repro.netlist.placement.Placement.bbox_half_perimeter`
    computes it.
    """
    m = len(node_ptr) - 1
    out = np.zeros(m)
    if placement is None or m == 0 or not len(node_ids):
        return out
    unique, inverse = np.unique(node_ids, return_inverse=True)
    ux = np.zeros(len(unique))
    uy = np.zeros(len(unique))
    placed = np.zeros(len(unique), dtype=bool)
    locations = placement.locations
    for i, node_id in enumerate(unique.tolist()):
        ref = graph.node(node_id).ref
        point = locations.get(ref.gate if ref.gate is not None else ref.pin)
        if point is not None:
            ux[i], uy[i], placed[i] = point.x, point.y, True
    keep = placed[inverse]
    rows = np.repeat(np.arange(m), np.diff(node_ptr))[keep]
    x = ux[inverse][keep]
    y = uy[inverse][keep]
    lo_x = np.full(m, np.inf)
    hi_x = np.full(m, -np.inf)
    lo_y = np.full(m, np.inf)
    hi_y = np.full(m, -np.inf)
    np.minimum.at(lo_x, rows, x)
    np.maximum.at(hi_x, rows, x)
    np.minimum.at(lo_y, rows, y)
    np.maximum.at(hi_y, rows, y)
    anchored = np.zeros(m, dtype=bool)
    anchored[rows] = True
    out[anchored] = (
        (hi_x[anchored] - lo_x[anchored]) + (hi_y[anchored] - lo_y[anchored])
    )
    return out
