"""One edge classification per graph structure.

:func:`~repro.timing.propagation.classify_edge` assigns one edge to its
derating domain with two node lookups and, on cell arcs, a ``cell_of``.
The scalar derate fill keeps calling it edge by edge: it is the oracle.
Every other reader — the vector kernel's layout build, the path
enumerator, PBA and explain — reads :class:`GraphDomains` instead: the
same answers as id-indexed arrays, built from ``classify_edge`` once per
graph structure and cached on the graph until its
``(structure_version, arc_epoch, clock_epoch)`` moves.  The arrays do
not depend on the propagation kernel, so explain and PBA answer the
same under both.

:func:`path_distances` is the AOCV distance of many paths at once (the
bounding-box half-perimeter of each path's placed anchors); PBA and
explain share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.timing.graph import NodeKind, TimingGraph
from repro.timing.propagation import EdgeDomain, classify_edge

#: ``edge_domain`` codes; dead edge slots read ``DOMAIN_DEAD``.
DOMAIN_CLOCK = 0
DOMAIN_DATA = 1
DOMAIN_PLAIN = 2
DOMAIN_DEAD = -1

#: ``EdgeDomain`` of each live code (index by code).
DOMAINS = (EdgeDomain.CLOCK, EdgeDomain.DATA_CELL, EdgeDomain.PLAIN)
_CODE = {domain: code for code, domain in enumerate(DOMAINS)}


@dataclass(frozen=True, eq=False)
class GraphDomains:
    """Per-structure classification of one timing graph.

    Edge arrays are indexed by edge id, node arrays by node id; dead
    slots read ``DOMAIN_DEAD`` / -1 / False.  ``gates`` lists the gates
    of data-cell arcs in first-seen edge-id order (the vector kernel's
    weight-column order) and ``edge_gate`` indexes it.
    """

    key: tuple[int, int, int]
    edge_domain: np.ndarray        # int8
    edge_gate: np.ndarray          # int64, -1 off data-cell arcs
    edge_src: np.ndarray           # int64
    edge_dst: np.ndarray           # int64
    gates: tuple[str, ...]
    node_is_clock_tree: np.ndarray  # bool
    #: Where a data path starts: input ports, sequential outputs (a flop
    #: Q, whose arrival already holds the late clock and CK->Q), and
    #: nodes without fanin.
    node_is_launch: np.ndarray     # bool


def graph_domains(graph: TimingGraph) -> GraphDomains:
    """The graph's :class:`GraphDomains`, rebuilt only when it is stale.

    Clock-tree marking must be current (``mark_clock_tree``), as for
    ``classify_edge``.
    """
    key = (graph.structure_version, graph.arc_epoch, graph.clock_epoch)
    cached = graph.domain_cache
    if cached is not None and cached.key == key:
        return cached
    n_edges = len(graph.edges)
    edge_domain = [DOMAIN_DEAD] * n_edges
    edge_gate = [-1] * n_edges
    edge_src = [-1] * n_edges
    edge_dst = [-1] * n_edges
    gates: list[str] = []
    gate_index: dict[str, int] = {}
    for edge in graph.edges:
        if edge is None:
            continue
        domain = classify_edge(graph, edge)
        edge_domain[edge.id] = _CODE[domain]
        edge_src[edge.id] = edge.src
        edge_dst[edge.id] = edge.dst
        if domain is EdgeDomain.DATA_CELL:
            col = gate_index.get(edge.gate)
            if col is None:
                col = gate_index[edge.gate] = len(gates)
                gates.append(edge.gate)
            edge_gate[edge.id] = col
    n_nodes = len(graph.nodes)
    node_is_clock_tree = [False] * n_nodes
    node_is_launch = [False] * n_nodes
    cell_of = graph.netlist.cell_of
    for node in graph.nodes:
        if node is None:
            continue
        node_is_clock_tree[node.id] = node.is_clock_tree
        if node.kind is NodeKind.PORT_IN:
            launch = True
        elif node.kind is NodeKind.PIN_OUT and node.ref.gate is not None:
            launch = cell_of(node.ref.gate).is_sequential
        else:
            launch = not graph.in_edges[node.id]
        node_is_launch[node.id] = launch
    domains = GraphDomains(
        key=key,
        edge_domain=np.array(edge_domain, dtype=np.int8),
        edge_gate=np.array(edge_gate, dtype=np.int64),
        edge_src=np.array(edge_src, dtype=np.int64),
        edge_dst=np.array(edge_dst, dtype=np.int64),
        gates=tuple(gates),
        node_is_clock_tree=np.array(node_is_clock_tree, dtype=bool),
        node_is_launch=np.array(node_is_launch, dtype=bool),
    )
    graph.domain_cache = domains
    return domains


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
