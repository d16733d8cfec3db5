"""Levelized array-batched STA kernel.

The scalar engine in :mod:`repro.timing.propagation` walks the timing
graph one node at a time: ``relax_node`` loops a Python ``for`` over the
fanin, ``compute_out_edges`` runs one NLDM lookup per arc, and the
backward required-time pass in :mod:`repro.timing.slack` mirrors the
same shape.  Profiling (``--profile`` on ``sta.update_timing``) shows
those ~|V|+|E| Python iterations are where the whole mGBA loop spends
its time.

This module compiles the live :class:`~repro.timing.graph.TimingGraph`
into a **levelized CSR layout** once per structural change and then
executes propagation one *level* at a time with numpy segment
reductions:

* level ``l`` holds every node whose longest fanin chain has ``l``
  edges, so all of level ``l``'s inputs are final before the level runs;
* late arrivals are ``np.maximum.reduceat`` over the level's flattened
  fanin slice, early arrivals ``np.minimum.reduceat``, worst-slew the
  max of the fanin arcs' out-slews — a handful of array ops per level
  instead of per-node Python loops;
* delay calculation looks up each level's cell arcs in one
  :meth:`~repro.timing.delaycalc.DelayCalculator.compute_arcs_batch`
  call: arcs whose tables share an axis pair interpolate together from
  stacked grids, with one clamp and one weight computation per level
  (see :meth:`LevelizedLayout.cell_groups`);
* the AOCV/mGBA derate fill becomes a vectorized scatter: depth →
  derate via a per-depth table indexed by an integer depth array,
  multiplied by a per-gate weight vector.

That level loop, :func:`sweep_levels`, is the only full forward sweep:
one engine runs it on 1-D id-indexed arrays, and
:class:`repro.timing.scenarios.ScenarioStack` runs it on ``(n, S)``
arrays with one trailing column per scenario — the same indexing and
axis-0 reductions, with loads and delay scales broadcast.

A layout holds structure only.  Every value a sweep reads or writes —
arrivals, slews, derates, and each edge's base delay and out-slew —
lives in the engine's :class:`~repro.timing.propagation.TimingState`,
the one store the scalar oracle, PBA, explain and CRPR read too.

**Bit-identity contract** (enforced by ``tests/timing/test_kernel.py``):
every arithmetic expression evaluates the same IEEE-754 operations in
the same association order as the scalar oracle, and ``max``/``min``
reductions are order-independent, so arrivals, slews, edge delays and
out-slews, slacks, and required times are *bit-identical* between
kernels — full updates, weighted (mGBA) updates, and post-edit
incremental states alike.

Incremental updates reuse the layout: a per-level frontier seeded from
the edit's cone advances through exactly the levels that contain dirty
nodes (a heap of level indices over id buckets), re-relaxing only the
dirty slice of each touched level and marking fanout dirty exactly when
the scalar worklist would (value or out-edge movement beyond the shared
epsilon) — O(cone), not O(levels) — so ``closure.run``'s thousands of
ECO updates ride the same arrays.

One function assembles every layout: :func:`_splice` re-reads the
given node and edge slots from the graph over a base layout, levels
them with a raise-only worklist, and gathers every other CSR row from
the base.  A fresh build is that splice over every slot of no base,
seeded in topological order, so each node lands at its longest fanin
chain; :func:`patch_layout` is the same splice over the slots the
graph's structure journal names since the layout's version (the
what-if loop's buffer insert/remove), falling back to a build whenever
the edit's level impact is not provably local.  Edge endpoints,
liveness, derate classes and the clock-tree mask come, for both, from
the graph's domain arrays (:mod:`repro.timing.domains`), which the
same journal patches.  A patched layout equals a fresh build up to
level assignment legality, which the sweeps' per-node reductions are
insensitive to.  **Persistence**: a pristine graph's layout is
content-addressed and, when a :class:`~repro.service.store.DiskStore`
is attached via :func:`set_layout_disk_store`, serialized under its
``layout/`` class; a process-level cache miss hydrates from disk
instead of re-flattening, so serve restarts and repeated CLI runs never
rebuild a known design.
"""

from __future__ import annotations

import heapq
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.liberty.lut import ArcTables, batch_tables, group_table_pairs
from repro.obs.metrics import counter, gauge, histogram
from repro.obs.trace import span
from repro.timing.domains import (
    DOMAIN_CLOCK,
    DOMAIN_DATA,
    DOMAIN_PLAIN,
    GraphDomains,
    graph_domains,
    padded,
)
from repro.timing.graph import EdgeKind, TimingGraph
from repro.timing.propagation import (
    MOVE_EPS,
    POS_INF,
    BoundaryConditions,
    DerateSettings,
    TimingState,
    update_out_edges,
)

if TYPE_CHECKING:
    from repro.aocv.table import DeratingTable
    from repro.sdc.constraints import Constraints
    from repro.timing.delaycalc import DelayCalculator

@dataclass
class LevelizedLayout:
    """The live timing graph flattened into level-ordered CSR arrays.

    Node arrays are indexed two ways: *positions* (0..n_live-1, level
    order, ties by node id) index the CSR structures; *node ids* index
    the :class:`TimingState` arrays, exactly like the scalar engine.
    ``order[pos]`` maps position → id and ``pos_of[id]`` maps back
    (-1 for dead slots).  Structure only: no array is written after the
    build (a patch copies what it changes), so clones share them all,
    and the values the sweeps compute live in the :class:`TimingState`.
    """

    structure_version: int
    n_node_slots: int
    n_edge_slots: int
    # -- levelization ---------------------------------------------------
    order: np.ndarray             # node ids, level-major
    pos_of: np.ndarray            # id -> position (-1 dead)
    level_ptr: np.ndarray         # len L+1; level l = order[ptr[l]:ptr[l+1]]
    # -- fanin CSR (position-major) ------------------------------------
    in_ptr: np.ndarray
    in_edge: np.ndarray           # edge ids
    in_src: np.ndarray            # src node ids
    # -- fanout CSR (position-major) -----------------------------------
    out_ptr: np.ndarray
    out_edge: np.ndarray
    out_dst: np.ndarray
    # -- derate classification (the graph's domain arrays) -------------
    live_eids: np.ndarray         # ids of live edges, ascending
    clock_eids: np.ndarray
    plain_eids: np.ndarray
    data_eids: np.ndarray
    data_depths: np.ndarray       # int depth per data edge (aligned)
    data_gate_cols: np.ndarray    # column per data edge (aligned)
    #: Column order of the mGBA weight vector: ``gates[j]`` is the gate
    #: scattered into column j — the same gate → column contract
    #: :class:`repro.mgba.problem.MGBAProblem` uses for its matrix.
    gates: list[str]
    gate_index: dict[str, int]
    # -- node-level metadata -------------------------------------------
    node_is_clock_tree: np.ndarray   # bool, id-indexed
    node_gate_col: np.ndarray        # id-indexed col into node_gates, -1 none
    node_gates: list[str]            # first-seen (node-id order) gate names
    # -- boundary (level-0) values, id-indexed -------------------------
    source_ids: np.ndarray
    boundary_arrival: np.ndarray     # id-indexed (only source slots valid)
    boundary_slew: np.ndarray
    # -- delay-calc statics --------------------------------------------
    cell_nets: list[str]             # unique nets loading a cell arc
    cell_edge_net: np.ndarray        # id-indexed index into cell_nets (-1)
    net_eids_by_level: list[np.ndarray]
    net_srcs_by_level: list[np.ndarray]
    cell_eids_by_level: list[np.ndarray]
    # -- id-indexed topology mirrors -----------------------------------
    #: Level per node id (-1 dead) — the frontier sweep buckets dirty
    #: nodes by it, and the patcher's worklist raises it.
    node_level: np.ndarray
    edge_src: np.ndarray             # id-indexed src node (-1 dead)
    edge_is_net: np.ndarray          # bool, id-indexed
    # -- lazily (arc-epoch keyed) rebuilt LUT grouping ------------------
    _group_epoch: int = field(default=-1, repr=False)
    _cell_groups: "list[LevelArcs | None]" = field(
        default_factory=list, repr=False
    )
    #: Fingerprint of the last completed full vector pass.  Slews, base
    #: delays, and loads are independent of the mGBA weights (weights
    #: only scale the *arrival* accumulation), so while the fingerprint
    #: — ``(arc_epoch, id(calc), delay_scale, id(state), boundary)`` —
    #: is unchanged those quantities are already at their fixpoint and a
    #: full update reduces to the arrival-only sweep.  Any netlist edit
    #: bumps ``arc_epoch`` or ``structure_version`` (fresh layout), so
    #: the cache never sees stale delay-calc inputs.
    _flow_key: "tuple | None" = field(default=None, repr=False)

    @property
    def levels(self) -> int:
        """Number of levels in the layout."""
        return len(self.level_ptr) - 1

    # ------------------------------------------------------------------
    def cell_groups(self, graph: TimingGraph) -> "list[LevelArcs | None]":
        """Per-level cell arcs with their tables grouped by axes.

        Level ``l``'s entry (None when it has no cell arcs) lists its
        cell arcs with their source nodes and an
        :class:`~repro.liberty.lut.ArcTables` that looks them all up in
        one call: pairs sharing an axis pair are stacked
        (:func:`repro.liberty.lut.group_table_pairs`), and within a
        level the arcs run grouped by stack.  Rebuilt whenever
        ``graph.arc_epoch`` moves (a resize/vt-swap re-binds arc tables
        without touching topology).
        """
        if self._group_epoch == graph.arc_epoch:
            return self._cell_groups
        counts = [eids.size for eids in self.cell_eids_by_level]
        eids = (
            np.concatenate(self.cell_eids_by_level)
            if counts else np.empty(0, dtype=np.int64)
        )
        # One attribute read per arc; everything else is per distinct
        # arc or vectorized.
        edges = graph.edges
        arcs = [edges[eid].arc for eid in eids.tolist()]  # type: ignore[union-attr]
        _, first, arc_of = np.unique(
            np.fromiter(map(id, arcs), dtype=np.int64, count=len(arcs)),
            return_index=True, return_inverse=True,
        )
        tables, group_of_arc, offset_of_arc = group_table_pairs([
            (arcs[k].delay, arcs[k].output_slew) for k in first.tolist()
        ])
        group = group_of_arc[arc_of]
        offsets = offset_of_arc[arc_of]
        level_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=level_ptr[1:])
        if len(tables) > 1:
            order = np.lexsort(
                (group, np.repeat(np.arange(len(counts)), counts))
            )
            eids, group, offsets = eids[order], group[order], offsets[order]
        srcs = self.edge_src[eids]
        groups: "list[LevelArcs | None]" = []
        for lv, tables_of_level in enumerate(
            batch_tables(tables, group, offsets, level_ptr)
        ):
            s, e = level_ptr[lv], level_ptr[lv + 1]
            groups.append(
                None if tables_of_level is None
                else LevelArcs(eids[s:e], srcs[s:e], tables_of_level)
            )
        self._cell_groups = groups
        self._group_epoch = graph.arc_epoch
        return groups


@dataclass(frozen=True)
class LevelArcs:
    """One level's cell arcs: edge ids, source nodes, their tables."""

    eids: np.ndarray
    srcs: np.ndarray
    tables: ArcTables


#: In-process LRU of built layouts, content-keyed.  Engines built from
#: the *same design content* (the corner engines of one analysis,
#: repeated cold bench runs in one process) share one flattening pass:
#: the clone aliases every array — levelization, CSR, derate
#: classification, boundary.  Bounded small: a layout references
#: a few |V|+|E| arrays, and anything beyond the working corner set of
#: one process is dead weight.
_LAYOUT_CACHE_MAX = 8
_layout_cache: "OrderedDict[tuple, LevelizedLayout]" = OrderedDict()

#: Version of the persisted layout payload.  Key material (a schema
#: bump misses cleanly instead of needing a cache wipe) *and* a payload
#: sanity field checked again on hydrate.
LAYOUT_SCHEMA = 2

#: Optional disk tier behind the in-process LRU: a
#: :class:`repro.service.store.DiskStore` whose ``layout/`` class holds
#: serialized structural arrays.  Opt-in (service / CLI / bench wiring)
#: rather than ambient, so library users and tests never grow a
#: ``.repro_cache/`` as a side effect of building a layout.
_disk_store: "Any | None" = None


def set_layout_disk_store(store: "Any | None") -> None:
    """Attach (or with ``None`` detach) the layout persistence tier.

    Once attached, every content-keyed build is serialized under the
    store's ``layout/`` class and a process-level cache miss tries disk
    hydration before re-flattening — ``kernel.layout_disk_hits`` /
    ``kernel.layout_disk_misses`` count the outcomes, and a corrupt or
    schema-mismatched payload falls back to a fresh build.
    """
    global _disk_store
    _disk_store = store


def clear_layout_cache() -> None:
    """Drop all cached layouts (test isolation hook)."""
    _layout_cache.clear()


def _layout_cache_key(
    graph: TimingGraph,
    boundary: BoundaryConditions,
    depths: "dict[str, int]",
) -> "tuple | None":
    """Content key of a layout build, or None when uncacheable.

    Only pristine graphs (no edits since construction) are keyed: node
    and edge ids are reproducible from content exactly when no edit
    history has reordered the slot assignment.  Edited graphs rebuild
    the honest way — and their post-edit netlist content would miss
    this key anyway.
    """
    if graph.structure_version != graph.pristine_version:
        return None
    from repro.service.keys import netlist_hash

    return (
        netlist_hash(graph.netlist),
        tuple(sorted(boundary.clock_ports)),
        tuple(sorted(boundary.input_delays.items())),
        boundary.input_slew,
        boundary.clock_slew,
        tuple(sorted(depths.items())),
    )


def _clone_layout(cached: LevelizedLayout) -> LevelizedLayout:
    """A cache hit's twin: every array shared with the cached build.

    Only the lazy per-graph fields are reset: cell groups hold table
    references resolved against the builder graph, and the flow
    fingerprint must never certify a foreign engine's fixpoint.
    """
    return replace(cached, _group_epoch=-1, _cell_groups=[], _flow_key=None)


#: :class:`LevelizedLayout` fields persisted to disk, by shape:
#: id/position-indexed ndarrays, plain string lists, and per-level
#: ndarray lists.  The lazy per-graph fields are deliberately absent:
#: the hydrating engine rebuilds them.
_LAYOUT_ARRAY_FIELDS = (
    "order", "pos_of", "level_ptr", "in_ptr", "in_edge", "in_src",
    "out_ptr", "out_edge", "out_dst", "live_eids", "clock_eids",
    "plain_eids", "data_eids", "data_depths", "data_gate_cols",
    "node_is_clock_tree", "node_gate_col", "source_ids",
    "boundary_arrival", "boundary_slew", "cell_edge_net", "node_level",
    "edge_src", "edge_is_net",
)
_LAYOUT_LIST_FIELDS = ("gates", "node_gates", "cell_nets")
_LAYOUT_LEVEL_FIELDS = (
    "net_eids_by_level", "net_srcs_by_level", "cell_eids_by_level",
)


def layout_to_payload(layout: LevelizedLayout) -> "dict[str, Any]":
    """The npz-style persistable form of a layout's structural arrays."""
    return {
        "schema": LAYOUT_SCHEMA,
        "n_node_slots": layout.n_node_slots,
        "n_edge_slots": layout.n_edge_slots,
        "arrays": {
            name: getattr(layout, name) for name in _LAYOUT_ARRAY_FIELDS
        },
        "lists": {
            name: list(getattr(layout, name)) for name in _LAYOUT_LIST_FIELDS
        },
        "levels": {
            name: list(getattr(layout, name)) for name in _LAYOUT_LEVEL_FIELDS
        },
    }


def layout_from_payload(
    payload: Any, graph: TimingGraph
) -> "LevelizedLayout | None":
    """Rehydrate a persisted payload against the current graph, or None.

    Validation is deliberately strict — schema version, slot counts
    against the live graph, array types — because a stale or corrupt
    payload must degrade to a fresh build, never to a wrong layout.
    """
    if not isinstance(payload, dict) or payload.get("schema") != LAYOUT_SCHEMA:
        return None
    if (
        payload.get("n_node_slots") != len(graph.nodes)
        or payload.get("n_edge_slots") != len(graph.edges)
    ):
        return None
    kwargs: "dict[str, Any]" = {}
    arrays = payload["arrays"]
    for name in _LAYOUT_ARRAY_FIELDS:
        value = arrays[name]
        if not isinstance(value, np.ndarray):
            return None
        kwargs[name] = value
    for name in _LAYOUT_LIST_FIELDS:
        kwargs[name] = list(payload["lists"][name])
    for name in _LAYOUT_LEVEL_FIELDS:
        kwargs[name] = [
            np.asarray(arr, dtype=np.int64) for arr in payload["levels"][name]
        ]
    return LevelizedLayout(
        structure_version=graph.structure_version,
        n_node_slots=int(payload["n_node_slots"]),
        n_edge_slots=int(payload["n_edge_slots"]),
        gate_index={gate: col for col, gate in enumerate(kwargs["gates"])},
        **kwargs,
    )


def _layout_from_disk(
    key: tuple, graph: TimingGraph
) -> "LevelizedLayout | None":
    """Hydrate a content-keyed layout from the attached disk store."""
    store = _disk_store
    if store is None:
        return None
    from repro.service.keys import layout_key

    start = time.perf_counter()
    layout: "LevelizedLayout | None" = None
    try:
        payload = store.get("layout", layout_key(key, LAYOUT_SCHEMA))
        if payload is not None:
            layout = layout_from_payload(payload, graph)
    except Exception:  # a bad payload is a miss, never an error
        layout = None
    if layout is None:
        counter("kernel.layout_disk_misses").inc()
        return None
    counter("kernel.layout_disk_hits").inc()
    histogram("kernel.layout_hydrate_seconds").observe(
        time.perf_counter() - start
    )
    return layout


def _layout_to_disk(key: tuple, layout: LevelizedLayout) -> None:
    """Best-effort persist of a fresh keyed build (failures are silent)."""
    store = _disk_store
    if store is None:
        return
    from repro.service.keys import layout_key

    try:
        store.put("layout", layout_key(key, LAYOUT_SCHEMA),
                  layout_to_payload(layout))
    except Exception:
        pass


def build_layout(
    graph: TimingGraph,
    boundary: BoundaryConditions,
    depths: "dict[str, int]",
) -> LevelizedLayout:
    """Flatten the live graph into a :class:`LevelizedLayout`.

    ``depths`` is the GBA worst-depth map (baked into the per-edge depth
    array — it only changes when topology does, which rebuilds the
    layout anyway).  Clock-tree marking must be current: edge domains
    are classified here.

    Pristine-graph builds are served from the content-keyed layout
    cache when possible (see :func:`_layout_cache_key`), then from the
    attached disk store (see :func:`set_layout_disk_store`); the
    flattening itself is deterministic per content, so a clone or a
    hydrated payload is bit-identical to a fresh build.
    """
    key = _layout_cache_key(graph, boundary, depths)
    if key is not None:
        cached = _layout_cache.get(key)
        if (
            cached is not None
            and cached.n_node_slots == len(graph.nodes)
            and cached.n_edge_slots == len(graph.edges)
        ):
            _layout_cache.move_to_end(key)
            counter("kernel.layout_cache_hits").inc()
            return _clone_layout(cached)
        hydrated = _layout_from_disk(key, graph)
        if hydrated is not None:
            counter("kernel.layout_cache_misses").inc()
            _layout_cache[key] = hydrated
            while len(_layout_cache) > _LAYOUT_CACHE_MAX:
                _layout_cache.popitem(last=False)
            return hydrated
    start = time.perf_counter()
    with span("kernel.build", nodes=graph.node_count(),
              edges=graph.edge_count()):
        layout = _build_layout(graph, boundary, depths)
    histogram("kernel.layout_build_seconds").observe(
        time.perf_counter() - start
    )
    if key is not None:
        counter("kernel.layout_cache_misses").inc()
        _layout_cache[key] = layout
        while len(_layout_cache) > _LAYOUT_CACHE_MAX:
            _layout_cache.popitem(last=False)
        _layout_to_disk(key, layout)
    return layout


def _build_layout(
    graph: TimingGraph,
    boundary: BoundaryConditions,
    depths: "dict[str, int]",
) -> LevelizedLayout:
    # A build is the patch's splice of every slot over no layout, seeded
    # in topological order: each node pops once, after its whole fanin,
    # at its longest-fanin-chain level.
    layout = _splice(
        None, graph, boundary, depths, np.arange(len(graph.nodes)),
        np.arange(len(graph.edges)), graph.topological_order(),
    )
    assert layout is not None  # a build's levels are legal by construction
    return layout


def _domain_fields(domains: GraphDomains,
                   depths: "dict[str, int]") -> "dict[str, Any]":
    """The layout fields read from the graph's domain arrays.

    Live edges and edge sources, the clock/plain/data edge lists with
    the data arcs' gate columns and GBA depths, and the clock-tree mask
    (see :func:`repro.timing.domains.graph_domains`); the build and the
    patch both take them from here.  The arrays are shared, never
    written: a patch of the domains builds new ones.
    """
    edge_domain = domains.edge_domain
    data_eids = np.flatnonzero(edge_domain == DOMAIN_DATA)
    data_gate_cols = domains.edge_gate[data_eids]
    gates = list(domains.gates)
    depth_of_gate = np.asarray(
        [depths.get(gate, 1) for gate in gates], dtype=np.int64
    )
    return {
        "edge_src": domains.edge_src,
        "live_eids": np.flatnonzero(domains.edge_live),
        "clock_eids": np.flatnonzero(edge_domain == DOMAIN_CLOCK),
        "plain_eids": np.flatnonzero(edge_domain == DOMAIN_PLAIN),
        "data_eids": data_eids,
        "data_depths": depth_of_gate[data_gate_cols],
        "data_gate_cols": data_gate_cols,
        "gates": gates,
        "gate_index": domains.gate_index,
        "node_is_clock_tree": domains.node_is_clock_tree,
    }


def _slot_fields(graph: TimingGraph, base: "LevelizedLayout | None",
                 nids: np.ndarray, eids: np.ndarray) -> "dict[str, Any]":
    """The per-slot layout fields the domain arrays lack, re-read for
    node slots ``nids`` and edge slots ``eids`` over ``base``'s fields
    (a build reads every slot over none).

    Each node's column in ``node_gates``, each edge's net/cell split,
    and the net a cell arc loads as its index in ``cell_nets``.  Both
    name lists grow in first-use order; ``cell_nets`` then keeps only
    the nets live cell arcs still load, ordered by the first arc that
    loads each (a build's order), so a full sweep never asks for a load
    on a net that is gone, such as a removed buffer's output.
    """
    n_nodes, n_edges = len(graph.nodes), len(graph.edges)
    if base is None:
        node_gate_col = np.full(n_nodes, -1, dtype=np.int64)
        edge_is_net = np.zeros(n_edges, dtype=bool)
        cell_edge_net = np.full(n_edges, -1, dtype=np.int64)
        node_gates: "list[str]" = []
        cell_nets: "list[str]" = []
    else:
        node_gate_col = padded(base.node_gate_col, n_nodes, -1)
        edge_is_net = padded(base.edge_is_net, n_edges, False)
        cell_edge_net = padded(base.cell_edge_net, n_edges, -1)
        node_gates, cell_nets = list(base.node_gates), list(base.cell_nets)
    gate_col = {gate: col for col, gate in enumerate(node_gates)}
    cols: "list[int]" = []
    for node_id in nids.tolist():
        node = graph.nodes[node_id]
        gate = None if node is None else node.ref.gate
        cols.append(-1 if gate is None else _first_use(gate_col, node_gates, gate))
    node_gate_col[nids] = cols
    net_col = {net: idx for idx, net in enumerate(cell_nets)}
    is_net: "list[bool]" = []
    nets: "list[int]" = []
    gate_of = graph.netlist.gate
    for edge_id in eids.tolist():
        edge = graph.edges[edge_id]
        is_net.append(edge is not None and edge.kind is EdgeKind.NET)
        net = None
        if edge is not None and edge.kind is EdgeKind.CELL:
            ref = graph.node(edge.dst).ref  # an output pin of the gate
            net = gate_of(ref.gate).connections.get(ref.pin)
        nets.append(-1 if net is None else _first_use(net_col, cell_nets, net))
    edge_is_net[eids] = is_net
    cell_edge_net[eids] = nets
    loading = np.flatnonzero(cell_edge_net >= 0)
    used, first = np.unique(cell_edge_net[loading], return_index=True)
    kept = used[np.argsort(first)]
    renumber = np.full(len(cell_nets), -1, dtype=np.int64)
    renumber[kept] = np.arange(kept.size, dtype=np.int64)
    cell_edge_net[loading] = renumber[cell_edge_net[loading]]
    return {
        "node_gate_col": node_gate_col,
        "node_gates": node_gates,
        "edge_is_net": edge_is_net,
        "cell_edge_net": cell_edge_net,
        "cell_nets": [cell_nets[idx] for idx in kept.tolist()],
    }


def _first_use(index: "dict[str, int]", names: "list[str]", name: str) -> int:
    """``name``'s position in ``names``, appended on first use."""
    col = index.get(name)
    if col is None:
        col = index[name] = len(names)
        names.append(name)
    return col


def _split_fanout(
    level_ptr: np.ndarray,
    out_ptr: np.ndarray,
    out_edge: np.ndarray,
    edge_is_net: np.ndarray,
    edge_src: np.ndarray,
) -> "tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]":
    """Each level's fanout split into net arcs (pass-through, with their
    sources) and cell arcs (LUT), in fanout CSR order."""
    net_eids_by_level: list[np.ndarray] = []
    net_srcs_by_level: list[np.ndarray] = []
    cell_eids_by_level: list[np.ndarray] = []
    for lv in range(len(level_ptr) - 1):
        eids = out_edge[out_ptr[level_ptr[lv]]:out_ptr[level_ptr[lv + 1]]]
        is_net = edge_is_net[eids]
        net_eids = eids[is_net]
        net_eids_by_level.append(net_eids)
        net_srcs_by_level.append(edge_src[net_eids])
        cell_eids_by_level.append(eids[~is_net])
    return net_eids_by_level, net_srcs_by_level, cell_eids_by_level


def _boundary_source_values(
    graph: TimingGraph,
    boundary: BoundaryConditions,
    node_id: int,
) -> "tuple[float, float]":
    """(arrival, slew) of one level-0 source, mirroring
    ``propagation.apply_boundary`` exactly."""
    node = graph.node(node_id)
    if node.ref.is_port and node.ref.pin in boundary.clock_ports:
        return 0.0, boundary.clock_slew
    if node.ref.is_port:
        return boundary.input_delays.get(node.ref.pin, 0.0), boundary.input_slew
    return 0.0, boundary.input_slew


# ----------------------------------------------------------------------
# Incremental level maintenance: the one layout splice
# ----------------------------------------------------------------------
def patch_layout(
    layout: LevelizedLayout,
    graph: TimingGraph,
    boundary: BoundaryConditions,
    depths: "dict[str, int]",
) -> "LevelizedLayout | None":
    """Splice a bounded structural edit into an existing layout.

    Reads the touched node/edge slots from the graph's structure
    journal and hands them to :func:`_splice`, the code a build runs
    over every slot: it re-levels the affected region with a worklist
    and gathers every untouched CSR row from ``layout``.  Returns a
    **new** layout at the graph's current ``structure_version``, or
    ``None`` when the edit is not provably local (journal overflow or
    any legality check failing), in which case the caller must fall
    back to :func:`build_layout`.

    Bit-identity is preserved because the sweeps never depend on the
    *canonical* (longest-fanin-chain) level assignment — any legal
    levelization (``level[src] < level[dst]`` on every live edge)
    reduces each node over the same fanin multiset, and a final
    legality check gates the patched assignment.  Counted by
    ``kernel.layout_patches`` / ``kernel.layout_patch_fallbacks``.
    """
    if layout.structure_version == graph.structure_version:
        return layout
    with span("kernel.patch"):
        patched = _patch_layout(layout, graph, boundary, depths)
    if patched is None:
        counter("kernel.layout_patch_fallbacks").inc()
    else:
        counter("kernel.layout_patches").inc()
    return patched


def _patch_layout(
    layout: LevelizedLayout,
    graph: TimingGraph,
    boundary: BoundaryConditions,
    depths: "dict[str, int]",
) -> "LevelizedLayout | None":
    touched = graph.touched_since(layout.structure_version)
    if touched is None:
        return None
    nids, eids = (np.fromiter(sorted(ids), dtype=np.int64) for ids in touched)
    nodes = graph.nodes
    return _splice(
        layout, graph, boundary, depths, nids, eids,
        [node_id for node_id in nids.tolist() if nodes[node_id] is not None],
    )


def _splice(
    base: "LevelizedLayout | None",
    graph: TimingGraph,
    boundary: BoundaryConditions,
    depths: "dict[str, int]",
    nids: np.ndarray,
    eids: np.ndarray,
    seeds: "list[int]",
) -> "LevelizedLayout | None":
    """``base`` with node slots ``nids`` and edge slots ``eids`` re-read
    from the graph, or None when the result fails a legality check.

    The one code that assembles a :class:`LevelizedLayout`: a build is
    the same call over every slot of no base (:func:`_build_layout`), a
    patch over the slots the structure journal names.  ``seeds`` are
    the live nodes among ``nids``, where the level worklist starts.
    Every other node keeps its base level (raised when a fanin rises),
    CSR rows and boundary values, and every other slot its per-slot
    fields; edge endpoints, liveness, derate classes and the clock-tree
    mask come from the graph's domain arrays.
    """
    n_nodes = len(graph.nodes)
    domains = graph_domains(graph)
    classes = _domain_fields(domains, depths)
    edge_src, edge_dst = domains.edge_src, domains.edge_dst
    live_eids = classes["live_eids"]
    reread = np.zeros(n_nodes, dtype=bool)
    reread[nids] = True
    # Only a re-read slot can change liveness (or be freed and reused).
    live = (
        np.zeros(n_nodes, dtype=bool) if base is None
        else padded(base.pos_of >= 0, n_nodes, False)
    )
    live[nids] = False
    live[seeds] = True
    levels = (
        [-1] * n_nodes if base is None
        else np.where(live, padded(base.node_level, n_nodes, -1), -1).tolist()
    )
    if not _raise_levels(graph, edge_src.tolist(), seeds, levels):
        return None
    node_level = np.asarray(levels, dtype=np.int64)

    # --- order / level_ptr / pos_of, gated on legality ------------------
    live_ids = np.flatnonzero(live)
    level_of_live = node_level[live_ids]
    if level_of_live.min(initial=0) < 0 or not np.all(
        node_level[edge_src[live_eids]] < node_level[edge_dst[live_eids]]
    ):
        return None
    # live_ids ascends and the sort is stable: each level lists its
    # nodes in id order.
    order = live_ids[np.argsort(level_of_live, kind="stable")]
    n_levels = int(level_of_live.max(initial=-1)) + 1
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(np.bincount(level_of_live, minlength=n_levels),
              out=level_ptr[1:])
    pos_of = np.full(n_nodes, -1, dtype=np.int64)
    pos_of[order] = np.arange(order.size, dtype=np.int64)

    # --- fanin / fanout CSR ---------------------------------------------
    # An untouched node's rows are gathered from the base; a re-read
    # node's rows come from the graph's adjacency lists.
    fresh = reread[order]
    fresh_ids = order[fresh].tolist()
    if base is None:  # every row is fresh
        old_rows = np.empty(0, dtype=np.int64)
        in_base = out_base = (old_rows, old_rows)
    else:
        old_rows = base.pos_of[order[~fresh]]
        in_base = (base.in_ptr, base.in_edge)
        out_base = (base.out_ptr, base.out_edge)
    in_ptr, in_edge = _splice_rows(
        *in_base, old_rows, fresh, fresh_ids, graph.in_edges
    )
    out_ptr, out_edge = _splice_rows(
        *out_base, old_rows, fresh, fresh_ids, graph.out_edges
    )
    # Every live edge appears exactly once per CSR, or the splice is
    # inconsistent with the graph (e.g. a journal gap): rebuild.
    if in_ptr[-1] != live_eids.size or out_ptr[-1] != live_eids.size:
        return None

    # --- boundary (level-0) values --------------------------------------
    # An untouched base source keeps its values: they are a pure
    # function of its ref and the boundary.
    source_ids = live_ids[level_of_live == 0]
    boundary_arrival = np.zeros(n_nodes)
    boundary_slew = np.zeros(n_nodes)
    carried = np.zeros(n_nodes, dtype=bool)
    if base is not None:
        carried[base.source_ids] = True
        carried[nids] = False
        kept = np.flatnonzero(carried)
        boundary_arrival[kept] = base.boundary_arrival[kept]
        boundary_slew[kept] = base.boundary_slew[kept]
    for node_id in source_ids[~carried[source_ids]].tolist():
        arrival, slew_value = _boundary_source_values(graph, boundary, node_id)
        boundary_arrival[node_id] = arrival
        boundary_slew[node_id] = slew_value

    slots = _slot_fields(graph, base, nids, eids)
    net_eids_by_level, net_srcs_by_level, cell_eids_by_level = _split_fanout(
        level_ptr, out_ptr, out_edge, slots["edge_is_net"], edge_src
    )
    return LevelizedLayout(
        structure_version=graph.structure_version,
        n_node_slots=n_nodes,
        n_edge_slots=len(graph.edges),
        order=order,
        pos_of=pos_of,
        level_ptr=level_ptr,
        in_ptr=in_ptr,
        in_edge=in_edge,
        in_src=edge_src[in_edge],
        out_ptr=out_ptr,
        out_edge=out_edge,
        out_dst=edge_dst[out_edge],
        source_ids=source_ids,
        boundary_arrival=boundary_arrival,
        boundary_slew=boundary_slew,
        net_eids_by_level=net_eids_by_level,
        net_srcs_by_level=net_srcs_by_level,
        cell_eids_by_level=cell_eids_by_level,
        node_level=node_level,
        **slots,
        **classes,
    )


def _raise_levels(graph: TimingGraph, src_of: "list[int]",
                  seeds: "list[int]", levels: "list[int]") -> bool:
    """Raise ``levels`` (per node slot, -1 for not yet levelled) from
    ``seeds`` until every visited node sits above its whole fanin;
    False when the worklist runs away.

    Raise-only: a node moves up just far enough for legality and never
    back down.  The sweeps need legality, not canonical (longest-chain)
    levels (see :func:`patch_layout`), which pays off on the revert
    half of a what-if: the raised levels stay legal after the buffer
    comes back out, so re-editing the same site cascades zero nodes.
    A node levelled for the first time wakes no fanout, which is queued
    already: a new node's arcs are new, so their sinks are seeds, and a
    build seeds every node in topological order.  The wake budget is a
    livelock backstop (a cycle would requeue forever), not a cone bound.
    """
    in_edges, out_edges, edges = graph.in_edges, graph.out_edges, graph.edges
    pending: "deque[int]" = deque(seeds)
    queued = set(seeds)
    budget = 32 * graph.node_count() + 256
    while pending:
        node_id = pending.popleft()
        queued.discard(node_id)
        best = 0
        for edge_id in in_edges[node_id]:
            level = levels[src_of[edge_id]]
            if level < 0:  # a new fanin not levelled yet: retry after it
                best = -1
                break
            if level >= best:
                best = level + 1
        current = levels[node_id]
        if best < 0:
            woken = [node_id]
        elif best > current:
            levels[node_id] = best
            if current < 0:
                continue
            woken = [edges[edge_id].dst  # type: ignore[union-attr]
                     for edge_id in out_edges[node_id]]
        else:
            continue
        budget -= len(woken)
        if budget < 0:
            return False
        for dst in woken:
            if dst not in queued:
                pending.append(dst)
                queued.add(dst)
    return True


def _splice_rows(
    base_ptr: np.ndarray,
    base_flat: np.ndarray,
    old_rows: np.ndarray,
    fresh: np.ndarray,
    fresh_ids: "list[int]",
    adjacency: "list[list[int]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """``(ptr, edge ids)`` of one CSR in the new row order.

    Rows where ``fresh`` is False are gathered from the base CSR's rows
    ``old_rows``; fresh rows are the adjacency lists of nodes
    ``fresh_ids``, read in one flat pass.
    """
    rows = list(map(adjacency.__getitem__, fresh_ids))
    kept = ~fresh
    counts = np.empty(fresh.size, dtype=np.int64)
    old_starts = base_ptr[old_rows]
    counts[kept] = base_ptr[old_rows + 1] - old_starts
    counts[fresh] = np.fromiter(map(len, rows), dtype=np.int64,
                                count=len(rows))
    ptr = np.zeros(fresh.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    flat = np.empty(int(ptr[-1]), dtype=np.int64)
    src, _ = segment_entries(old_starts, counts[kept])
    dst, _ = segment_entries(ptr[:-1][kept], counts[kept])
    flat[dst] = base_flat[src]
    dst, _ = segment_entries(ptr[:-1][fresh], counts[fresh])
    flat[dst] = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                            count=dst.size)
    return ptr, flat


# ----------------------------------------------------------------------
# Derate fill (vectorized compute_edge_derates)
# ----------------------------------------------------------------------
def compute_edge_derates(
    layout: LevelizedLayout,
    graph: TimingGraph,
    state: TimingState,
    settings: DerateSettings,
    weights: "dict[str, float]",
) -> None:
    """Vectorized fill of the per-edge late/early derate arrays.

    Depth → derate goes through a per-depth table indexed by the baked
    integer depth array; the mGBA correction is a per-gate weight
    vector scattered through the layout's gate → column map.  Only live
    edge slots are written (the scalar oracle never touches dead
    slots either).
    """
    state.ensure_capacity(len(graph.nodes), len(graph.edges))
    if layout.clock_eids.size:
        state.derate_late[layout.clock_eids] = settings.clock_late
        state.derate_early[layout.clock_eids] = settings.clock_early
    if layout.plain_eids.size:
        state.derate_late[layout.plain_eids] = 1.0
        state.derate_early[layout.plain_eids] = 1.0
    if not layout.data_eids.size:
        return
    depths, inverse = np.unique(layout.data_depths, return_inverse=True)

    def by_depth(table: "DeratingTable | None", flat: float) -> np.ndarray:
        # One lookup per distinct depth: the call the scalar fill
        # memoizes, so both kernels read identical factors.
        if table is None:
            return np.full(inverse.size, flat)
        return np.asarray([
            table.derate(depth, settings.gba_distance)
            for depth in depths.tolist()
        ])[inverse]

    weight_vec = np.ones(len(layout.gates))
    for gate, weight in weights.items():
        col = layout.gate_index.get(gate)
        if col is not None:
            weight_vec[col] = weight
    state.derate_late[layout.data_eids] = (
        by_depth(settings.table, settings.flat_late)
        * weight_vec[layout.data_gate_cols]
    )
    state.derate_early[layout.data_eids] = by_depth(
        settings.early_table, settings.data_early
    )


# ----------------------------------------------------------------------
# Forward propagation
# ----------------------------------------------------------------------
def _refresh_static_delays(
    layout: LevelizedLayout,
    graph: TimingGraph,
    calc: "DelayCalculator",
    state: TimingState,
) -> np.ndarray:
    """Per-update delay-calc statics: net loads and net-arc delays.

    Writes each net arc's delay into ``state.edge_delay`` — one
    engine's ``(n_edges,)`` array, or every column of a scenario
    stack's ``(n_edges, S)`` array (net arcs are never delay-scaled, so
    one value serves every scenario) — and returns the per-edge load
    array for cell arcs.  Loads and wire delays depend on pin caps /
    placement / parasitics — cheap to recompute per full update (one
    pass per *net* instead of the scalar engine's one pass per *edge*)
    and always fresh after a resize.
    """
    net_loads = np.asarray(
        [calc.output_load(net) for net in layout.cell_nets]
    ) if layout.cell_nets else np.empty(0)
    load_of_edge = np.zeros(layout.n_edge_slots)
    covered = layout.cell_edge_net >= 0
    if covered.any():
        load_of_edge[covered] = net_loads[layout.cell_edge_net[covered]]
    edge_delay = state.edge_delay
    for eids in layout.net_eids_by_level:
        for eid in eids.tolist():
            edge = graph.edges[eid]
            assert edge is not None
            edge_delay[eid] = calc.net_edge(graph, edge, 0.0)[0]
    return load_of_edge


def propagate_full(
    layout: LevelizedLayout,
    graph: TimingGraph,
    calc: "DelayCalculator",
    state: TimingState,
    boundary: BoundaryConditions,
) -> None:
    """One complete level-synchronous forward pass (vector kernel).

    Bit-identical to :func:`repro.timing.propagation.propagate_full`
    (assumes the derate arrays are current, exactly like the scalar
    path).
    """
    with span(
        "kernel.propagate", levels=layout.levels,
        nodes=int(layout.order.size), edges=int(layout.live_eids.size),
    ):
        _propagate_full(layout, graph, calc, state, boundary)
    counter("kernel.vector_full_updates").inc()
    gauge("kernel.levels").set(layout.levels)


def _flow_fingerprint(graph, calc, state, boundary) -> tuple:
    """Inputs the slew/delay-calc fixpoint depends on (see ``_flow_key``)."""
    return (
        graph.arc_epoch, id(calc), calc.delay_scale, id(state), boundary,
    )


def _propagate_arrivals_only(layout, state) -> None:
    """Arrival sweep over a known slew/delay fixpoint.

    Runs when ``_flow_key`` certifies that the state's slews, base
    delays, and out-slews are unchanged since the last full pass — the
    steady state of the mGBA loop, where ``set_gate_weights`` only
    moves the derate arrays.  The arrival expressions are the full
    sweep's (:func:`_reduce_fanin`), evaluated over the identical
    delay arrays, so the resulting state is bit-identical to a
    from-scratch update.
    """
    src_ids = layout.source_ids
    state.arrival_late[src_ids] = layout.boundary_arrival[src_ids]
    state.arrival_early[src_ids] = layout.boundary_arrival[src_ids]
    for lv in range(1, layout.levels):
        p0, p1 = int(layout.level_ptr[lv]), int(layout.level_ptr[lv + 1])
        s, e = int(layout.in_ptr[p0]), int(layout.in_ptr[p1])
        _reduce_fanin(
            state, layout.order[p0:p1], layout.in_edge[s:e],
            layout.in_src[s:e], layout.in_ptr[p0:p1] - s, slews=False,
        )


def _reduce_fanin(state: TimingState, ids: np.ndarray, eids: np.ndarray,
                  srcs: np.ndarray, seg: np.ndarray,
                  slews: bool = True) -> None:
    """Relax nodes ``ids`` over their fanin entries, in place.

    Node ``ids[i]``'s fanin arcs are ``eids``/``srcs`` entries
    ``seg[i]`` up to the next start: late arrivals are the max of
    ``arrival + delay * derate_late``, early arrivals the min with
    ``derate_early``, and (with ``slews``) the slew the max of the arcs'
    out-slews, floored at 0.0 — the scalar ``relax_node``'s
    expressions.  Every state array is indexed along axis 0, so one
    engine's 1-D arrays and a scenario stack's ``(n, S)`` arrays take
    the same code.
    """
    delays = state.edge_delay[eids]
    state.arrival_late[ids] = np.maximum.reduceat(
        state.arrival_late[srcs] + delays * state.derate_late[eids], seg
    )
    state.arrival_early[ids] = np.minimum.reduceat(
        state.arrival_early[srcs] + delays * state.derate_early[eids], seg
    )
    if slews:
        state.slew[ids] = np.maximum(
            np.maximum.reduceat(state.edge_out_slew[eids], seg), 0.0
        )


def _propagate_full(layout, graph, calc, state, boundary) -> None:
    state.ensure_capacity(len(graph.nodes), len(graph.edges))
    if not layout.order.size:
        return
    flow_key = _flow_fingerprint(graph, calc, state, boundary)
    if layout._flow_key == flow_key:
        counter("kernel.arrival_only_updates").inc()
        _propagate_arrivals_only(layout, state)
        return
    layout._flow_key = None
    load_of_edge = _refresh_static_delays(layout, graph, calc, state)
    sweep_levels(
        layout, graph, calc, state, layout.boundary_arrival,
        layout.boundary_slew, load_of_edge, calc.delay_scale,
    )
    layout._flow_key = flow_key


def sweep_levels(
    layout: LevelizedLayout,
    graph: TimingGraph,
    calc: "DelayCalculator",
    state: TimingState,
    boundary_arrival: np.ndarray,
    boundary_slew: np.ndarray,
    load_of_edge: np.ndarray,
    scale: "float | np.ndarray",
) -> None:
    """The level loop: boundary fill, fanin reductions, fanout delay calc.

    The one forward sweep of the vector kernel; it writes the state's
    arrivals, slews, and cell and net arcs' delays and out-slews (net
    arc delays come from :func:`_refresh_static_delays`).  Every array
    is indexed by node or edge id along axis 0; a trailing axis, when
    present, holds one column per scenario
    (:mod:`repro.timing.scenarios`), so plain ``a[ids]`` indexing and
    ``reduceat`` along axis 0 serve one engine's 1-D arrays and a
    scenario stack's ``(n, S)`` arrays alike.
    ``load_of_edge`` is ``(n_edges,)`` or ``(n_edges, 1)`` and ``scale``
    a float or an ``(S,)`` row, broadcast by
    :meth:`~repro.timing.delaycalc.DelayCalculator.compute_arcs_batch`.
    Column ``s`` therefore evaluates exactly the arithmetic a lone
    engine evaluates for scenario ``s``.
    """
    groups = layout.cell_groups(graph)
    slew = state.slew
    edge_delay = state.edge_delay
    edge_out_slew = state.edge_out_slew
    # Boundary fill (level 0 = exactly the no-fanin nodes).
    src_ids = layout.source_ids
    state.arrival_late[src_ids] = boundary_arrival[src_ids]
    state.arrival_early[src_ids] = boundary_arrival[src_ids]
    slew[src_ids] = boundary_slew[src_ids]
    batch_hist = histogram("kernel.level_batch")
    for lv in range(layout.levels):
        p0, p1 = int(layout.level_ptr[lv]), int(layout.level_ptr[lv + 1])
        ids = layout.order[p0:p1]
        batch_hist.observe(ids.size)
        if lv > 0:
            s, e = int(layout.in_ptr[p0]), int(layout.in_ptr[p1])
            _reduce_fanin(
                state, ids, layout.in_edge[s:e], layout.in_src[s:e],
                layout.in_ptr[p0:p1] - s,
            )
        # Fanout delay calc at the level's (now final) slews.
        net_eids = layout.net_eids_by_level[lv]
        if net_eids.size:
            edge_out_slew[net_eids] = slew[layout.net_srcs_by_level[lv]]
        arcs = groups[lv]
        if arcs is not None:
            eids = arcs.eids
            delays, out_slews = calc.compute_arcs_batch(
                arcs.tables, slew[arcs.srcs], load_of_edge[eids], scale
            )
            edge_delay[eids] = delays
            edge_out_slew[eids] = out_slews


# ----------------------------------------------------------------------
# Incremental propagation (frontier-bounded level sweep)
# ----------------------------------------------------------------------
def propagate_incremental(
    layout: LevelizedLayout,
    graph: TimingGraph,
    calc: "DelayCalculator",
    state: TimingState,
    boundary: BoundaryConditions,
    seeds: "set[int]",
) -> int:
    """Re-relax only the affected cone via a per-level frontier.

    Dirty nodes are bucketed by level (a heap of level indices), and
    the sweep advances through exactly the levels that hold dirty nodes
    — an edit touching a 50-node cone on a deep design does O(cone)
    work, not a scan over every level.  Fanout marking only ever
    targets strictly deeper levels (levelization legality), so each
    level is processed at most once and the relaxed set is identical to
    the old full-mask scan.

    Semantics mirror the scalar rank-ordered worklist exactly: a node
    is re-relaxed iff it is a seed or an already-relaxed fanin source
    moved (value or out-edge delay) beyond the shared epsilon — both
    schemes process nodes in a topological order, so the relaxed sets
    (and therefore the resulting states) are identical.  Returns the
    number of nodes visited, like the scalar pass.
    """
    if not seeds:
        return 0
    # An incremental sweep rewrites slews/delays in the cone under the
    # same state object; the next full update must re-derive them.
    layout._flow_key = None
    node_level = layout.node_level
    dirty = np.zeros(layout.n_node_slots, dtype=bool)
    buckets: "dict[int, list[int]]" = {}
    heap: list[int] = []

    def mark(node_id: int) -> None:
        if dirty[node_id]:
            return
        lv = int(node_level[node_id])
        if lv < 0:  # dead slot: the scalar worklist skips these too
            return
        dirty[node_id] = True
        bucket = buckets.get(lv)
        if bucket is None:
            buckets[lv] = [node_id]
            heapq.heappush(heap, lv)
        else:
            bucket.append(node_id)

    for seed in seeds:
        if 0 <= seed < layout.n_node_slots:
            mark(seed)
    visited = 0
    levels_touched = 0
    arrival_late = state.arrival_late
    arrival_early = state.arrival_early
    slew = state.slew
    while heap:
        lv = heapq.heappop(heap)
        # Ascending id within the level — the exact order the old
        # mask-over-``order`` scan produced (order sorts ties by id).
        sel = np.asarray(sorted(buckets.pop(lv)), dtype=np.int64)
        levels_touched += 1
        visited += int(sel.size)
        old_late = arrival_late[sel].copy()
        old_early = arrival_early[sel].copy()
        old_slew = slew[sel].copy()
        if lv == 0:
            arrival_late[sel] = layout.boundary_arrival[sel]
            arrival_early[sel] = layout.boundary_arrival[sel]
            slew[sel] = layout.boundary_slew[sel]
        else:
            positions = layout.pos_of[sel]
            starts = layout.in_ptr[positions]
            counts = layout.in_ptr[positions + 1] - starts
            flat, _ = segment_entries(starts, counts)
            _reduce_fanin(
                state, sel, layout.in_edge[flat], layout.in_src[flat],
                counts.cumsum() - counts,
            )
        node_moved = (
            (np.abs(arrival_late[sel] - old_late) > MOVE_EPS)
            | (np.abs(arrival_early[sel] - old_early) > MOVE_EPS)
            | (np.abs(slew[sel] - old_slew) > MOVE_EPS)
        ).tolist()
        # Out-edge delay calc stays scalar here: cones are small and the
        # per-edge diff must match the worklist's exactly.
        for moved, node_id in zip(node_moved, sel.tolist()):
            edges_moved = update_out_edges(graph, calc, state, node_id)
            if moved or edges_moved:
                for edge_id in graph.out_edges[node_id]:
                    mark(graph.edges[edge_id].dst)  # type: ignore[union-attr]
    counter("kernel.incremental_sweeps").inc()
    histogram("kernel.frontier_levels").observe(levels_touched)
    return visited


# ----------------------------------------------------------------------
# Backward required-time pass
# ----------------------------------------------------------------------
def compute_required_times(
    layout: LevelizedLayout,
    graph: TimingGraph,
    state: TimingState,
    constraints: "Constraints",
) -> np.ndarray:
    """Vectorized mirror of :func:`repro.timing.slack.compute_required_times`.

    Endpoint initialization (per-endpoint setup checks) stays scalar —
    it is one LUT lookup per endpoint — while the backward min-plus
    sweep runs one segment reduction per level.
    """
    from repro.timing.slack import endpoint_clock_map, setup_required

    clock_map = endpoint_clock_map(graph, constraints)
    required = np.full(len(graph.nodes), POS_INF)
    for node_id in sorted(graph.endpoints):
        info = graph.endpoints[node_id]
        value, _ = setup_required(
            graph, state, info, clock_map[node_id], constraints
        )
        required[node_id] = value
    clock_node = layout.node_is_clock_tree
    edge_delay = state.edge_delay
    for lv in range(layout.levels - 1, -1, -1):
        p0, p1 = int(layout.level_ptr[lv]), int(layout.level_ptr[lv + 1])
        ids = layout.order[p0:p1]
        data_mask = ~clock_node[ids]
        if not data_mask.any():
            continue
        s, e = int(layout.out_ptr[p0]), int(layout.out_ptr[p1])
        if s == e:
            continue  # no fanout in this level: inits stand
        seg = layout.out_ptr[p0:p1] - s
        counts = np.diff(np.append(seg, e - s))
        eids = layout.out_edge[s:e]
        dsts = layout.out_dst[s:e]
        cand = required[dsts] - edge_delay[eids] * state.derate_late[eids]
        cand[clock_node[dsts]] = POS_INF  # never tighten through the clock
        # reduceat cannot express empty segments: dropping their start
        # indices merges nothing (zero elements), so reduce over the
        # non-empty segment starts only and leave the rest at +inf.
        nonempty = counts > 0
        reduced = np.full(ids.size, POS_INF)
        if nonempty.any():
            reduced[nonempty] = np.minimum.reduceat(cand, seg[nonempty])
        upd = ids[data_mask]
        required[upd] = np.minimum(required[upd], reduced[data_mask])
    return required


def gate_worst_slacks(
    layout: LevelizedLayout,
    graph: TimingGraph,
    state: TimingState,
    required: np.ndarray,
) -> "dict[str, float]":
    """Vectorized mirror of :func:`repro.timing.slack.gate_worst_slacks`.

    Same values, same dict insertion order (first qualifying node in
    node-id order) — the closure optimizer's tie-breaking depends on it.
    """
    ids = np.sort(layout.order)  # live nodes in id order (scalar iteration)
    cols = layout.node_gate_col[ids]
    req = required[ids]
    mask = (cols >= 0) & (req != POS_INF)
    if not mask.any():
        return {}
    cols = cols[mask]
    slacks = req[mask] - state.arrival_late[ids[mask]]
    best = np.full(len(layout.node_gates), POS_INF)
    np.minimum.at(best, cols, slacks)
    _, first = np.unique(cols, return_index=True)
    ordered = cols[np.sort(first)]
    return {
        layout.node_gates[col]: float(best[col]) for col in ordered.tolist()
    }


# ----------------------------------------------------------------------
# CSR row gathers
# ----------------------------------------------------------------------
def segment_entries(starts: np.ndarray, counts: np.ndarray) \
        -> "tuple[np.ndarray, np.ndarray]":
    """``(flat, segment)`` of the index runs ``starts[i] + [0, counts[i])``.

    ``flat`` concatenates the runs in order and ``segment[j]`` is the
    run entry ``j`` belongs to: the rows of a CSR row subset (the
    frontier's fanin rows, a patch's reused rows, PBA's path rows, the
    SCG's sampled matrix rows).
    """
    segment = np.arange(len(counts)).repeat(counts)
    flat = (
        np.arange(len(segment))
        + (starts - (counts.cumsum() - counts))[segment]
    )
    return flat, segment
