"""Exact k-worst path enumeration.

For each endpoint the enumerator walks *backward* from the capture pin,
growing path suffixes best-first.  The priority of a partial suffix
rooted at node ``v`` with accumulated suffix delay ``S`` is::

    arrival_late(v) + S

Because ``arrival_late(v)`` is the exact longest-prefix delay into
``v``, this bound is tight: suffixes pop off the heap in exact
non-increasing order of the complete-path arrival they extend to, so the
first k completed paths *are* the k worst — no heuristic slop.  This is
the classic "path peeling" trick that makes per-endpoint top-k' path
selection (§3.2 of the paper) cheap: nothing is enumerated beyond what
is returned.

A path is complete when the walk reaches a launch boundary: a flop Q
output (whose arrival already contains the late clock insertion and
CK->Q) or an input port (whose arrival is the SDC input delay).

The walk reads Python list mirrors of one timing state
(:func:`path_mirrors`): the late delay ``edge_delay * derate_late`` and
the late arrival per id, and the edge sources, clock-tree mask and
launch mask of :func:`repro.timing.domains.graph_domains` (the clock
mask keeps the walk out of the clock network).  Building them reads
every node and edge, so a call builds them once for all its endpoints,
and a caller that walks the same timing again and again (one endpoint
at a time, as the golden endpoint slack does) passes them in.  A heap
entry names its suffix by a parent pointer into one shared link list,
so a push costs no tuple copy; a completed path is read back along the
pointers, launch to endpoint.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.pba.paths import TimingPath
from repro.timing.domains import graph_domains
from repro.timing.graph import TimingGraph
from repro.timing.propagation import TimingState


@dataclass(frozen=True)
class PathMirrors:
    """Id-indexed Python lists the walk reads, of one timing state."""

    late: "list[float]"          # edge_delay * derate_late
    arrival: "list[float]"       # late arrival per node
    in_edges: "list[list[int]]"  # the graph's own fanin lists
    src: "list[int]"             # source node per edge
    clock: "list[bool]"          # node on the clock tree
    launch: "list[bool]"         # node is a launch boundary


def path_mirrors(graph: TimingGraph, state: TimingState) -> PathMirrors:
    """The walk's mirrors of ``state``; stale once the timing changes."""
    domains = graph_domains(graph)
    n_edges = len(graph.edges)
    return PathMirrors(
        late=(
            state.edge_delay[:n_edges] * state.derate_late[:n_edges]
        ).tolist(),
        arrival=state.arrival_late.tolist(),
        in_edges=graph.in_edges,
        src=domains.edge_src.tolist(),
        clock=domains.node_is_clock_tree.tolist(),
        launch=domains.node_is_launch.tolist(),
    )


def _walk(mirrors: PathMirrors, endpoint: int, k: int,
          min_arrival: float) -> "list[tuple[int, tuple[int, ...], float]]":
    """``(launch, edges, arrival)`` of the k worst paths, worst first."""
    late, arrival, in_edges = mirrors.late, mirrors.arrival, mirrors.in_edges
    src_of, clock, launch = mirrors.src, mirrors.clock, mirrors.launch
    results: "list[tuple[int, tuple[int, ...], float]]" = []
    # Tie-breaker: *newest first* (LIFO).  Equal-priority plateaus are
    # common — reconvergent fanin through arcs with identical delays —
    # and FIFO tie-breaking explores such a plateau breadth-first,
    # which can pop exponentially many partial suffixes before the
    # first complete path.  LIFO makes ties depth-first, so every
    # completion costs ~path-length pops and the enumeration stays
    # O(k * L) even on tie-heavy designs.  The returned order is still
    # exact (ties are interchangeable by definition).
    counter = itertools.count(0, -1)
    # links[i] = (edge id, parent link): the suffix ending at the
    # endpoint (parent -1 is the empty suffix).
    links: "list[tuple[int, int]]" = []
    heap: "list[tuple[float, int, int, int]]" = [
        (-arrival[endpoint], next(counter), endpoint, -1)
    ]
    while heap and len(results) < k:
        neg_priority, _, node_id, link = heapq.heappop(heap)
        priority = -neg_priority
        if priority < min_arrival:
            break
        if launch[node_id]:
            edges: "list[int]" = []
            while link >= 0:
                edge_id, link = links[link]
                edges.append(edge_id)
            results.append((node_id, tuple(edges), priority))
            continue
        suffix_delay = priority - arrival[node_id]
        for edge_id in in_edges[node_id]:
            src = src_of[edge_id]
            if clock[src]:
                continue  # never peel into the clock network
            new_delay = suffix_delay + late[edge_id]
            bound = arrival[src] + new_delay
            if bound < min_arrival:
                continue
            links.append((edge_id, link))
            heapq.heappush(
                heap, (-bound, next(counter), src, len(links) - 1)
            )
    return results


def _records(graph: TimingGraph, endpoint: int,
             found: "list[tuple[int, tuple[int, ...], float]]",
             names: "dict[int, str]") -> "list[TimingPath]":
    def name(node_id: int) -> str:
        text = names.get(node_id)
        if text is None:
            text = names[node_id] = str(graph.node(node_id).ref)
        return text

    return [
        TimingPath(
            endpoint=endpoint,
            launch=launch,
            edges=edges,
            endpoint_name=name(endpoint),
            launch_name=name(launch),
            gba_arrival=arrival,
        )
        for launch, edges, arrival in found
    ]


def worst_paths_to_endpoint(
    graph: TimingGraph,
    state: TimingState,
    endpoint: int,
    k: int,
    min_arrival: float = float("-inf"),
) -> list[TimingPath]:
    """The k worst data paths into one endpoint, worst first.

    ``min_arrival`` prunes the enumeration: paths whose total arrival
    falls below it can never be returned, so the walk stops as soon as
    the best remaining suffix drops under the bound (used to enumerate
    "violating paths only").
    """
    found = _walk(path_mirrors(graph, state), endpoint, k, min_arrival)
    return _records(graph, endpoint, found, {})


def enumerate_worst_paths(
    graph: TimingGraph,
    state: TimingState,
    k_per_endpoint: int,
    endpoints: "list[int] | None" = None,
    max_total: int | None = None,
    mirrors: "PathMirrors | None" = None,
) -> list[TimingPath]:
    """Per-endpoint top-k enumeration over (a subset of) endpoints.

    This is the paper's second path-selection scheme: sorting only the
    paths that end at each endpoint, k' at a time, instead of globally.
    ``max_total`` caps the result (the paper uses m' <= 5e6); the walk
    stops as soon as the cap is hit.  ``mirrors`` are
    ``path_mirrors(graph, state)``, built here when not given.
    """
    chosen = endpoints if endpoints is not None else graph.endpoint_nodes()
    if mirrors is None:
        mirrors = path_mirrors(graph, state)
    names: "dict[int, str]" = {}
    paths: list[TimingPath] = []
    for endpoint in chosen:
        found = _walk(mirrors, endpoint, k_per_endpoint, float("-inf"))
        paths.extend(_records(graph, endpoint, found, names))
        if max_total is not None and len(paths) >= max_total:
            return paths[:max_total]
    return paths


def count_paths_to_endpoint(graph: TimingGraph, endpoint: int,
                            limit: int = 10**9) -> int:
    """Number of distinct data paths into an endpoint (DP, capped).

    Used by tests and by the DESIGN.md-style design reports; the count
    grows exponentially with reconvergence, hence the cap.
    """
    domains = graph_domains(graph)
    clock = domains.node_is_clock_tree
    launch = domains.node_is_launch
    src_of = domains.edge_src
    # Iterative post-order DFS: the recursive formulation recursed once
    # per topological predecessor and blew the interpreter stack on deep
    # chains (>~1k levels).  A node stays on the explicit stack until
    # every non-clock predecessor is memoized, then folds their counts
    # in fanin order with the same capped early break as before.
    memo: dict[int, int] = {}
    stack: list[int] = [endpoint]
    while stack:
        node_id = stack[-1]
        if node_id in memo:
            stack.pop()
            continue
        if launch[node_id]:
            memo[node_id] = 1
            stack.pop()
            continue
        fanin = [
            int(src_of[edge_id]) for edge_id in graph.in_edges[node_id]
            if not clock[src_of[edge_id]]
        ]
        pending = [src for src in fanin if src not in memo]
        if pending:
            stack.extend(reversed(pending))
            continue
        total = 0
        for src in fanin:
            total += memo[src]
            if total >= limit:
                break
        memo[node_id] = min(total, limit)
        stack.pop()
    return memo[endpoint]
