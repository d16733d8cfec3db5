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
"""

from __future__ import annotations

import heapq
import itertools

from repro.timing.graph import NodeKind, TimingGraph
from repro.timing.propagation import TimingState, effective_late
from repro.pba.paths import TimingPath


def _is_launch_boundary(graph: TimingGraph, node_id: int) -> bool:
    node = graph.node(node_id)
    if node.kind is NodeKind.PORT_IN:
        return True
    if node.kind is NodeKind.PIN_OUT and node.ref.gate is not None:
        cell = graph.netlist.cell_of(node.ref.gate)
        return cell.is_sequential
    return not graph.in_edges[node_id]


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
    results: list[TimingPath] = []
    # Tie-breaker: *newest first* (LIFO).  Equal-priority plateaus are
    # common — reconvergent fanin through arcs with identical delays —
    # and FIFO tie-breaking explores such a plateau breadth-first,
    # which can pop exponentially many partial suffixes before the
    # first complete path.  LIFO makes ties depth-first, so every
    # completion costs ~path-length pops and the enumeration stays
    # O(k * L) even on tie-heavy designs.  The returned order is still
    # exact (ties are interchangeable by definition).
    counter = itertools.count(0, -1)
    heap: list[tuple[float, int, int, tuple[int, ...]]] = []
    heapq.heappush(
        heap, (-float(state.arrival_late[endpoint]), next(counter), endpoint, ())
    )
    while heap and len(results) < k:
        neg_priority, _, node_id, suffix = heapq.heappop(heap)
        priority = -neg_priority
        if priority < min_arrival:
            break
        if _is_launch_boundary(graph, node_id):
            results.append(TimingPath(
                endpoint=endpoint,
                launch=node_id,
                edges=suffix,
                endpoint_name=str(graph.node(endpoint).ref),
                launch_name=str(graph.node(node_id).ref),
                gba_arrival=priority,
            ))
            continue
        suffix_delay = priority - float(state.arrival_late[node_id])
        for edge_id in graph.in_edges[node_id]:
            edge = graph.edge(edge_id)
            if graph.node(edge.src).is_clock_tree:
                continue  # never peel into the clock network
            new_delay = suffix_delay + effective_late(state, edge)
            bound = float(state.arrival_late[edge.src]) + new_delay
            if bound < min_arrival:
                continue
            heapq.heappush(
                heap,
                (-bound, next(counter), edge.src, (edge_id,) + suffix),
            )
    return results


def enumerate_worst_paths(
    graph: TimingGraph,
    state: TimingState,
    k_per_endpoint: int,
    endpoints: "list[int] | None" = None,
    max_total: int | None = None,
) -> list[TimingPath]:
    """Per-endpoint top-k enumeration over (a subset of) endpoints.

    This is the paper's second path-selection scheme: sorting only the
    paths that end at each endpoint, k' at a time, instead of globally.
    ``max_total`` caps the result (the paper uses m' <= 5e6); the walk
    stops as soon as the cap is hit.
    """
    chosen = endpoints if endpoints is not None else graph.endpoint_nodes()
    paths: list[TimingPath] = []
    for endpoint in chosen:
        paths.extend(
            worst_paths_to_endpoint(graph, state, endpoint, k_per_endpoint)
        )
        if max_total is not None and len(paths) >= max_total:
            return paths[:max_total]
    return paths


def count_paths_to_endpoint(graph: TimingGraph, endpoint: int,
                            limit: int = 10**9) -> int:
    """Number of distinct data paths into an endpoint (DP, capped).

    Used by tests and by the DESIGN.md-style design reports; the count
    grows exponentially with reconvergence, hence the cap.
    """
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
        if _is_launch_boundary(graph, node_id):
            memo[node_id] = 1
            stack.pop()
            continue
        pending: list[int] = []
        for edge_id in graph.in_edges[node_id]:
            edge = graph.edge(edge_id)
            if graph.node(edge.src).is_clock_tree:
                continue
            if edge.src not in memo:
                pending.append(edge.src)
        if pending:
            stack.extend(reversed(pending))
            continue
        total = 0
        for edge_id in graph.in_edges[node_id]:
            edge = graph.edge(edge_id)
            if graph.node(edge.src).is_clock_tree:
                continue
            total += memo[edge.src]
            if total >= limit:
                break
        memo[node_id] = min(total, limit)
        stack.pop()
    return memo[endpoint]
