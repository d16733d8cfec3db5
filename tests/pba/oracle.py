"""Per-path references for the batched path work (test oracles only).

``reference_worst_paths`` is the tuple-suffix enumerator: it classifies
nodes through the graph one lookup at a time and copies a suffix tuple
per heap push.  ``oracle_analyze_path`` is the per-path PBA loop: it
classifies each arc with ``classify_edge``, builds its anchor list,
walks the common clock segment and sums delays one arc at a time.  The
production code answers the same questions over arrays; the tests in
``test_batch_oracle.py`` require its answers to equal these bit for bit.
"""

from __future__ import annotations

import heapq
import itertools

from repro.netlist.core import PinRef
from repro.pba.paths import TimingPath
from repro.timing.graph import EdgeKind, NodeKind
from repro.timing.propagation import EdgeDomain, classify_edge, effective_late
from repro.timing.slack import setup_required


def _is_launch_boundary(graph, node_id) -> bool:
    node = graph.node(node_id)
    if node.kind is NodeKind.PORT_IN:
        return True
    if node.kind is NodeKind.PIN_OUT and node.ref.gate is not None:
        return graph.netlist.cell_of(node.ref.gate).is_sequential
    return not graph.in_edges[node_id]


def reference_worst_paths(graph, state, endpoint, k,
                          min_arrival=float("-inf")) -> "list[TimingPath]":
    """The k worst paths into ``endpoint``, worst first (LIFO ties)."""
    results: "list[TimingPath]" = []
    counter = itertools.count(0, -1)
    heap = [(-float(state.arrival_late[endpoint]), next(counter), endpoint, ())]
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
                continue
            new_delay = suffix_delay + effective_late(state, edge)
            bound = float(state.arrival_late[edge.src]) + new_delay
            if bound < min_arrival:
                continue
            heapq.heappush(
                heap, (-bound, next(counter), edge.src, (edge_id,) + suffix)
            )
    return results


def _path_distance(sta, path) -> float:
    placement = sta.placement
    if placement is None:
        return 0.0
    graph = sta.graph
    nodes = [path.launch] + [graph.edge(e).dst for e in path.edges]
    anchors: "list[str]" = []
    seen: "set[str]" = set()
    for node_id in nodes:
        ref = graph.node(node_id).ref
        name = ref.gate if ref.gate is not None else ref.pin
        if name not in seen and placement.has(name):
            seen.add(name)
            anchors.append(name)
    if not anchors:
        return 0.0
    return placement.bbox_half_perimeter(anchors)


def _launch_ck_node(sta, path):
    graph = sta.graph
    launch = graph.node(path.launch)
    if launch.ref.gate is None:
        return None
    clock_pin = graph.netlist.cell_of(launch.ref.gate).clock_pin
    if clock_pin is None:
        return None
    return graph.node_of.get(PinRef(launch.ref.gate, clock_pin.name))


def _base_delays(pba, path) -> "list[float]":
    sta = pba.sta
    graph = sta.graph
    state = sta.state
    if not pba.recalc_slew:
        return [float(state.edge_delay[e]) for e in path.edges]
    slew = float(state.slew[path.launch])
    delays: "list[float]" = []
    for edge_id in path.edges:
        edge = graph.edge(edge_id)
        if edge.kind is EdgeKind.CELL:
            delay, out_slew = sta.calc.cell_edge(graph, edge, slew)
        else:
            delay, out_slew = sta.calc.net_edge(graph, edge, slew)
        delays.append(min(delay, float(state.edge_delay[edge_id])))
        slew = min(out_slew, float(state.edge_out_slew[edge_id]))
    return delays


def _rss_data_delay(pba, path, base_delays, table) -> float:
    graph, state = pba.sta.graph, pba.sta.state
    sigma_frac = (table.derate(1, path.distance) - 1.0) / 3.0
    mean = 0.0
    variance = 0.0
    for edge_id, base_delay in zip(path.edges, base_delays):
        edge = graph.edge(edge_id)
        if classify_edge(graph, edge) is EdgeDomain.DATA_CELL:
            mean += base_delay
            variance += (sigma_frac * base_delay) ** 2
        else:
            mean += base_delay * float(state.derate_late[edge.id])
    return mean + 3.0 * variance ** 0.5


def oracle_analyze_path(pba, path: TimingPath) -> TimingPath:
    """Fill one path's analysis in place with the per-path loop."""
    sta = pba.sta
    graph, state = sta.graph, sta.state
    info = graph.endpoints[path.endpoint]
    required_gba, _ = setup_required(
        graph, state, info, pba._clock_map[path.endpoint], sta.constraints,
    )
    launch_arrival = float(state.arrival_late[path.launch])
    gba_data_delay = 0.0
    contributions: "list[tuple[str, float, float]]" = []
    for edge_id in path.edges:
        edge = graph.edge(edge_id)
        gba_data_delay += effective_late(state, edge)
        if classify_edge(graph, edge) is EdgeDomain.DATA_CELL:
            contributions.append((
                edge.gate, float(state.edge_delay[edge.id]),
                float(state.derate_late[edge.id]),
            ))
    path.gba_arrival = launch_arrival + gba_data_delay
    path.gba_slack = required_gba - path.gba_arrival
    path.depth = len(contributions)
    path.distance = _path_distance(sta, path)
    table = sta.config.derating_table
    base_delays = _base_delays(pba, path)
    if pba.variation == "rss" and table is not None and path.depth > 0:
        pba_data_delay = _rss_data_delay(pba, path, base_delays, table)
    else:
        if table is not None and path.depth > 0:
            pba_derate = table.derate(path.depth, path.distance)
        else:
            pba_derate = sta.constraints.flat_derate_late
        pba_data_delay = 0.0
        for edge_id, base_delay in zip(path.edges, base_delays):
            edge = graph.edge(edge_id)
            if classify_edge(graph, edge) is EdgeDomain.DATA_CELL:
                pba_data_delay += base_delay * pba_derate
            else:
                pba_data_delay += base_delay * float(
                    state.derate_late[edge.id]
                )
    credit = sta.crpr.credit(_launch_ck_node(sta, path), info.ck_node)
    path.crpr_credit = credit
    path.pba_slack = required_gba + credit - (launch_arrival + pba_data_delay)
    path.contributions = contributions
    constraints = sta.constraints
    if constraints.has_exceptions():
        launch = graph.node(path.launch).ref
        launch_name = launch.gate if launch.gate is not None else launch.pin
        capture_name = (
            info.gate if info.gate is not None
            else graph.node(path.endpoint).ref.pin
        )
        path.is_false = constraints.is_false_path(launch_name, capture_name)
    path.analyzed = True
    return path
