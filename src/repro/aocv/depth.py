"""Cell-depth computation for AOCV derating.

PBA uses the *path* depth — the number of combinational cells on the
specific path being analyzed.  GBA cannot afford per-path state, so it
uses the *worst* depth per gate: the minimum, over all paths through the
gate, of that path's depth.  A smaller depth looks up a larger derate
factor, which is exactly where GBA's pessimism comes from (Fig. 2 of
the paper).

The worst depth decomposes over the DAG::

    gba_depth(g) = fwd(g) + bwd(g) - 1

where ``fwd(g)`` is the minimum number of combinational cells on any
launch-to-g prefix (g inclusive) and ``bwd(g)`` the minimum on any
g-to-endpoint suffix (g inclusive).  Launch boundaries are flip-flop
outputs, input ports, and dangling inputs; capture boundaries are
flip-flop inputs, output ports, and dangling outputs.

Both sweeps run in one topological pass each, so GBA depth costs
O(V + E) — the efficiency that makes GBA usable in implementation flows.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import TimingError
from repro.netlist.core import Netlist

_INF = float("inf")


def _comb_graph(netlist: Netlist) -> tuple[
    list[str], dict[str, list[str]], dict[str, list[str]],
    dict[str, bool], dict[str, bool],
]:
    """Build the combinational-gate DAG, its order and boundary flags.

    Returns (order, preds, succs, boundary_fanin, boundary_fanout) where
    ``order`` lists the gates topologically and a boundary
    fanin/fanout means the gate touches a launch/capture point
    directly.  Both depth sweeps share one build.
    """
    comb = netlist.combinational_gates()
    comb_set = set(comb)
    preds: dict[str, list[str]] = {g: [] for g in comb}
    succs: dict[str, list[str]] = {g: [] for g in comb}
    boundary_fanin: dict[str, bool] = {}
    boundary_fanout: dict[str, bool] = {}
    for gate_name in comb:
        gate = netlist.gate(gate_name)
        cell = netlist.cell_of(gate_name)
        has_boundary_in = False
        for pin in cell.input_pins:
            net_name = gate.connections.get(pin.name)
            if net_name is None:
                has_boundary_in = True  # dangling input starts a "path"
                continue
            driver = netlist.net_driver(net_name)
            if driver is None or driver.is_port:
                has_boundary_in = True
            elif driver.gate in comb_set:
                preds[gate_name].append(driver.gate)
            else:
                has_boundary_in = True  # flip-flop output launches here
        boundary_fanin[gate_name] = has_boundary_in
        has_boundary_out = False
        any_output = False
        for pin in cell.output_pins:
            net_name = gate.connections.get(pin.name)
            if net_name is None:
                continue
            for load in netlist.net_loads(net_name):
                any_output = True
                if load.is_port:
                    has_boundary_out = True
                elif load.gate in comb_set:
                    succs[gate_name].append(load.gate)
                else:
                    has_boundary_out = True  # flip-flop input captures here
        if not any_output:
            has_boundary_out = True  # dangling output ends the "path"
        boundary_fanout[gate_name] = has_boundary_out
    order = _topological_order(comb, preds, succs)
    return order, preds, succs, boundary_fanin, boundary_fanout


def _topological_order(
    gates: list[str],
    preds: dict[str, list[str]],
    succs: dict[str, list[str]],
) -> list[str]:
    in_degree = {g: len(preds[g]) for g in gates}
    queue = deque(g for g in gates if in_degree[g] == 0)
    order: list[str] = []
    while queue:
        gate = queue.popleft()
        order.append(gate)
        for succ in succs[gate]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                queue.append(succ)
    if len(order) != len(gates):
        raise TimingError(
            "combinational loop detected while computing AOCV depths"
        )
    return order


def _min_depths(order: Iterable[str], neighbours: dict[str, list[str]],
                boundary: dict[str, bool]) -> dict[str, int]:
    """Minimum cell count from a boundary to each gate, gate inclusive.

    ``order`` visits every gate after all of its ``neighbours``.
    """
    depth: dict[str, float] = {}
    for gate in order:
        best = 1.0 if boundary[gate] else _INF
        for other in neighbours[gate]:
            best = min(best, depth[other] + 1)
        depth[gate] = best if best != _INF else 1.0
    return {g: int(v) for g, v in depth.items()}


def forward_min_depths(netlist: Netlist) -> dict[str, int]:
    """Minimum launch-to-gate cell count (gate inclusive) per gate."""
    order, preds, _, boundary_fanin, _ = _comb_graph(netlist)
    return _min_depths(order, preds, boundary_fanin)


def backward_min_depths(netlist: Netlist) -> dict[str, int]:
    """Minimum gate-to-capture cell count (gate inclusive) per gate."""
    order, _, succs, _, boundary_fanout = _comb_graph(netlist)
    return _min_depths(reversed(order), succs, boundary_fanout)


def compute_gba_depths(netlist: Netlist) -> dict[str, int]:
    """GBA worst cell depth per combinational gate.

    ``gba_depth(g) = fwd(g) + bwd(g) - 1`` — the depth of the shallowest
    complete path through ``g``.  For every path P through ``g``,
    ``gba_depth(g) <= len(P)`` (property-tested), so GBA always picks a
    derate factor at least as pessimistic as PBA's.
    """
    order, preds, succs, boundary_fanin, boundary_fanout = (
        _comb_graph(netlist)
    )
    fwd = _min_depths(order, preds, boundary_fanin)
    bwd = _min_depths(reversed(order), succs, boundary_fanout)
    return {g: fwd[g] + bwd[g] - 1 for g in fwd}
