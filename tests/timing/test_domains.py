"""Oracle tests for the graph's domain arrays (``repro.timing.domains``).

A rebuilt :class:`GraphDomains` must equal a per-edge ``classify_edge``
walk, and a patched one (after structural edits, read from the graph's
structure journal) must equal a fresh rebuild: every array byte for
byte and the gate columns in the same first-seen order.  A clock-net
buffer or a trimmed journal falls back to a rebuild, and a query right
after an edit reclassifies nothing.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.designs.generator import generate_design
from repro.designs.suite import build_design, design_names
from repro.obs.metrics import counter
from repro.opt.whatif import WhatIfError, apply_edit
from repro.pba.engine import PBAEngine
from repro.timing import domains as domains_mod
from repro.timing import graph as graph_mod
from repro.timing import propagation as propagation_mod
from repro.timing.domains import DOMAINS, GraphDomains, graph_domains
from repro.timing.explain import explain_design
from repro.timing.graph import NodeKind
from repro.timing.propagation import EdgeDomain, classify_edge
from repro.timing.sta import STAEngine
from tests.conftest import SMALL_SPEC

KERNELS = ("vector", "scalar")
_ARRAYS = (
    "edge_domain", "edge_gate", "edge_src", "edge_dst",
    "node_is_clock_tree", "node_is_launch",
)


def _walk(graph) -> dict:
    """The classification one ``classify_edge`` per edge gives."""
    n_edges, n_nodes = len(graph.edges), len(graph.nodes)
    out = {
        "edge_domain": np.full(n_edges, -1, dtype=np.int8),
        "edge_gate": np.full(n_edges, -1, dtype=np.int64),
        "edge_src": np.full(n_edges, -1, dtype=np.int64),
        "edge_dst": np.full(n_edges, -1, dtype=np.int64),
        "node_is_clock_tree": np.zeros(n_nodes, dtype=bool),
        "node_is_launch": np.zeros(n_nodes, dtype=bool),
    }
    gates: list[str] = []
    for edge in graph.edges:
        if edge is None:
            continue
        domain = classify_edge(graph, edge)
        out["edge_domain"][edge.id] = DOMAINS.index(domain)
        out["edge_src"][edge.id] = edge.src
        out["edge_dst"][edge.id] = edge.dst
        if domain is EdgeDomain.DATA_CELL:
            if edge.gate not in gates:
                gates.append(edge.gate)
            out["edge_gate"][edge.id] = gates.index(edge.gate)
    for node in graph.live_nodes():
        out["node_is_clock_tree"][node.id] = node.is_clock_tree
        if node.kind is NodeKind.PORT_IN:
            launch = True
        elif node.kind is NodeKind.PIN_OUT and node.ref.gate is not None:
            launch = graph.netlist.cell_of(node.ref.gate).is_sequential
        else:
            launch = not graph.in_edges[node.id]
        out["node_is_launch"][node.id] = launch
    out["gates"] = tuple(gates)
    return out


def _rebuilt(graph) -> GraphDomains:
    """A fresh rebuild, leaving the graph's cached domains in place."""
    cached = graph.domain_cache
    graph.domain_cache = None
    try:
        return graph_domains(graph)
    finally:
        graph.domain_cache = cached


def _assert_same(got: GraphDomains, want) -> None:
    for name in _ARRAYS:
        a = getattr(got, name)
        b = want[name] if isinstance(want, dict) else getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    gates = want["gates"] if isinstance(want, dict) else want.gates
    assert got.gates == gates
    assert got.gate_index == {gate: col for col, gate in enumerate(gates)}


def _engine(design, kernel: str) -> STAEngine:
    engine = STAEngine(
        design.netlist, design.constraints, design.placement,
        replace(design.sta_config, kernel=kernel),
    )
    engine.update_timing()
    graph_domains(engine.graph)  # a clone of a cached layout built none
    return engine


def _reclassified(monkeypatch) -> "list[tuple[bool, int]]":
    """Record (rebuild?, edge slots re-read) for every domain update."""
    calls: list[tuple[bool, int]] = []
    real = domains_mod._reclassify

    def counted(graph, key, base, nids, eids):
        calls.append((base is domains_mod._EMPTY, int(eids.size)))
        return real(graph, key, base, nids, eids)

    monkeypatch.setattr(domains_mod, "_reclassify", counted)
    return calls


def _data_nets(netlist) -> "list[str]":
    nets = []
    for gate in netlist.combinational_gates():
        if gate.startswith("ckbuf"):
            continue
        net = netlist.gate(gate).connections.get("Z")
        if net is not None and any(
            not ref.is_port for ref in netlist.net_loads(net)
        ):
            nets.append(net)
    return nets


def _clock_net(netlist) -> str:
    return next(
        netlist.gate(gate).connections["Z"]
        for gate in netlist.combinational_gates()
        if gate.startswith("ckbuf")
    )


@pytest.mark.parametrize("name", design_names())
def test_rebuild_matches_classify_edge_walk(name):
    design = build_design(name)
    engine = STAEngine(design.netlist, design.constraints,
                       design.placement, design.sta_config)
    engine.graph.mark_clock_tree(engine.clock_ports)
    _assert_same(_rebuilt(engine.graph), _walk(engine.graph))


_STEP = st.tuples(
    st.sampled_from(
        ["up", "down", "lvt", "hvt", "size_cell", "buffer", "unbuffer"]
    ),
    st.integers(0, 60),
)


def _spec(netlist, action: str, idx: int):
    gates = [
        g for g in netlist.combinational_gates() if not g.startswith("ckbuf")
    ]
    gate = gates[idx % len(gates)]
    if action in ("up", "down"):
        return {"kind": "resize", "gate": gate, "up": action == "up"}
    if action in ("lvt", "hvt"):
        return {"kind": "vt_swap", "gate": gate, "vt": action}
    if action == "size_cell":
        current = netlist.gate(gate).cell_name
        variant = (netlist.library.next_size_up(current)
                   or netlist.library.next_size_down(current))
        if variant is None:
            return None
        return {"kind": "size_cell", "gate": gate, "cell": variant.name}
    if action == "buffer":
        nets = _data_nets(netlist)
        return {"kind": "insert_buffer", "net": nets[idx % len(nets)],
                "buffer_cell": "BUF_X2"}
    # Any inserted buffer (``apply_edit`` names them wbuf<ordinal>), not
    # only the last: a later insert reuses its slots, ahead of newer
    # buffers' arcs, which moves gate columns.
    buffers = [g for g in netlist.gates if g.startswith("wbuf")]
    if not buffers:
        return None
    return {"kind": "remove_buffer", "gate": buffers[idx % len(buffers)]}


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=st.lists(_STEP, min_size=2, max_size=12))
@example(plan=[("buffer", 0), ("buffer", 1), ("unbuffer", 0), ("buffer", 2)])
def test_patch_matches_rebuild_after_edits(kernel, plan):
    design = generate_design(SMALL_SPEC)
    engine = _engine(design, kernel)
    for ordinal, (action, idx) in enumerate(plan):
        spec = _spec(engine.netlist, action, idx)
        if spec is None:
            continue
        try:
            apply_edit(engine, spec, ordinal)
        except WhatIfError:
            continue
        patched = graph_domains(engine.graph)
        assert patched.key == (engine.graph.structure_version,
                               engine.graph.clock_epoch)
        _assert_same(patched, _rebuilt(engine.graph))
    _assert_same(graph_domains(engine.graph), _walk(engine.graph))


@pytest.mark.parametrize("kernel", KERNELS)
def test_data_net_buffer_patches_touched_slots(kernel, monkeypatch):
    design = generate_design(SMALL_SPEC)
    engine = _engine(design, kernel)
    calls = _reclassified(monkeypatch)
    apply_edit(engine, {"kind": "insert_buffer",
                        "net": _data_nets(design.netlist)[0],
                        "buffer_cell": "BUF_X2"}, 0)
    assert len(calls) == 1 and not calls[0][0]
    assert 0 < calls[0][1] < engine.graph.edge_count()
    _assert_same(graph_domains(engine.graph), _walk(engine.graph))


@pytest.mark.parametrize("kernel", KERNELS)
def test_clock_net_buffer_rebuilds(kernel, monkeypatch):
    design = generate_design(SMALL_SPEC)
    engine = _engine(design, kernel)
    epoch = engine.graph.clock_epoch
    fallbacks = counter("kernel.layout_patch_fallbacks").value
    calls = _reclassified(monkeypatch)
    apply_edit(engine, {"kind": "insert_buffer",
                        "net": _clock_net(design.netlist),
                        "buffer_cell": "BUF_X2"}, 0)
    assert engine.graph.clock_epoch != epoch
    assert calls == [(True, len(engine.graph.edges))]
    _assert_same(graph_domains(engine.graph), _walk(engine.graph))
    # The layout reads its classes from the rebuilt domains: it patches.
    assert counter("kernel.layout_patch_fallbacks").value == fallbacks
    reference = _engine(design, "scalar")
    assert [(s.name, s.slack) for s in engine.setup_slacks()] == [
        (s.name, s.slack) for s in reference.setup_slacks()
    ]


@pytest.mark.parametrize("kernel", KERNELS)
def test_trimmed_journal_rebuilds(kernel, monkeypatch):
    design = generate_design(SMALL_SPEC)
    engine = _engine(design, kernel)
    monkeypatch.setattr(graph_mod, "_JOURNAL_MAX", 0)
    calls = _reclassified(monkeypatch)
    apply_edit(engine, {"kind": "insert_buffer",
                        "net": _data_nets(design.netlist)[0],
                        "buffer_cell": "BUF_X2"}, 0)
    assert calls == [(True, len(engine.graph.edges))]
    _assert_same(graph_domains(engine.graph), _walk(engine.graph))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("edit", ["insert_buffer", "resize"])
def test_query_after_edit_classifies_nothing(kernel, edit, monkeypatch):
    # Both kernels update the domains inside apply_change (a patch after
    # a buffer insert, nothing after a resize): PBA and explain then read
    # them as they are.
    design = generate_design(SMALL_SPEC)
    engine = _engine(design, kernel)
    if edit == "insert_buffer":
        spec = {"kind": "insert_buffer",
                "net": _data_nets(design.netlist)[0], "buffer_cell": "BUF_X2"}
    else:
        gate = next(g for g in design.netlist.combinational_gates()
                    if design.netlist.library.next_size_up(
                        design.netlist.gate(g).cell_name))
        spec = {"kind": "resize", "gate": gate, "up": True}
    apply_edit(engine, spec, 0)

    def forbidden(*args):
        raise AssertionError("edges classified after the edit")

    monkeypatch.setattr(domains_mod, "_reclassify", forbidden)
    monkeypatch.setattr(propagation_mod, "classify_edge", forbidden)
    PBAEngine(engine).golden_endpoint_slacks(k=4)
    explain_design(engine, top_k=2)
