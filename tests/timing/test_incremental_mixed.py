"""Property test: mixed structural + sizing edit sequences stay exact."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netlist.edit import insert_buffer, remove_buffer, resize_gate, swap_vt
from repro.designs.generator import generate_design
from tests.conftest import SMALL_SPEC, engine_for

edit_step = st.tuples(
    st.sampled_from(["up", "down", "lvt", "hvt", "buffer", "unbuffer"]),
    st.integers(0, 40),
)


def _loaded_nets(design):
    nets = []
    for gate in design.netlist.combinational_gates():
        if gate.startswith("ckbuf"):
            continue
        net = design.netlist.gate(gate).connections.get("Z")
        if net is None:
            continue
        loads = [
            r for r in design.netlist.net_loads(net) if not r.is_port
        ]
        if loads:
            nets.append(net)
    return nets


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=st.lists(edit_step, min_size=2, max_size=8))
def test_mixed_edit_sequences_match_full_recompute(plan):
    design = generate_design(SMALL_SPEC)
    engine = engine_for(design)
    engine.update_timing()
    gates = [
        g for g in design.netlist.combinational_gates()
        if not g.startswith("ckbuf")
    ]
    inserted: list[str] = []
    for action, idx in plan:
        if action in ("up", "down"):
            gate = gates[idx % len(gates)]
            change = resize_gate(design.netlist, gate, up=action == "up")
            if change is not None:
                engine.apply_change(change)
        elif action in ("lvt", "hvt"):
            gate = gates[idx % len(gates)]
            if design.netlist.cell_of(gate).is_buffer:
                continue
            change = swap_vt(design.netlist, gate, action)
            if change is not None:
                engine.apply_change(change)
        elif action == "buffer":
            nets = _loaded_nets(design)
            if not nets:
                continue
            change = insert_buffer(
                design.netlist, nets[idx % len(nets)], "BUF_X2",
                placement=design.placement,
            )
            engine.apply_change(change)
            inserted.append(change.gates[0])
        elif action == "unbuffer" and inserted:
            victim = inserted.pop()
            inverse = remove_buffer(design.netlist, victim)
            design.placement.locations.pop(victim, None)
            engine.apply_change(inverse)
    reference = engine_for(design)
    got = {s.name: s.slack for s in engine.setup_slacks()}
    want = {s.name: s.slack for s in reference.setup_slacks()}
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == pytest.approx(want[name], abs=1e-6), name
    got_h = {s.name: s.slack for s in engine.hold_slacks()}
    want_h = {s.name: s.slack for s in reference.hold_slacks()}
    for name in want_h:
        assert got_h[name] == pytest.approx(want_h[name], abs=1e-6), name
