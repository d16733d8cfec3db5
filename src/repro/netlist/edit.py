"""Higher-level netlist edits used by the closure optimizer.

Each edit returns a :class:`ChangeRecord` naming the gates and nets it
touched.  The incremental timing updater uses those names to invalidate
exactly the affected cone instead of re-propagating the whole design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetlistError
from repro.netlist.core import Netlist, PinRef
from repro.netlist.placement import Placement


@dataclass
class ChangeRecord:
    """Names of objects an edit touched (for incremental invalidation).

    ``metadata`` carries edit-specific replay details (e.g. the buffer
    insertion's generated names and rerouted loads) for ECO export.
    """

    kind: str
    gates: list[str] = field(default_factory=list)
    nets: list[str] = field(default_factory=list)
    description: str = ""
    metadata: dict = field(default_factory=dict)


def fresh_name(netlist: Netlist, base: str) -> str:
    """``base``, with ``_`` appended until no gate or net has the name.

    A function of the netlist alone: the same edits on two copies of a
    design create the same names.
    """
    name = base
    while name in netlist.gates or name in netlist.nets:
        name += "_"
    return name


def resize_gate(netlist: Netlist, gate_name: str, up: bool) -> ChangeRecord | None:
    """Swap a gate one size step up (``up=True``) or down.

    Returns None when the gate is already at the end of its size family.
    The touched set includes the gate's fanin nets (their load changed)
    and fanout nets (drive changed).
    """
    current = netlist.gate(gate_name).cell_name
    variant = (
        netlist.library.next_size_up(current)
        if up else netlist.library.next_size_down(current)
    )
    if variant is None:
        return None
    netlist.swap_cell(gate_name, variant.name)
    touched_nets = list(netlist.gate(gate_name).connections.values())
    return ChangeRecord(
        kind="resize",
        gates=[gate_name],
        nets=touched_nets,
        description=f"{gate_name}: {current} -> {variant.name}",
    )


def swap_vt(netlist: Netlist, gate_name: str, vt: str) -> ChangeRecord | None:
    """Swap a gate to another threshold-voltage flavour (same drive).

    Returns None when the library has no such flavour or the gate is
    already there.  Touches the same net set as a resize (input caps
    may differ between flavours in richer libraries; ours keeps them
    equal, but the invalidation stays conservative).
    """
    current = netlist.gate(gate_name).cell_name
    variant = netlist.library.vt_variant(current, vt)
    if variant is None or variant.name == current:
        return None
    netlist.swap_cell(gate_name, variant.name)
    return ChangeRecord(
        kind="vt_swap",
        gates=[gate_name],
        nets=list(netlist.gate(gate_name).connections.values()),
        description=f"{gate_name}: {current} -> {variant.name}",
    )


def insert_buffer(
    netlist: Netlist,
    net_name: str,
    buffer_cell: str,
    loads: "list[PinRef] | None" = None,
    placement: Placement | None = None,
    buffer_name: "str | None" = None,
    new_net_name: "str | None" = None,
) -> ChangeRecord:
    """Insert a buffer on a net, optionally rerouting only some loads.

    The buffer's input joins ``net_name``; a fresh net carries its
    output to the selected ``loads`` (all loads by default).  When a
    placement is given the buffer lands at the midpoint between the
    driver and the centroid-most load, which is what the wire-delay
    model needs to actually see an improvement.

    ``buffer_name`` / ``new_net_name`` pin the generated names (ECO
    replay needs the recorded ones); by default they are
    :func:`fresh_name` probes from ``rbuf`` / ``rnet``.
    """
    driver = netlist.net_driver(net_name)
    if driver is None:
        raise NetlistError(f"cannot buffer undriven net {net_name}")
    all_loads = netlist.net_loads(net_name)
    selected = list(loads) if loads is not None else list(all_loads)
    if not selected:
        raise NetlistError(f"no loads selected on net {net_name}")
    for ref in selected:
        if ref not in all_loads:
            raise NetlistError(f"{ref} is not a load of net {net_name}")
        if ref.is_port:
            raise NetlistError(
                f"cannot reroute top-level port load {ref} through a buffer"
            )
    if buffer_name is None:
        buffer_name = fresh_name(netlist, "rbuf")
    elif buffer_name in netlist.gates or buffer_name in netlist.nets:
        raise NetlistError(f"buffer name {buffer_name} already in use")
    if new_net_name is None:
        new_net = fresh_name(netlist, "rnet")
    elif new_net_name in netlist.gates or new_net_name in netlist.nets:
        raise NetlistError(f"net name {new_net_name} already in use")
    else:
        new_net = new_net_name
    cell = netlist.library.cell(buffer_cell)
    input_pin = cell.input_pins[0].name
    output_pin = cell.output_pins[0].name
    netlist.add_gate(buffer_name, buffer_cell)
    netlist.connect(buffer_name, input_pin, net_name)
    netlist.connect(buffer_name, output_pin, new_net)
    for ref in selected:
        netlist.connect(ref.gate, ref.pin, new_net)
    if placement is not None:
        anchor_names = [r.gate for r in selected if placement.has(r.gate or "")]
        if driver.gate is not None and placement.has(driver.gate):
            src = placement.location(driver.gate)
        elif anchor_names:
            src = placement.location(anchor_names[0])
        else:
            src = None
        if src is not None and anchor_names:
            dst = placement.location(anchor_names[0])
            placement.place(buffer_name, (src.x + dst.x) / 2, (src.y + dst.y) / 2)
        elif src is not None:
            placement.place(buffer_name, src.x, src.y)
    return ChangeRecord(
        kind="insert_buffer",
        gates=[buffer_name] + [r.gate for r in selected if r.gate],
        nets=[net_name, new_net],
        description=(
            f"buffer {buffer_name} ({buffer_cell}) on {net_name}, "
            f"rerouting {len(selected)}/{len(all_loads)} loads"
        ),
        metadata={
            "buffer": buffer_name,
            "buffer_cell": buffer_cell,
            "net": net_name,
            "new_net": new_net,
            "loads": list(selected),
        },
    )


def remove_buffer(netlist: Netlist, buffer_name: str) -> ChangeRecord:
    """Remove a buffer, reconnecting its loads to its input net."""
    cell = netlist.cell_of(buffer_name)
    if not cell.is_buffer:
        raise NetlistError(f"{buffer_name} is not a buffer instance")
    gate = netlist.gate(buffer_name)
    input_pin = cell.input_pins[0].name
    output_pin = cell.output_pins[0].name
    in_net = gate.connections.get(input_pin)
    out_net = gate.connections.get(output_pin)
    if in_net is None or out_net is None:
        raise NetlistError(f"buffer {buffer_name} is not fully connected")
    loads = netlist.net_loads(out_net)
    moved: list[str] = []
    for ref in loads:
        if ref.is_port:
            raise NetlistError(
                f"buffer {buffer_name} drives top port {ref}; cannot remove"
            )
        netlist.connect(ref.gate, ref.pin, in_net)
        moved.append(ref.gate)
    netlist.remove_gate(buffer_name)
    netlist.remove_net(out_net)
    return ChangeRecord(
        kind="remove_buffer",
        # Naming the removed buffer lets the incremental engine drop its
        # timing nodes.  It goes after the moved loads: that order fixes
        # which graph slots the edit frees and later reuses.
        gates=[*moved, buffer_name],
        # out_net no longer exists; listing it lets the incremental
        # engine drop any stale timing edges defensively.
        nets=[in_net, out_net],
        description=f"removed buffer {buffer_name}, merged {out_net} into {in_net}",
    )
