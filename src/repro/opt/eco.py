"""ECO (engineering change order) export and replay.

A closure run's value is the *netlist delta* it found; this module
serializes that delta as a PrimeTime-style ECO script and replays it
onto a pristine netlist.  Round trip guarantee (tested): replaying a
run's ECO onto a fresh copy of the design reproduces the optimized
netlist gate-for-gate.

Script grammar (one command per line, ``#`` comments)::

    size_cell <gate> <new_cell>
    insert_buffer <net> <buffer_cell> <new_gate> <new_net> <load> [...]
    remove_buffer <gate>

``insert_buffer`` records the names the original run generated so the
replay is exact (a generated name depends on the netlist it was
probed against); loads are ``gate/pin`` references.  Replay goes
through the same :func:`repro.netlist.edit.insert_buffer` as the
original edit, so it validates the loads and places the buffer the
same way.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import NetlistError, ParseError
from repro.netlist.core import Netlist, PinRef
from repro.netlist.edit import insert_buffer, remove_buffer
from repro.netlist.placement import Placement


def write_eco(commands: "list[str]", design: str = "") -> str:
    """Serialize an ECO command list."""
    out = [f"# repro ECO{' for ' + design if design else ''}",
           f"# {len(commands)} command(s)"]
    out.extend(commands)
    out.append("")
    return "\n".join(out)


def save_eco(commands: "list[str]", path, design: str = "") -> None:
    """Write an ECO script to disk."""
    Path(path).write_text(write_eco(commands, design))


def _parse_pin_ref(text: str, filename: str, lineno: int) -> PinRef:
    if "/" not in text:
        raise ParseError(
            f"load reference {text!r} must be gate/pin", filename, lineno
        )
    gate, pin = text.rsplit("/", 1)
    return PinRef(gate, pin)


def apply_eco(netlist: Netlist, text: str,
              placement: Placement | None = None,
              filename: str = "<eco>") -> int:
    """Replay an ECO script onto a netlist; returns commands applied.

    The replay uses the exact instance/net names recorded at capture
    time, so the resulting netlist is identical to the optimized one.
    """
    applied = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        command = parts[0]
        try:
            if command == "size_cell":
                if len(parts) != 3:
                    raise ParseError(
                        "size_cell expects: gate new_cell", filename, lineno
                    )
                netlist.swap_cell(parts[1], parts[2])
            elif command == "insert_buffer":
                if len(parts) < 6:
                    raise ParseError(
                        "insert_buffer expects: net cell name new_net "
                        "load...", filename, lineno,
                    )
                net, buffer_cell, buffer_name, new_net = parts[1:5]
                loads = [
                    _parse_pin_ref(p, filename, lineno) for p in parts[5:]
                ]
                insert_buffer(
                    netlist, net, buffer_cell, loads=loads,
                    placement=placement, buffer_name=buffer_name,
                    new_net_name=new_net,
                )
            elif command == "remove_buffer":
                if len(parts) != 2:
                    raise ParseError(
                        "remove_buffer expects: gate", filename, lineno
                    )
                remove_buffer(netlist, parts[1])
            else:
                raise ParseError(
                    f"unknown ECO command {command!r}", filename, lineno
                )
        except NetlistError as exc:
            raise ParseError(
                f"replay failed: {exc}", filename, lineno
            ) from exc
        applied += 1
    return applied

