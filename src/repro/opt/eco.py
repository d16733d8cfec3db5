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
probed against); loads are ``gate/pin`` references.

The grammar has one reader, :func:`repro.opt.whatif.parse_eco_lines`,
and replay goes through the netlist half of the one edit path,
:func:`repro.opt.whatif.edit_netlist`: the same checks, the same
:func:`repro.netlist.edit.insert_buffer` and the same buffer placement
as the original edit.  A malformed line, or one that cannot replay,
raises :class:`~repro.errors.ParseError` carrying its line.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ParseError, ReproError
from repro.netlist.core import Netlist
from repro.netlist.placement import Placement
from repro.opt.whatif import edit_netlist, parse_eco_lines


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


def apply_eco(netlist: Netlist, text: str,
              placement: Placement | None = None,
              filename: str = "<eco>") -> int:
    """Replay an ECO script onto a netlist; returns commands applied.

    The replay uses the exact instance/net names recorded at capture
    time, so the resulting netlist is identical to the optimized one.
    A ``size_cell`` to the gate's current cell replays as a no-op.
    """
    commands = parse_eco_lines(text, filename)
    for ordinal, (line, spec) in enumerate(commands):
        try:
            if spec["kind"] == "size_cell" and \
                    netlist.gate(spec["gate"]).cell_name == spec["cell"]:
                continue
            edit_netlist(netlist, placement, spec, ordinal)
        except ReproError as exc:
            raise ParseError(
                f"replay failed: {exc}", filename, line
            ) from exc
    return len(commands)
