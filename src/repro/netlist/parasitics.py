"""Net parasitics: extraction, SPEF-lite I/O, lumped-RC queries.

Signoff flows consume extracted per-net parasitics rather than
geometric estimates.  This module provides both: ``extract_parasitics``
derives a :class:`Parasitics` set from placement geometry (what a
router's estimator would hand back), and the SPEF-lite format carries
them between tools.

Each net is modelled as a lumped pi: total capacitance ``C`` and total
resistance ``R``; the delay to any load is ``R * (C/2 + C_pin)``.  When
a :class:`Parasitics` set is installed in the delay calculator it takes
precedence over the geometric model for the nets it covers; uncovered
nets fall back to geometry.

SPEF-lite grammar (a recognizable subset of IEEE 1481 SPEF)::

    *SPEF "repro-lite"
    *DESIGN <name>
    *D_NET <net> <total_cap_fF>
    *RES <total_res_kohm>
    *END
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ParseError
from repro.netlist.core import Netlist
from repro.netlist.placement import Placement


@dataclass(frozen=True)
class NetParasitic:
    """Lumped RC of one net."""

    capacitance: float   # fF, total wire cap
    resistance: float    # kOhm, total wire res

    def elmore_to_load(self, pin_capacitance: float) -> float:
        """Elmore delay (ps) from driver to a load with the given pin cap."""
        return self.resistance * (self.capacitance / 2.0 + pin_capacitance)


@dataclass
class Parasitics:
    """Per-net parasitic annotations for one design."""

    design: str = ""
    nets: dict[str, NetParasitic] = field(default_factory=dict)

    def set_net(self, net: str, capacitance: float,
                resistance: float) -> None:
        """Annotate one net (overwrites any previous annotation)."""
        self.nets[net] = NetParasitic(capacitance, resistance)

    def get(self, net: str) -> NetParasitic | None:
        """The annotation for a net, or None when uncovered."""
        return self.nets.get(net)

    def coverage(self, netlist: Netlist) -> float:
        """Fraction of the netlist's nets that carry annotations."""
        if not netlist.nets:
            return 1.0
        covered = sum(1 for n in netlist.nets if n in self.nets)
        return covered / len(netlist.nets)

    def __len__(self) -> int:
        return len(self.nets)

    def __contains__(self, net: str) -> bool:
        return net in self.nets


def extract_parasitics(
    netlist: Netlist,
    placement: Placement,
    r_per_nm: float,
    c_per_nm: float,
) -> Parasitics:
    """Derive lumped parasitics from placement geometry (star routes).

    The total wire length of a net is the sum of driver-to-load
    Manhattan segments — the same lengths the geometric delay
    calculator uses.  For single-load nets re-annotating is exactly
    timing-neutral; for multi-load nets the lumped pi sees the whole
    net's RC on every branch, which bounds the per-segment geometric
    model from above (conservative, tested).
    """
    from repro.timing.delaycalc import segment_length

    parasitics = Parasitics(design=netlist.name)
    for net_name in netlist.nets:
        driver = netlist.net_driver(net_name)
        if driver is None:
            continue
        total_length = 0.0
        for load in netlist.net_loads(net_name):
            total_length += segment_length(placement, driver, load)
        if total_length > 0.0:
            parasitics.set_net(
                net_name,
                capacitance=c_per_nm * total_length,
                resistance=r_per_nm * total_length,
            )
    return parasitics


def write_spef(parasitics: Parasitics) -> str:
    """Serialize to SPEF-lite text."""
    out = ['*SPEF "repro-lite"', f"*DESIGN {parasitics.design or 'unnamed'}"]
    for net in sorted(parasitics.nets):
        annotation = parasitics.nets[net]
        out.append(f"*D_NET {net} {annotation.capacitance:.8g}")
        out.append(f"*RES {annotation.resistance:.8g}")
        out.append("*END")
    out.append("")
    return "\n".join(out)


def _quantity(text: str, what: str, filename: str, lineno: int) -> float:
    """A finite, non-negative value of ``text``, else a located error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise ParseError(f"bad {what} {text!r}", filename, lineno)
    return value


def parse_spef(text: str, filename: str = "<string>") -> Parasitics:
    """Parse SPEF-lite text.

    Capacitances and resistances must be finite and non-negative; every
    malformed line, and a ``*D_NET`` left open at the end, is a
    :class:`ParseError` at its line.
    """
    parasitics = Parasitics()
    current_net: str | None = None
    net_line = 0
    current_cap = 0.0
    current_res: float | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "*SPEF":
            continue
        elif keyword == "*DESIGN":
            if len(parts) < 2:
                raise ParseError("*DESIGN needs a name", filename, lineno)
            parasitics.design = parts[1]
        elif keyword == "*D_NET":
            if current_net is not None:
                raise ParseError(
                    f"*D_NET {current_net} not closed with *END",
                    filename, lineno,
                )
            if len(parts) != 3:
                raise ParseError(
                    "*D_NET expects: *D_NET <net> <cap>", filename, lineno
                )
            current_net, net_line = parts[1], lineno
            current_cap = _quantity(parts[2], "capacitance", filename, lineno)
            current_res = None
        elif keyword == "*RES":
            if current_net is None:
                raise ParseError("*RES outside *D_NET", filename, lineno)
            current_res = _quantity(
                parts[1] if len(parts) > 1 else "", "resistance",
                filename, lineno,
            )
        elif keyword == "*END":
            if current_net is None:
                raise ParseError("*END outside *D_NET", filename, lineno)
            parasitics.set_net(
                current_net, current_cap, current_res or 0.0
            )
            current_net = None
        else:
            raise ParseError(
                f"unsupported SPEF keyword {keyword!r}", filename, lineno
            )
    if current_net is not None:
        raise ParseError(
            f"*D_NET {current_net} not closed with *END", filename, net_line
        )
    return parasitics
