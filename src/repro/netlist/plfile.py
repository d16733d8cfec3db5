"""Placement file I/O (Bookshelf-style ``.pl``).

One object per line::

    # repro placement, units nm
    ff0     12873.5   4410.0
    g_0_0_0  8731.2  11230.8

Completes the on-disk design bundle (Verilog + SDC + AOCV + SPEF + PL)
so a generated design round-trips through files with identical timing.
"""

from __future__ import annotations

import math

from repro.errors import ParseError
from repro.netlist.placement import Placement


def write_placement(placement: Placement) -> str:
    """Serialize a placement to .pl text (sorted, diff-friendly)."""
    out = ["# repro placement, units nm"]
    for name in sorted(placement.locations):
        point = placement.locations[name]
        out.append(f"{name} {point.x:.4f} {point.y:.4f}")
    out.append("")
    return "\n".join(out)


def parse_placement(text: str, filename: str = "<string>") -> Placement:
    """Parse .pl text into a :class:`Placement`; coordinates must be
    finite."""
    placement = Placement()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(
                f"expected 'name x y', got {line!r}", filename, lineno
            )
        name, x_text, y_text = parts
        try:
            x, y = float(x_text), float(y_text)
        except ValueError:
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"bad coordinate in {line!r}", filename, lineno)
        placement.place(name, x, y)
    return placement
