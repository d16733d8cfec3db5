"""Unit conventions used throughout the library.

All internal quantities use a single fixed unit system so that no module
ever needs to carry units around:

========== ========= =======================================
Quantity   Unit      Notes
========== ========= =======================================
time       ps        delays, slews, arrivals, slacks, periods
distance   nm        placement coordinates, bounding boxes
capacitance fF       pin and wire loads
resistance kOhm      wire resistance (kOhm * fF = ps)
area       um^2      cell area
power      nW        leakage power
========== ========= =======================================

The helpers below exist for readability at call sites that quote values
in other units (e.g. clock periods in ns from an SDC file).
"""

from __future__ import annotations

PS_PER_NS = 1000.0


def ns_to_ps(value_ns: float) -> float:
    """Convert nanoseconds to the internal picosecond unit."""
    return value_ns * PS_PER_NS


def ps_to_ns(value_ps: float) -> float:
    """Convert internal picoseconds to nanoseconds."""
    return value_ps / PS_PER_NS

