"""Cell, pin, and timing-arc models.

A :class:`Cell` is a characterized standard cell: pins with direction and
capacitance, timing arcs between pins, plus the physical attributes the
closure optimizer trades off (area, leakage power, drive strength).

Sequential cells (flip-flops) carry ``setup`` / ``hold`` constraint arcs
from the data pin against the clock pin and a clock-to-Q delay arc.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import LibertyError
from repro.liberty.lut import LookupTable2D


class PinDirection(enum.Enum):
    """Signal direction of a cell pin."""

    INPUT = "input"
    OUTPUT = "output"


class ArcKind(enum.Enum):
    """Role of a timing arc."""

    COMBINATIONAL = "combinational"  # input -> output delay
    CLK_TO_Q = "clk_to_q"            # clock edge -> output delay
    SETUP = "setup"                  # data vs clock constraint
    HOLD = "hold"                    # data vs clock constraint


@dataclass
class Pin:
    """A cell pin.

    Attributes
    ----------
    name:
        Pin name unique within the cell (e.g. ``"A"``, ``"Z"``).
    direction:
        :class:`PinDirection`.
    capacitance:
        Input pin capacitance in fF (0.0 for outputs).
    max_capacitance:
        Maximum load an output pin may legally drive, in fF
        (``float("inf")`` when uncharacterized).
    max_transition:
        Maximum slew legal at this pin, in ps (design rule; checked by
        :meth:`repro.timing.sta.STAEngine.design_rule_violations`).
    is_clock:
        True for the clock pin of a sequential cell.
    """

    name: str
    direction: PinDirection
    capacitance: float = 0.0
    max_capacitance: float = float("inf")
    max_transition: float = float("inf")
    is_clock: bool = False


@dataclass
class TimingArc:
    """A characterized timing relationship between two pins of one cell.

    For delay arcs (``COMBINATIONAL``, ``CLK_TO_Q``) the tables give the
    arc delay and the slew at the output pin as functions of
    (input slew, output load).  For constraint arcs (``SETUP``/``HOLD``)
    only ``delay`` is used, as a function of (data slew, clock slew) —
    the column axis is reinterpreted as clock slew.
    """

    from_pin: str
    to_pin: str
    kind: ArcKind
    delay: LookupTable2D
    output_slew: LookupTable2D | None = None

    def __post_init__(self):
        needs_slew = self.kind in (ArcKind.COMBINATIONAL, ArcKind.CLK_TO_Q)
        if needs_slew and self.output_slew is None:
            raise LibertyError(
                f"delay arc {self.from_pin}->{self.to_pin} requires an "
                "output_slew table"
            )


@dataclass
class Cell:
    """A standard cell.

    Attributes
    ----------
    name:
        Library-unique cell name, e.g. ``"NAND2_X2"``.
    area:
        Cell area in um^2.
    leakage:
        Leakage power in nW.
    drive_strength:
        Relative drive (1 for X1, 2 for X2, ...); used to order size
        variants inside a footprint group.
    footprint:
        Size-family name: all drive variants at the *same* threshold
        voltage share it (``"NAND2"`` for SVT, ``"NAND2_LVT"`` ...).
    function:
        Logic function shared across VT flavours (``"NAND2"``); together
        with ``drive_strength`` it identifies VT-swap candidates.
    vt:
        Threshold-voltage flavour: ``"svt"`` (default), ``"lvt"``
        (faster, leakier), or ``"hvt"`` (slower, low leakage).
    is_sequential:
        True for flip-flops and latches.
    is_buffer:
        True for plain buffers (eligible for buffer-insertion cleanup).
    """

    name: str
    area: float
    leakage: float
    drive_strength: float = 1.0
    footprint: str = ""
    function: str = ""
    vt: str = "svt"
    is_sequential: bool = False
    is_buffer: bool = False
    pins: dict[str, Pin] = field(default_factory=dict)
    arcs: list[TimingArc] = field(default_factory=list)

    def __post_init__(self):
        if not self.footprint:
            self.footprint = self.name
        if not self.function:
            self.function = self.footprint

    def add_pin(self, pin: Pin) -> Pin:
        """Register a pin; raises on duplicate names."""
        if pin.name in self.pins:
            raise LibertyError(f"cell {self.name}: duplicate pin {pin.name}")
        self.pins[pin.name] = pin
        return pin

    def add_arc(self, arc: TimingArc) -> TimingArc:
        """Register a timing arc; validates both endpoints exist."""
        for pin_name in (arc.from_pin, arc.to_pin):
            if pin_name not in self.pins:
                raise LibertyError(
                    f"cell {self.name}: arc references unknown pin {pin_name}"
                )
        self.arcs.append(arc)
        return arc

    def pin(self, name: str) -> Pin:
        """Return the named pin, raising :class:`LibertyError` if absent."""
        try:
            return self.pins[name]
        except KeyError:
            raise LibertyError(f"cell {self.name} has no pin {name}") from None

    @property
    def input_pins(self) -> list[Pin]:
        """Input pins in declaration order (clock pin included)."""
        return [p for p in self.pins.values() if p.direction is PinDirection.INPUT]

    @property
    def output_pins(self) -> list[Pin]:
        """Output pins in declaration order."""
        return [p for p in self.pins.values() if p.direction is PinDirection.OUTPUT]

    @property
    def clock_pin(self) -> Pin | None:
        """The clock pin for sequential cells, else None."""
        for pin in self.pins.values():
            if pin.is_clock:
                return pin
        return None

    def delay_arcs(self) -> list[TimingArc]:
        """All arcs that propagate a transition (not constraints)."""
        return [
            a for a in self.arcs
            if a.kind in (ArcKind.COMBINATIONAL, ArcKind.CLK_TO_Q)
        ]

    def constraint_arcs(self) -> list[TimingArc]:
        """All setup/hold constraint arcs."""
        return [a for a in self.arcs if a.kind in (ArcKind.SETUP, ArcKind.HOLD)]

    def arc_between(self, from_pin: str, to_pin: str) -> TimingArc | None:
        """The delay arc from ``from_pin`` to ``to_pin``, or None."""
        for arc in self.delay_arcs():
            if arc.from_pin == from_pin and arc.to_pin == to_pin:
                return arc
        return None
