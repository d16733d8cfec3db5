"""Liberty-lite writer: the inverse of :mod:`repro.liberty.parser`.

``parse_liberty(write_liberty(lib))`` reads back every field the data
model carries, with each number rounded to the 12 significant digits
:func:`_fmt` prints.  A parsed table value equals its written text bit
for bit but can differ from the original in its last bits (513 of the
default library's 694 tables do); writing the parsed library again
reproduces the text exactly.  Both are tested in
``tests/liberty/test_parser_writer.py``.
"""

from __future__ import annotations

import math

from repro.liberty.cell import ArcKind, Cell, TimingArc
from repro.liberty.library import Library
from repro.liberty.lut import LookupTable2D

_KIND_TO_TIMING_TYPE = {
    ArcKind.COMBINATIONAL: "combinational",
    ArcKind.CLK_TO_Q: "rising_edge",
    ArcKind.SETUP: "setup_rising",
    ArcKind.HOLD: "hold_rising",
}


def _fmt(value: float) -> str:
    # 12 significant digits: short enough to stay readable, not enough
    # for an exact round trip — a value reads back as the double
    # nearest its 12-digit text, which can differ in the last bits.
    return f"{value:.12g}"


def _axis_text(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def _emit_table(name: str, table: LookupTable2D, indent: str, out: list[str]) -> None:
    # The table's plain-list mirrors format as the same text as its
    # arrays, without a numpy scalar per value.
    out.append(f"{indent}{name} (tmpl) {{")
    out.append(f'{indent}  index_1 ("{_axis_text(table._rows_list)}");')
    out.append(f'{indent}  index_2 ("{_axis_text(table._cols_list)}");')
    rows = ", ".join(f'"{_axis_text(row)}"' for row in table._values_list)
    out.append(f"{indent}  values ({rows});")
    out.append(f"{indent}}}")


def _emit_delay_timing(arc: TimingArc, indent: str, out: list[str]) -> None:
    out.append(f"{indent}timing () {{")
    out.append(f'{indent}  related_pin : "{arc.from_pin}";')
    out.append(f"{indent}  timing_type : {_KIND_TO_TIMING_TYPE[arc.kind]};")
    _emit_table("cell_rise", arc.delay, indent + "  ", out)
    assert arc.output_slew is not None
    _emit_table("rise_transition", arc.output_slew, indent + "  ", out)
    out.append(f"{indent}}}")


def _emit_constraint_timing(arc: TimingArc, indent: str, out: list[str]) -> None:
    out.append(f"{indent}timing () {{")
    out.append(f'{indent}  related_pin : "{arc.to_pin}";')
    out.append(f"{indent}  timing_type : {_KIND_TO_TIMING_TYPE[arc.kind]};")
    _emit_table("rise_constraint", arc.delay, indent + "  ", out)
    out.append(f"{indent}}}")


def _emit_cell(cell: Cell, out: list[str]) -> None:
    out.append(f"  cell ({cell.name}) {{")
    out.append(f"    area : {_fmt(cell.area)};")
    out.append(f"    cell_leakage_power : {_fmt(cell.leakage)};")
    out.append(f"    drive_strength : {_fmt(cell.drive_strength)};")
    out.append(f'    cell_footprint : "{cell.footprint}";')
    if cell.function != cell.footprint:
        out.append(f'    function_class : "{cell.function}";')
    if cell.vt != "svt":
        out.append(f"    threshold_voltage_group : {cell.vt};")
    if cell.is_buffer:
        out.append("    is_buffer : true;")
    if cell.is_sequential:
        out.append("    ff () { }")
    for pin in cell.pins.values():
        out.append(f"    pin ({pin.name}) {{")
        out.append(f"      direction : {pin.direction.value};")
        if pin.capacitance:
            out.append(f"      capacitance : {_fmt(pin.capacitance)};")
        if pin.is_clock:
            out.append("      clock : true;")
        if not math.isinf(pin.max_capacitance):
            out.append(f"      max_capacitance : {_fmt(pin.max_capacitance)};")
        if not math.isinf(pin.max_transition):
            out.append(f"      max_transition : {_fmt(pin.max_transition)};")
        # Delay arcs are emitted under their destination (output) pin,
        # constraint arcs under their data (from) pin.
        for arc in cell.arcs:
            if arc.kind in (ArcKind.SETUP, ArcKind.HOLD):
                if arc.from_pin == pin.name:
                    _emit_constraint_timing(arc, "      ", out)
            elif arc.to_pin == pin.name:
                _emit_delay_timing(arc, "      ", out)
        out.append("    }")
    out.append("  }")


def write_liberty(library: Library) -> str:
    """Serialize a :class:`Library` to Liberty-lite text."""
    out: list[str] = [f"library ({library.name}) {{"]
    for cell in library.cells.values():
        _emit_cell(cell, out)
    out.append("}")
    out.append("")
    return "\n".join(out)
