"""Liberty-lite parser.

Parses the subset of the Liberty grammar this project emits (see
:mod:`repro.liberty.writer`).  The grammar has three member forms inside
a group body::

    simple_attribute  : name : value ;
    complex_attribute : name ( "arg", "arg", ... ) ;
    group             : name ( args ) { members }

The parser is two-stage — a generic group-tree parse followed by
semantic interpretation — so malformed syntax and malformed semantics
produce distinct, located errors.

Supported semantic structure::

    library (NAME) {
      cell (CELL) {
        area : 0.8;
        cell_leakage_power : 2.4;
        drive_strength : 1;
        cell_footprint : "NAND2";
        is_buffer : true;        /* extension attribute */
        ff () { }                /* marks the cell sequential */
        pin (A) {
          direction : input;
          capacitance : 1.2;
          clock : true;
          max_capacitance : 64;
          timing () {
            related_pin : "B";
            timing_type : combinational;  /* | rising_edge |
                                             setup_rising | hold_rising */
            cell_rise (tmpl) {
              index_1 ("5, 20");
              index_2 ("1, 4");
              values ("1, 2", "3, 4");
            }
            rise_transition (tmpl) { ... }
          }
        }
      }
    }
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.errors import LibertyError, ParseError
from repro.liberty.cell import ArcKind, Cell, Pin, PinDirection, TimingArc
from repro.liberty.library import Library
from repro.liberty.lut import LookupTable2D

# One alternation, scanned by one ``findall``: a comment, a quoted
# string (kept with its quotes), a punctuation mark or a newline, a
# bare word, and last any other character -- which can only be a lone
# ``"`` that opens no string.
_TOKEN_RE = re.compile(
    r'/\*.*?\*/|"[^"]*"|[(){};:,\n]|[^\s(){};:,"]+|\S', re.DOTALL
)

_TIMING_TYPE_TO_KIND = {
    "combinational": ArcKind.COMBINATIONAL,
    "rising_edge": ArcKind.CLK_TO_Q,
    "setup_rising": ArcKind.SETUP,
    "hold_rising": ArcKind.HOLD,
}

_KIND_TO_TIMING_TYPE = {v: k for k, v in _TIMING_TYPE_TO_KIND.items()}


@dataclass
class Group:
    """Generic parsed Liberty group: ``kind (args) { members }``."""

    kind: str
    args: list[str]
    line: int
    attributes: dict[str, str] = field(default_factory=dict)
    complex_attributes: dict[str, list[str]] = field(default_factory=dict)
    subgroups: list["Group"] = field(default_factory=list)

    def first(self, kind: str) -> "Group | None":
        """First subgroup of the given kind, or None."""
        for group in self.subgroups:
            if group.kind == kind:
                return group
        return None

    def all(self, kind: str) -> list["Group"]:
        """All subgroups of the given kind."""
        return [g for g in self.subgroups if g.kind == kind]


def _tokenize(text: str, filename: str) -> "tuple[list[str], list[int]]":
    """Token texts and their 1-based lines.

    Newlines only advance the line counter and comments are dropped.
    Quoted strings keep their quotes, so a punctuation test is a plain
    ``==``: the string ``"}"`` never equals the brace ``}``.  Only a
    quoted string contains ``"``, and only at its two ends, so
    ``token.strip('"')`` is any token's text.
    """
    texts: list[str] = []
    lines: list[int] = []
    line = 1
    for token in _TOKEN_RE.findall(text):
        first = token[0]
        if first == "\n":
            line += 1
        elif first == '"':
            if len(token) == 1:
                raise ParseError(
                    f"unexpected character {token!r}", filename, line
                )
            texts.append(token)
            lines.append(line)
            line += token.count("\n")
        elif (first == "/" and len(token) > 3 and token[1] == "*"
              and token.endswith("*/")):
            line += token.count("\n")
        else:
            texts.append(token)
            lines.append(line)
    return texts, lines


def parse_group_tree(text: str, filename: str = "<string>") -> Group:
    """Parse Liberty-lite text into the generic :class:`Group` tree."""
    texts, lines = _tokenize(text, filename)
    if not texts:
        raise ParseError("empty input", filename, 1)
    end = len(texts)
    texts.append("")  # end sentinel: equal to no punctuation mark

    def expected(char: str, at: int) -> ParseError:
        if at == end:
            return ParseError(
                f"unexpected end of input (expected {char})",
                filename, lines[-1],
            )
        got = texts[at].strip('"')
        return ParseError(f"expected {char!r}, got {got!r}", filename, lines[at])

    def parse_args(at: int) -> "tuple[list[str], int]":
        # ``( a, b, ... )`` at ``at``: the argument texts and the index
        # after the ``)``.
        if texts[at] != "(":
            raise expected("(", at)
        try:
            close = texts.index(")", at + 1)
        except ValueError:
            raise expected("more input", end) from None
        args = [t.strip('"') for t in texts[at + 1:close] if t != ","]
        return args, close + 1

    # Any token may name the top group; its header is ``name (args) {``.
    args, i = parse_args(1)
    if texts[i] != "{":
        raise expected("{", i)
    root = group = Group(texts[0].strip('"'), args, lines[0])
    enclosing: list[Group] = []
    i += 1
    while True:
        name = texts[i]
        if name == "}":
            i += 1
            if not enclosing:
                break
            group = enclosing.pop()
            continue
        if i == end:
            raise ParseError(
                f"unterminated group {group.kind!r}", filename, group.line
            )
        after = texts[i + 1]
        if after == ":":  # name : value ... ;
            try:
                j = texts.index(";", i + 2)
            except ValueError:
                raise expected("more input", end) from None
            group.attributes[name.strip('"')] = " ".join(
                [t.strip('"') for t in texts[i + 2:j]]
            )
        elif after == "(":  # name (args) ;  or  name (args) { members }
            args, j = parse_args(i + 1)
            if texts[j] == ";":
                group.complex_attributes[name.strip('"')] = args
            elif texts[j] == "{":
                subgroup = Group(name.strip('"'), args, lines[i])
                group.subgroups.append(subgroup)
                enclosing.append(group)
                group = subgroup
            else:
                raise expected("{", j)
        else:
            name = name.strip('"')
            raise ParseError(
                f"expected attribute or group after {name!r}",
                filename, lines[i],
            )
        i = j + 1
    if i != end:
        trailing = texts[i].strip('"')
        raise ParseError(f"trailing input {trailing!r}", filename, lines[i])
    return root


def _parse_number_list(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _read_table(group: Group, filename: str) -> LookupTable2D:
    complex_attrs = group.complex_attributes
    value_rows = complex_attrs.get("values")
    if not value_rows:
        raise ParseError("table group lacks values()", filename, group.line)
    index_1 = complex_attrs.get("index_1")
    index_2 = complex_attrs.get("index_2")
    try:
        grid = [_parse_number_list(row) for row in value_rows]
        if len({len(row) for row in grid}) > 1:
            raise ParseError(
                "values() rows differ in length", filename, group.line
            )
        row_axis = (
            _parse_number_list(index_1[0])
            if index_1 else np.arange(len(grid), dtype=float)
        )
        col_axis = (
            _parse_number_list(index_2[0])
            if index_2 else np.arange(len(grid[0]), dtype=float)
        )
        return LookupTable2D(row_axis, col_axis, np.array(grid))
    except (ValueError, LibertyError) as exc:
        raise ParseError(str(exc), filename, group.line) from exc


def _read_bool(value: str) -> bool:
    return value.strip().lower() in ("true", "1", "yes")


def _read_arc(timing: Group, pin_name: str, filename: str) -> TimingArc:
    related = timing.attributes.get("related_pin", "").strip('"')
    if not related:
        raise ParseError("timing group lacks related_pin", filename, timing.line)
    timing_type = timing.attributes.get("timing_type", "combinational")
    kind = _TIMING_TYPE_TO_KIND.get(timing_type)
    if kind is None:
        raise ParseError(
            f"unsupported timing_type {timing_type!r}", filename, timing.line
        )
    if kind in (ArcKind.SETUP, ArcKind.HOLD):
        table_group = timing.first("rise_constraint")
        if table_group is None:
            raise ParseError(
                "constraint timing group lacks rise_constraint",
                filename, timing.line,
            )
        # Constraint arcs live on the data pin: from=data, to=clock.
        return TimingArc(pin_name, related, kind,
                         _read_table(table_group, filename))
    delay_group = timing.first("cell_rise")
    slew_group = timing.first("rise_transition")
    if delay_group is None or slew_group is None:
        raise ParseError(
            "delay timing group needs cell_rise and rise_transition",
            filename, timing.line,
        )
    return TimingArc(
        related, pin_name, kind,
        _read_table(delay_group, filename),
        _read_table(slew_group, filename),
    )


def _read_pin(pin_group: Group, cell: Cell, filename: str) -> None:
    if not pin_group.args:
        raise ParseError("pin group lacks a name", filename, pin_group.line)
    attrs = pin_group.attributes
    direction_text = attrs.get("direction", "input")
    try:
        direction = PinDirection(direction_text)
    except ValueError:
        raise ParseError(
            f"pin {pin_group.args[0]}: bad direction {direction_text!r}",
            filename, pin_group.line,
        ) from None
    try:
        cell.add_pin(Pin(
            name=pin_group.args[0],
            direction=direction,
            capacitance=float(attrs.get("capacitance", 0.0)),
            max_capacitance=float(attrs.get("max_capacitance", "inf")),
            max_transition=float(attrs.get("max_transition", "inf")),
            is_clock=_read_bool(attrs.get("clock", "false")),
        ))
    except (ValueError, LibertyError) as exc:
        raise ParseError(str(exc), filename, pin_group.line) from exc


def _read_cell(cell_group: Group, filename: str) -> Cell:
    if not cell_group.args:
        raise ParseError("cell group lacks a name", filename, cell_group.line)
    attrs = cell_group.attributes
    try:
        cell = Cell(
            name=cell_group.args[0],
            area=float(attrs.get("area", 0.0)),
            leakage=float(attrs.get("cell_leakage_power", 0.0)),
            drive_strength=float(attrs.get("drive_strength", 1.0)),
            footprint=attrs.get("cell_footprint", "").strip('"'),
            function=attrs.get("function_class", "").strip('"'),
            vt=attrs.get("threshold_voltage_group", "svt"),
            is_sequential=cell_group.first("ff") is not None,
            is_buffer=_read_bool(attrs.get("is_buffer", "false")),
        )
    except ValueError as exc:
        raise ParseError(str(exc), filename, cell_group.line) from exc
    # Two passes: pins first so arcs can validate their endpoints.
    for pin_group in cell_group.all("pin"):
        _read_pin(pin_group, cell, filename)
    for pin_group in cell_group.all("pin"):
        pin_name = pin_group.args[0]
        for timing in pin_group.all("timing"):
            try:
                cell.add_arc(_read_arc(timing, pin_name, filename))
            except LibertyError as exc:
                raise ParseError(str(exc), filename, timing.line) from exc
    return cell


def parse_liberty(text: str, filename: str = "<string>") -> Library:
    """Parse Liberty-lite text into a :class:`Library`."""
    root = parse_group_tree(text, filename)
    if root.kind != "library":
        raise ParseError(
            f"top-level group must be 'library', got {root.kind!r}",
            filename, root.line,
        )
    library = Library(root.args[0] if root.args else "unnamed")
    for cell_group in root.all("cell"):
        try:
            library.add_cell(_read_cell(cell_group, filename))
        except LibertyError as exc:
            raise ParseError(str(exc), filename, cell_group.line) from exc
    return library
