"""SDC-lite parser.

Supports the command subset the writer emits, one command per line
(backslash continuations allowed)::

    create_clock -name clk -period 1.2 [get_ports clk]
    set_clock_uncertainty 0.05 [get_clocks clk]
    set_input_delay 0.2 -clock clk [get_ports in0]
    set_output_delay 0.3 -clock clk [get_ports out0]
    set_timing_derate -late 1.2
    set_false_path -from [get_cells sync_*] -to [get_cells cfg_reg]
    set_multicycle_path 2 -to [get_cells slow_*]

Periods and delays are in ns in the file (SDC convention) and converted
to ps in the model.  ``get_cells`` arguments are fnmatch patterns over
instance/port names.
"""

from __future__ import annotations

import math
import re
import shlex
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ParseError, SDCError
from repro.sdc.constraints import Clock, Constraints
from repro.units import ns_to_ps

_GETTER_RE = re.compile(
    r"\[\s*(get_ports|get_clocks|get_pins|get_cells)\s+([^\]]+?)\s*\]"
)


@dataclass(frozen=True)
class _Getter:
    """One ``[get_xxx name ...]`` object reference: its first name."""

    kind: str
    name: str


def _logical_lines(text: str) -> "list[tuple[int, str]]":
    """Split into logical lines, honouring backslash continuations."""
    lines: list[tuple[int, str]] = []
    pending = ""
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped and not pending:
            continue
        if not pending:
            pending_line = lineno
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
            continue
        pending += stripped
        if pending.strip():
            lines.append((pending_line, pending.strip()))
        pending = ""
    if pending.strip():
        lines.append((pending_line, pending.strip()))
    return lines


class _Command:
    """One parsed SDC command: flags, positionals, and object getters.

    Each ``[get_xxx ...]`` is one :class:`_Getter` token, never text, so
    no word of the command can stand in for a getter.  A flag's value is
    the next token unless that is another flag.
    """

    def __init__(self, line: str, lineno: int, filename: str):
        self.lineno = lineno
        self.filename = filename
        tokens = self._tokens(line)
        if not tokens or not isinstance(tokens[0], str):
            raise self.error("expected a command name")
        self.name = tokens[0]
        self.getters = [t for t in tokens if isinstance(t, _Getter)]
        self.flags: "dict[str, str | _Getter]" = {}
        self.positionals: "list[str | _Getter]" = []
        i = 1
        while i < len(tokens):
            token = tokens[i]
            if isinstance(token, str) and token.startswith("-"):
                value = tokens[i + 1] if i + 1 < len(tokens) else None
                if value is None or (
                        isinstance(value, str) and value.startswith("-")):
                    self.flags[token[1:]] = ""
                    i += 1
                else:
                    self.flags[token[1:]] = value
                    i += 2
            else:
                self.positionals.append(token)
                i += 1

    def _tokens(self, line: str) -> "list[str | _Getter]":
        tokens: "list[str | _Getter]" = []
        start = 0
        for match in _GETTER_RE.finditer(line):
            tokens.extend(self._split(line[start:match.start()]))
            names = match.group(2).split()
            if not names:
                raise self.error(f"empty [{match.group(1)}]")
            tokens.append(_Getter(match.group(1), names[0]))
            start = match.end()
        tokens.extend(self._split(line[start:]))
        return tokens

    def _split(self, text: str) -> "list[str]":
        try:
            return shlex.split(text)
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.filename, self.lineno)

    def getter(self, kind: str) -> str:
        """First getter argument of the given kind; raises when absent."""
        for getter in self.getters:
            if getter.kind == kind:
                return getter.name
        raise self.error(f"{self.name}: missing [{kind} ...]")

    def flag_text(self, flag: str) -> str:
        """``-flag``'s value, a getter's name for ``-flag [get_xxx n]``,
        or ``""`` when the flag is absent or bare."""
        value = self.flags.get(flag, "")
        return value.name if isinstance(value, _Getter) else value

    def flag_pattern(self, flag: str) -> str:
        """The name in ``-flag [get_xxx name]``; ``"*"`` when the flag is
        absent or bare."""
        value = self.flags.get(flag, "")
        if isinstance(value, _Getter):
            return value.name
        if value:
            raise self.error(
                f"{self.name}: -{flag} expects [get_cells ...], got {value!r}"
            )
        return "*"

    def _number(self, text: str, what: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise self.error(
                f"{self.name}: {what} expects a number, got {text!r}"
            ) from None
        if not math.isfinite(value):
            raise self.error(
                f"{self.name}: {what} expects a finite number, got {text!r}"
            )
        return value

    def ps(self, ns: float) -> float:
        """``ns`` in ps; a value that overflows there is an error."""
        value = ns_to_ps(ns)
        if not math.isfinite(value):
            raise self.error(f"{self.name}: {ns!r} ns overflows in ps")
        return value

    def flag_float(self, name: str) -> float:
        if name not in self.flags:
            raise self.error(f"{self.name}: missing -{name}")
        value = self.flags[name]
        if isinstance(value, _Getter):
            raise self.error(
                f"{self.name}: -{name} expects a number, got [{value.kind}]"
            )
        return self._number(value, f"-{name}")

    def first_positional_float(self) -> float:
        for value in self.positionals:
            if isinstance(value, _Getter):
                continue
            try:
                float(value)
            except ValueError:
                continue
            return self._number(value, "argument")
        raise self.error(f"{self.name}: expected a numeric argument")


def parse_sdc(text: str, filename: str = "<string>") -> Constraints:
    """Parse SDC-lite text into :class:`Constraints`.

    Every malformed command, and every constraint the model rejects
    (a duplicate clock, a non-positive period, an unknown clock), is a
    :class:`ParseError` at its line.
    """
    constraints = Constraints()
    pending_uncertainty: "list[tuple[_Command, str, float]]" = []
    for lineno, line in _logical_lines(text):
        command = _Command(line, lineno, filename)
        try:
            _apply(command, constraints, pending_uncertainty)
        except SDCError as exc:
            raise command.error(str(exc)) from exc
    for command, clock_name, value in pending_uncertainty:
        try:
            constraints.clock(clock_name).uncertainty = value
        except SDCError as exc:
            raise command.error(str(exc)) from exc
    return constraints


def _apply(command: _Command, constraints: Constraints,
           pending_uncertainty: "list[tuple[_Command, str, float]]") -> None:
    """Record one command in ``constraints``; clock uncertainties wait
    in ``pending_uncertainty`` until every clock is defined."""
    if command.name == "create_clock":
        constraints.add_clock(Clock(
            name=command.flag_text("name") or command.getter("get_ports"),
            period=command.ps(command.flag_float("period")),
            source_port=command.getter("get_ports"),
        ))
    elif command.name == "set_clock_uncertainty":
        value = command.ps(command.first_positional_float())
        pending_uncertainty.append(
            (command, command.getter("get_clocks"), value)
        )
    elif command.name in ("set_input_delay", "set_output_delay"):
        setter = (
            constraints.set_input_delay
            if command.name == "set_input_delay"
            else constraints.set_output_delay
        )
        setter(
            command.getter("get_ports"),
            command.flag_text("clock"),
            command.ps(command.first_positional_float()),
        )
    elif command.name == "set_timing_derate":
        if "late" in command.flags:
            constraints.flat_derate_late = (
                command.flag_float("late")
                if command.flags["late"]
                else command.first_positional_float()
            )
    elif command.name == "set_false_path":
        constraints.set_false_path(
            from_pattern=command.flag_pattern("from"),
            to_pattern=command.flag_pattern("to"),
        )
    elif command.name == "set_multicycle_path":
        constraints.set_multicycle_path(
            int(command.first_positional_float()),
            to_pattern=command.flag_pattern("to"),
        )
    else:
        raise command.error(f"unsupported SDC command {command.name!r}")


def load_sdc(path) -> Constraints:
    """Parse an SDC-lite file from disk."""
    path = Path(path)
    return parse_sdc(path.read_text(), str(path))
