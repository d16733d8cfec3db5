"""Structural-Verilog-subset parser and writer.

Supports the flat gate-level netlists this project generates::

    module top (clk, in0, out0);
      input clk;
      input in0;
      output out0;
      wire n1, n2;
      NAND2_X1 u1 (.A(in0), .B(n1), .Z(n2));
      DFF_X1 ff1 (.D(n2), .CK(clk), .Q(out0));
    endmodule

Only named port connections are supported (positional connections are a
reliability hazard in generated netlists), one module per file, no
behavioural constructs, no buses.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.errors import ParseError, ReproError
from repro.liberty.library import Library
from repro.netlist.core import Netlist, PortDirection

# One alternation, scanned by one ``findall``: a comment, a punctuation
# mark or a newline, an identifier, and last any other character, which
# is an error.
_TOKEN_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|[();,.\n]|[A-Za-z_\\][A-Za-z0-9_$\[\]\\]*|\S",
    re.DOTALL,
)

_PUNCT = frozenset("();,.")
_IDENT_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_\\"
)


class _Tokens:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        texts: list[str] = []
        lines: list[int] = []
        line = 1
        for token in _TOKEN_RE.findall(text):
            if token in _PUNCT or token[0] in _IDENT_START:
                texts.append(token)
                lines.append(line)
            elif token == "\n":
                line += 1
            elif len(token) > 1:  # a comment: the rest are one character
                line += token.count("\n")
            else:
                raise ParseError(
                    f"unexpected character {token!r}", filename, line
                )
        self._texts = texts
        self._lines = lines
        self._pos = 0

    def peek(self) -> str | None:
        if self._pos < len(self._texts):
            return self._texts[self._pos]
        return None

    def line(self) -> int:
        if self._pos < len(self._lines):
            return self._lines[self._pos]
        return self._lines[-1] if self._lines else 0

    def next(self, expected: str | None = None) -> str:
        if self._pos >= len(self._texts):
            raise ParseError(
                f"unexpected end of input (expected {expected or 'token'})",
                self.filename, self.line(),
            )
        token = self._texts[self._pos]
        if expected is not None and token != expected:
            raise ParseError(
                f"expected {expected!r}, got {token!r}",
                self.filename, self._lines[self._pos],
            )
        self._pos += 1
        return token

    def at_end(self) -> bool:
        return self._pos >= len(self._texts)


def _parse_name_list(tokens: _Tokens, terminator: str) -> list[str]:
    """Parse ``a, b, c <terminator>`` and consume the terminator."""
    names: list[str] = []
    while True:
        token = tokens.next()
        if token == terminator:
            break
        if token == ",":
            continue
        names.append(token)
    return names


def parse_verilog(text: str, library: Library,
                  filename: str = "<string>") -> Netlist:
    """Parse a flat structural Verilog module into a :class:`Netlist`."""
    tokens = _Tokens(text, filename)
    tokens.next("module")
    module_name = tokens.next()
    netlist = Netlist(module_name, library)
    # Header port list: names only; directions come from declarations.
    if tokens.peek() == "(":
        tokens.next("(")
        header_ports = _parse_name_list(tokens, ")")
        tokens.next(";")
    else:
        header_ports = []
        tokens.next(";")
    declared: set[str] = set()
    while True:
        token = tokens.peek()
        if token is None:
            raise ParseError("missing endmodule", filename, tokens.line())
        if token == "endmodule":
            tokens.next()
            break
        if token in ("input", "output"):
            line = tokens.line()
            tokens.next()
            direction = (
                PortDirection.INPUT if token == "input" else PortDirection.OUTPUT
            )
            for name in _parse_name_list(tokens, ";"):
                try:
                    netlist.add_port(name, direction)
                except ReproError as exc:
                    raise ParseError(str(exc), filename, line) from exc
                declared.add(name)
        elif token == "wire":
            tokens.next()
            for name in _parse_name_list(tokens, ";"):
                netlist.add_net(name)
        else:
            _parse_instance(tokens, netlist)
    if not tokens.at_end():
        raise ParseError(
            f"trailing input after endmodule: {tokens.peek()!r}",
            filename, tokens.line(),
        )
    missing = [p for p in header_ports if p not in declared]
    if missing:
        raise ParseError(
            f"ports in header but never declared: {', '.join(missing)}",
            filename, 1,
        )
    return netlist


def _parse_instance(tokens: _Tokens, netlist: Netlist) -> None:
    line = tokens.line()
    cell_name = tokens.next()
    instance_name = tokens.next()
    tokens.next("(")
    connections: dict[str, str] = {}
    while True:
        token = tokens.next()
        if token == ")":
            break
        if token == ",":
            continue
        if token != ".":
            raise ParseError(
                f"only named port connections are supported, got {token!r}",
                tokens.filename, line,
            )
        pin_name = tokens.next()
        tokens.next("(")
        net_name = tokens.next()
        tokens.next(")")
        connections[pin_name] = net_name
    tokens.next(";")
    try:
        netlist.add_gate(instance_name, cell_name, connections)
    except ReproError as exc:
        raise ParseError(str(exc), tokens.filename, line) from exc


def write_verilog(netlist: Netlist) -> str:
    """Serialize a :class:`Netlist` as flat structural Verilog."""
    port_names = list(netlist.ports)
    out: list[str] = [f"module {netlist.name} ({', '.join(port_names)});"]
    for name, port in netlist.ports.items():
        out.append(f"  {port.direction.value} {name};")
    wires = sorted(n for n in netlist.nets if n not in netlist.ports)
    for name in wires:
        out.append(f"  wire {name};")
    for name, gate in netlist.gates.items():
        conns = ", ".join(
            f".{pin}({net})" for pin, net in sorted(gate.connections.items())
        )
        out.append(f"  {gate.cell_name} {name} ({conns});")
    out.append("endmodule")
    out.append("")
    return "\n".join(out)


def load_verilog(path, library: Library) -> Netlist:
    """Parse a structural Verilog file from disk."""
    path = Path(path)
    return parse_verilog(path.read_text(), library, str(path))


def save_verilog(netlist: Netlist, path) -> None:
    """Write a netlist to disk as structural Verilog."""
    Path(path).write_text(write_verilog(netlist))
