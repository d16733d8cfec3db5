"""Structural Verilog parser/writer tests."""

import pytest

from repro.errors import ParseError
from repro.liberty.builder import make_default_library
from repro.netlist.core import Netlist, PortDirection
from repro.netlist.verilog import parse_verilog, write_verilog

LIB = make_default_library()

SAMPLE = """
// a comment
module top (clk, in0, out0);
  input clk;
  input in0;
  output out0;
  wire w1;
  /* block
     comment */
  NAND2_X1 u1 (.A(in0), .B(w1), .Z(out0));
  DFF_X1 ff1 (.D(in0), .CK(clk), .Q(w1));
endmodule
"""


class TestParse:
    def test_sample(self):
        n = parse_verilog(SAMPLE, LIB)
        assert n.name == "top"
        assert set(n.ports) == {"clk", "in0", "out0"}
        assert set(n.gates) == {"u1", "ff1"}
        assert n.gate("u1").connections == {"A": "in0", "B": "w1", "Z": "out0"}

    def test_port_directions(self):
        n = parse_verilog(SAMPLE, LIB)
        assert n.ports["clk"].direction is PortDirection.INPUT
        assert n.ports["out0"].direction is PortDirection.OUTPUT

    def test_unknown_cell_is_located_error(self):
        bad = SAMPLE.replace("NAND2_X1", "NOCELL_X1")
        with pytest.raises(ParseError):
            parse_verilog(bad, LIB)

    def test_positional_connections_rejected(self):
        bad = "module m (a);\n input a;\n INV_X1 u (a, a);\nendmodule"
        with pytest.raises(ParseError):
            parse_verilog(bad, LIB)

    def test_missing_endmodule(self):
        with pytest.raises(ParseError):
            parse_verilog("module m (); input a;", LIB)

    def test_undeclared_header_port(self):
        bad = "module m (a, ghost);\n input a;\nendmodule"
        with pytest.raises(ParseError):
            parse_verilog(bad, LIB)

    def test_empty_port_list(self):
        n = parse_verilog("module m ();\nendmodule", LIB)
        assert n.ports == {}

    def test_duplicate_port_is_located_error(self):
        text = "module m (a);\n input a;\n /* x\n */ input a;\nendmodule"
        with pytest.raises(ParseError) as err:
            parse_verilog(text, LIB, filename="m.v")
        assert str(err.value) == "m.v:4: duplicate port a"

    def test_unexpected_character_is_located(self):
        with pytest.raises(ParseError) as err:
            parse_verilog("module m (a);\n // c\n input a#;", LIB)
        assert str(err.value) == "<string>:3: unexpected character '#'"

    def test_netlist_bug_is_not_a_syntax_error(self, monkeypatch):
        """Only the netlist model's typed errors become ParseErrors."""
        def broken(*_args, **_kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(Netlist, "add_gate", broken)
        with pytest.raises(KeyError):
            parse_verilog(SAMPLE, LIB)


class TestRoundTrip:
    def _build(self):
        n = Netlist("rt", LIB)
        n.add_port("clk", PortDirection.INPUT)
        n.add_port("a", PortDirection.INPUT)
        n.add_port("y", PortDirection.OUTPUT)
        n.add_gate("ff", "DFF_X2", {"D": "a", "CK": "clk", "Q": "q"})
        n.add_gate("u1", "AOI21_X1",
                   {"A": "q", "B": "a", "C": "q", "Z": "y"})
        return n

    def test_round_trip_structure(self):
        original = self._build()
        text = write_verilog(original)
        parsed = parse_verilog(text, LIB)
        assert set(parsed.gates) == set(original.gates)
        assert set(parsed.nets) == set(original.nets)
        assert set(parsed.ports) == set(original.ports)
        for name, gate in original.gates.items():
            assert parsed.gate(name).cell_name == gate.cell_name
            assert parsed.gate(name).connections == gate.connections

    def test_round_trip_is_fixed_point(self):
        original = self._build()
        text = write_verilog(original)
        assert write_verilog(parse_verilog(text, LIB)) == text

    def test_generated_design_round_trips(self, small_design):
        text = write_verilog(small_design.netlist)
        parsed = parse_verilog(text, LIB)
        assert set(parsed.gates) == set(small_design.netlist.gates)
        assert set(parsed.nets) == set(small_design.netlist.nets)
