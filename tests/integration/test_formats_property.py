"""Property tests: every format round-trips random data exactly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aocv.table import DeratingTable, parse_aocv, write_aocv
from repro.errors import ParseError
from repro.liberty.builder import make_default_library
from repro.liberty.parser import parse_liberty
from repro.liberty.writer import write_liberty
from repro.netlist.core import Netlist, PortDirection
from repro.netlist.parasitics import Parasitics, parse_spef, write_spef
from repro.netlist.placement import Placement
from repro.netlist.plfile import parse_placement, write_placement
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.sdc.constraints import Clock, Constraints
from repro.sdc.parser import parse_sdc
from repro.sdc.writer import write_sdc

LIB = make_default_library()

name_strategy = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)

# Axis values on a milli-grid: distinct entries stay distinct through
# the writer's %.6g formatting (free-range floats can collide there).
derate_axis = st.lists(
    st.integers(1000, 64000), min_size=1, max_size=5, unique=True,
).map(lambda values: [v / 1000.0 for v in sorted(values)])


@settings(max_examples=40, deadline=None)
@given(
    depths=derate_axis,
    distances=derate_axis,
    base=st.floats(1.01, 2.0),
)
def test_aocv_round_trip(depths, distances, base):
    rng = np.random.default_rng(int(base * 1000))
    values = base + rng.uniform(0, 0.5, size=(len(distances), len(depths)))
    table = DeratingTable(
        np.array(depths), np.array(distances), values
    )
    parsed = parse_aocv(write_aocv(table))
    assert np.allclose(parsed.depths, table.depths)
    assert np.allclose(parsed.distances, table.distances)
    assert np.allclose(parsed.values, table.values, rtol=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.dictionaries(
        name_strategy,
        st.tuples(st.floats(0.001, 1e4), st.floats(0.0001, 10.0)),
        min_size=0, max_size=12,
    )
)
def test_spef_round_trip(entries):
    parasitics = Parasitics("prop")
    for net, (cap, res) in entries.items():
        parasitics.set_net(net, cap, res)
    parsed = parse_spef(write_spef(parasitics))
    assert set(parsed.nets) == set(parasitics.nets)
    for net in entries:
        assert np.isclose(
            parsed.get(net).capacitance, parasitics.get(net).capacitance,
            rtol=1e-6,
        )


@settings(max_examples=40, deadline=None)
@given(
    points=st.dictionaries(
        name_strategy,
        st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)),
        min_size=0, max_size=12,
    )
)
def test_placement_round_trip(points):
    placement = Placement()
    for name, (x, y) in points.items():
        placement.place(name, x, y)
    parsed = parse_placement(write_placement(placement))
    assert set(parsed.locations) == set(placement.locations)
    for name in points:
        assert abs(parsed.location(name).x - placement.location(name).x) < 1e-3
        assert abs(parsed.location(name).y - placement.location(name).y) < 1e-3


@settings(max_examples=30, deadline=None)
@given(
    period_ns=st.floats(0.1, 50.0),
    uncertainty_ns=st.floats(0.0, 1.0),
    io=st.lists(
        st.tuples(name_strategy, st.booleans(), st.floats(0.01, 5.0)),
        max_size=6,
        unique_by=lambda t: t[0],
    ),
)
def test_sdc_round_trip(period_ns, uncertainty_ns, io):
    constraints = Constraints()
    constraints.add_clock(Clock(
        "clk", period=period_ns * 1000.0, source_port="clkport",
        uncertainty=uncertainty_ns * 1000.0,
    ))
    for port, is_input, delay_ns in io:
        if is_input:
            constraints.set_input_delay(port, "clk", delay_ns * 1000.0)
        else:
            constraints.set_output_delay(port, "clk", delay_ns * 1000.0)
    parsed = parse_sdc(write_sdc(constraints))
    assert np.isclose(
        parsed.clock("clk").period, constraints.clock("clk").period,
        rtol=1e-5,
    )
    for port, is_input, delay_ns in io:
        got = (
            parsed.input_delay_of(port) if is_input
            else parsed.output_delay_of(port)
        )
        assert np.isclose(got, delay_ns * 1000.0, rtol=1e-5)


@settings(max_examples=20, deadline=None)
@given(
    chain=st.lists(
        st.sampled_from(["INV_X1", "BUF_X2", "INV_X4", "INV_X1_LVT"]),
        min_size=1, max_size=10,
    )
)
def test_verilog_round_trip_random_chains(chain):
    netlist = Netlist("prop", LIB)
    netlist.add_port("a", PortDirection.INPUT)
    netlist.add_port("y", PortDirection.OUTPUT)
    previous = "a"
    for i, cell_name in enumerate(chain):
        out = "y" if i == len(chain) - 1 else f"w{i}"
        netlist.add_gate(f"u{i}", cell_name, {"A": previous, "Z": out})
        previous = out
    text = write_verilog(netlist)
    parsed = parse_verilog(text, LIB)
    assert write_verilog(parsed) == text
    for name, gate in netlist.gates.items():
        assert parsed.gate(name).cell_name == gate.cell_name


def _small_netlist() -> Netlist:
    netlist = Netlist("fuzz", LIB)
    netlist.add_port("clk", PortDirection.INPUT)
    netlist.add_port("a", PortDirection.INPUT)
    netlist.add_port("y", PortDirection.OUTPUT)
    netlist.add_gate("ff", "DFF_X2", {"D": "a", "CK": "clk", "Q": "q"})
    netlist.add_gate("u1", "AOI21_X1", {"A": "q", "B": "a", "C": "q", "Z": "w"})
    netlist.add_gate("u2", "INV_X1", {"A": "w", "Z": "y"})
    return netlist


LIB_TEXT = write_liberty(LIB)
VERILOG_TEXT = write_verilog(_small_netlist())

#: Characters a one-character mutation writes: both grammars'
#: punctuation, comment and quote marks, and name and number text.
_MUTATION_CHARS = st.sampled_from(list('(){};:,."/*#\n \tAZaz_09.-e'))


#: SDC adds its getter brackets and line continuation (its flag dash
#: is already in).
_SDC_MUTATION_CHARS = st.sampled_from(
    list('(){};:,."/*#\n \tAZaz_09.-e[]\\')
)


def _mutants(text: str, chars=_MUTATION_CHARS):
    """Truncations and one-character replacements, insertions and
    deletions of ``text``."""
    position = st.integers(0, len(text) - 1)
    return st.one_of(
        st.integers(0, len(text)).map(lambda n: text[:n]),
        st.tuples(position, chars).map(
            lambda pc: text[:pc[0]] + pc[1] + text[pc[0] + 1:]
        ),
        st.tuples(position, chars).map(
            lambda pc: text[:pc[0]] + pc[1] + text[pc[0]:]
        ),
        position.map(lambda i: text[:i] + text[i + 1:]),
    )


@settings(max_examples=60, deadline=None)
@given(text=_mutants(LIB_TEXT))
def test_mutated_liberty_parses_or_raises_parse_error(text):
    """No ValueError, IndexError, KeyError or LibertyError escapes."""
    try:
        parse_liberty(text)
    except ParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(text=_mutants(VERILOG_TEXT))
def test_mutated_verilog_parses_or_raises_parse_error(text):
    """No ValueError, IndexError, KeyError or NetlistError escapes."""
    try:
        parse_verilog(text, LIB)
    except ParseError:
        pass


SDC_TEXT = (
    "create_clock -name clk -period 1.2 [get_ports clk]\n"
    "set_clock_uncertainty 0.05 [get_clocks clk]\n"
    "set_input_delay 0.2 -clock clk \\\n"
    "    [get_ports a]\n"
    "set_output_delay 0.3 -clock clk [get_ports y]\n"
    "set_timing_derate -late 1.1\n"
    "set_false_path -from [get_cells ff] -to [get_cells u2]\n"
    "set_multicycle_path 2 -to [get_cells u*]\n"
)
SPEF_TEXT = (
    '*SPEF "repro-lite"\n*DESIGN fuzz\n'
    "*D_NET q 1.5\n*RES 0.25\n*END\n"
    "*D_NET w 2e-1\n*RES 3\n*END  // trailing comment\n"
)
PL_TEXT = "# repro placement, units nm\nff 12.5 4410.0\nu1 8731.2 1e3\n"


def _assert_parses_or_located(parse, text):
    try:
        parse(text, "fuzz.in")
    except ParseError as exc:
        assert exc.line > 0 and "fuzz.in" in str(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(text=_mutants(SDC_TEXT, _SDC_MUTATION_CHARS))
def test_mutated_sdc_parses_or_raises_located_parse_error(text):
    """No ValueError, IndexError, OverflowError or SDCError escapes."""
    _assert_parses_or_located(parse_sdc, text)


@settings(max_examples=100, deadline=None)
@given(text=_mutants(SPEF_TEXT))
def test_mutated_spef_parses_or_raises_located_parse_error(text):
    _assert_parses_or_located(parse_spef, text)


@settings(max_examples=100, deadline=None)
@given(text=_mutants(PL_TEXT))
def test_mutated_placement_parses_or_raises_located_parse_error(text):
    _assert_parses_or_located(parse_placement, text)


_CLOCK = "create_clock -name clk -period 1 [get_ports c]\n"


@pytest.mark.parametrize("parse, text, line", [
    (parse_sdc, "set_timing_derate -late abc\n", 1),
    (parse_sdc, "set_multicycle_path inf -to [get_cells a]\n", 1),
    (parse_sdc, "set_multicycle_path nan -to [get_cells a]\n", 1),
    (parse_sdc, "set_false_path -from __OBJ9__\n", 1),
    (parse_sdc, "set_false_path -from __OBJx__\n", 1),
    (parse_sdc, "create_clock -name clk -period 1 [get_ports  ]\n", 1),
    (parse_sdc, _CLOCK + _CLOCK, 2),
    (parse_sdc, _CLOCK + "set_clock_uncertainty 0.1 [get_clocks nope]\n", 2),
    (parse_sdc, "create_clock -name c -period 1e306 [get_ports c]\n", 1),
    (parse_placement, "u1 nan 2\n", 1),
    (parse_placement, "u0 1 2\nu1 1e999 2\n", 2),
    (parse_spef, "*D_NET n1 nan\n*END\n", 1),
    (parse_spef, "*D_NET n1 1\n*RES inf\n*END\n", 2),
    (parse_spef, "*D_NET n1 -5\n*END\n", 1),
])
def test_malformed_input_is_a_located_parse_error(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text, "bad.in")
    assert err.value.line == line
    assert str(err.value).startswith(f"bad.in:{line}: ")
