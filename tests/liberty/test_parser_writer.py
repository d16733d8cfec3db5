"""Liberty-lite parser/writer tests, including the full round trip."""

import numpy as np
import pytest

from repro.errors import LibertyError, ParseError
from repro.liberty.builder import make_default_library, make_unit_delay_library
from repro.liberty.parser import parse_group_tree, parse_liberty
from repro.liberty.writer import _fmt, write_liberty

MINIMAL = """
library (mini) {
  cell (INV_X1) {
    area : 0.5;
    cell_leakage_power : 1.5;
    drive_strength : 1;
    cell_footprint : "INV";
    pin (A) {
      direction : input;
      capacitance : 1.0;
    }
    pin (Z) {
      direction : output;
      max_capacitance : 64;
      timing () {
        related_pin : "A";
        timing_type : combinational;
        cell_rise (tmpl) {
          index_1 ("5, 20");
          index_2 ("1, 4");
          values ("10, 11", "12, 13");
        }
        rise_transition (tmpl) {
          index_1 ("5, 20");
          index_2 ("1, 4");
          values ("3, 4", "5, 6");
        }
      }
    }
  }
}
"""


class TestGenericGroups:
    def test_nested_groups_and_attributes(self):
        root = parse_group_tree("a (x) { k : v; b (y) { j : 2; } }")
        assert root.kind == "a" and root.args == ["x"]
        assert root.attributes == {"k": "v"}
        assert root.subgroups[0].attributes == {"j": "2"}

    def test_complex_attribute(self):
        root = parse_group_tree('t () { values ("1, 2", "3"); }')
        assert root.complex_attributes["values"] == ["1, 2", "3"]

    def test_comments_ignored(self):
        root = parse_group_tree("a () { /* noise \n more */ k : 1; }")
        assert root.attributes == {"k": "1"}

    def test_unterminated_group(self):
        with pytest.raises(ParseError):
            parse_group_tree("a () { k : 1;")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_group_tree("a () { } junk")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_group_tree("a () {\n  ? ;\n}")
        assert err.value.line >= 2

    def test_group_lines_golden(self):
        """Comments and strings that span lines still count their lines."""
        text = (
            "library (l) {\n"
            "  /* a comment\n"
            "     over two lines */ cell (c) {\n"
            '    note : "a string\n'
            'over two lines";\n'
            "    pin (A) { k (\"1,\n2\"); }\n"
            "    pin\n"
            "    (B) { }\n"
            "  }\n"
            "  cell (d) { }\n"
            "}\n"
        )
        root = parse_group_tree(text)

        def lines(group):
            return [(group.kind, group.args, group.line)] + [
                row for sub in group.subgroups for row in lines(sub)
            ]

        assert lines(root) == [
            ("library", ["l"], 1),
            ("cell", ["c"], 3),
            ("pin", ["A"], 6),
            ("pin", ["B"], 8),
            ("cell", ["d"], 11),
        ]
        cell = root.subgroups[0]
        assert cell.attributes == {"note": "a string\nover two lines"}
        assert cell.subgroups[0].complex_attributes == {"k": ["1,\n2"]}
        with pytest.raises(ParseError) as err:
            parse_group_tree(text + "/* one\n */ ?")
        assert str(err.value) == "<string>:14: trailing input '?'"

    def test_quoted_punctuation_is_not_punctuation(self):
        root = parse_group_tree('a ("}") { k : "{" ";"; v ("(", ")"); }')
        assert root.args == ["}"]
        assert root.attributes == {"k": "{ ;"}
        assert root.complex_attributes == {"v": ["(", ")"]}

    def test_unclosed_quote_is_located(self):
        with pytest.raises(ParseError) as err:
            parse_group_tree('a () {\n  k : "v;\n}')
        assert str(err.value) == "<string>:2: unexpected character '\"'"


class TestSemantic:
    def test_minimal_library(self):
        lib = parse_liberty(MINIMAL)
        cell = lib.cell("INV_X1")
        assert cell.area == 0.5
        assert cell.footprint == "INV"
        arc = cell.arc_between("A", "Z")
        assert arc.delay.lookup(5, 1) == 10.0
        assert arc.delay.lookup(20, 4) == 13.0

    def test_top_group_must_be_library(self):
        with pytest.raises(ParseError):
            parse_liberty("cell (x) { }")

    def test_bad_direction(self):
        text = MINIMAL.replace("direction : input;", "direction : sideways;")
        with pytest.raises(ParseError):
            parse_liberty(text)

    def test_missing_related_pin(self):
        text = MINIMAL.replace('related_pin : "A";', "")
        with pytest.raises(ParseError):
            parse_liberty(text)

    @pytest.mark.parametrize("old, new, line, cause", [
        # A malformed number, at its group's line (the cell's).
        ("area : 0.5;", "area : abc;", 3, ValueError),
        ("capacitance : 1.0;", "capacitance : 1.O;", 8, ValueError),
        ('values ("10, 11", "12, 13");', 'values ("10, x1", "12, 13");',
         18, ValueError),
        # Ragged rows and a bad axis, at the table group's line.
        ('values ("10, 11", "12, 13");', 'values ("10, 11", "12");',
         18, None),
        ('index_1 ("5, 20");', 'index_1 ("20, 5");', 18, LibertyError),
        # The data model's own checks: a duplicate pin, an arc to a
        # pin the cell lacks.
        ("pin (Z) {", "pin (A) {", 12, LibertyError),
        ('related_pin : "A";', 'related_pin : "Q";', 15, LibertyError),
    ])
    def test_bad_values_are_located_parse_errors(self, old, new, line,
                                                  cause):
        text = MINIMAL.replace(old, new, 1)
        with pytest.raises(ParseError) as err:
            parse_liberty(text, "mini.lib")
        assert (err.value.filename, err.value.line) == ("mini.lib", line)
        if cause is not None:
            assert isinstance(err.value.__cause__, cause)

    def test_duplicate_cell_is_located(self):
        body = MINIMAL.strip()[len("library (mini) {"):-1]
        text = "library (mini) {" + body + body + "}"
        second = text[:text.rindex("cell (INV_X1)")].count("\n") + 1
        with pytest.raises(ParseError) as err:
            parse_liberty(text, "mini.lib")
        assert err.value.line == second
        assert "duplicate cell INV_X1" in str(err.value)


def _as_written(array):
    """The array as the writer's decimal text reads back."""
    return np.array(
        [float(_fmt(v)) for v in array.ravel()]
    ).reshape(array.shape)


def _tables(cell):
    """Every table of a cell, keyed by its arc and role."""
    tables = {}
    for arc in cell.arcs:
        key = (arc.from_pin, arc.to_pin, arc.kind)
        tables[key + ("delay",)] = arc.delay
        if arc.output_slew is not None:
            tables[key + ("output_slew",)] = arc.output_slew
    return tables


def _assert_same_library(a, b):
    """``b`` is ``a`` read back: every table bit equals the written text."""
    assert set(a.cells) == set(b.cells)
    for name, cell_a in a.cells.items():
        cell_b = b.cells[name]
        assert cell_a.area == pytest.approx(cell_b.area)
        assert cell_a.leakage == pytest.approx(cell_b.leakage)
        assert cell_a.footprint == cell_b.footprint
        assert cell_a.is_sequential == cell_b.is_sequential
        assert cell_a.is_buffer == cell_b.is_buffer
        assert set(cell_a.pins) == set(cell_b.pins)
        for pin_name, pin_a in cell_a.pins.items():
            pin_b = cell_b.pins[pin_name]
            assert pin_a.direction == pin_b.direction
            assert pin_a.capacitance == pytest.approx(pin_b.capacitance)
            assert pin_a.is_clock == pin_b.is_clock
        assert len(cell_a.arcs) == len(cell_b.arcs)
        tables_a, tables_b = _tables(cell_a), _tables(cell_b)
        assert tables_a.keys() == tables_b.keys()
        for key, table_a in tables_a.items():
            for axis in ("rows", "cols", "values"):
                want = _as_written(getattr(table_a, axis))
                got = getattr(tables_b[key], axis)
                assert got.dtype == want.dtype, (name, key, axis)
                assert got.shape == want.shape, (name, key, axis)
                assert got.tobytes() == want.tobytes(), (name, key, axis)


class TestRoundTrip:
    def test_default_library_round_trips(self):
        lib = make_default_library()
        _assert_same_library(lib, parse_liberty(write_liberty(lib)))

    def test_unit_library_round_trips(self):
        lib = make_unit_delay_library()
        _assert_same_library(lib, parse_liberty(write_liberty(lib)))

    def test_double_round_trip_is_stable(self):
        lib = make_default_library()
        once = write_liberty(parse_liberty(write_liberty(lib)))
        assert once == write_liberty(lib)
