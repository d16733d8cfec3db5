"""Per-level table lookups over mixed table shapes, against the oracle.

The vector kernel looks up each level's cell arcs in one call: arcs
whose delay and slew tables share an axis pair interpolate from one
stacked grid, and the rest go table pair by table pair.  This library
mixes the generated library's shared 4x4 axes with a second axis pair,
1x1 constant tables, one-row and one-column tables, and a pair whose
delay and slew tables have different axes.  Every delay, slew and
arrival must equal the scalar engine's: a full update, a weighted one,
and a scenario stack.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.designs.generator import generate_design
from repro.liberty.cell import ArcKind
from repro.liberty.lut import LookupTable2D, TableStack
from repro.timing.scenarios import ScenarioStack
from repro.timing.sta import STAEngine
from tests.conftest import MEDIUM_SPEC
from tests.timing.test_scenarios import _assert_engines_identical

OTHER_ROWS = [3.0, 12.0, 40.0, 90.0, 200.0]
OTHER_COLS = [0.5, 6.0, 30.0]


def _regrid(table: LookupTable2D, rows, cols) -> LookupTable2D:
    """The table resampled on new breakpoints (scalar lookups)."""
    return LookupTable2D(
        np.asarray(rows), np.asarray(cols),
        [[table.lookup(r, c) for c in cols] for r in rows],
    )


def _reshape(table: LookupTable2D, shape: str) -> LookupTable2D:
    if shape == "other_axes":
        return _regrid(table, OTHER_ROWS, OTHER_COLS)
    if shape == "constant":
        return LookupTable2D.constant(table.lookup(20.0, 5.0))
    if shape == "one_row":
        return _regrid(table, [30.0], table._cols_list)
    if shape == "one_column":
        return _regrid(table, table._rows_list, [8.0])
    return table


#: Table shapes dealt out to the design's combinational cells in turn:
#: (delay table, output-slew table).
SHAPES = (
    ("shared", "shared"),
    ("other_axes", "other_axes"),
    ("constant", "constant"),
    ("one_row", "one_row"),
    ("one_column", "one_column"),
    ("other_axes", "shared"),
)


@pytest.fixture(scope="module")
def design():
    """The medium design on its own library, with reshaped tables."""
    design = generate_design(MEDIUM_SPEC)
    netlist = design.netlist
    cells = sorted({netlist.cell_of(gate).name for gate in netlist.gates})
    dealt = 0
    for name in cells:
        cell = netlist.library.cell(name)
        arcs = [
            arc for arc in cell.delay_arcs()
            if arc.kind is ArcKind.COMBINATIONAL
        ]
        if not arcs:
            continue
        delay_shape, slew_shape = SHAPES[dealt % len(SHAPES)]
        dealt += 1
        for arc in arcs:
            arc.delay = _reshape(arc.delay, delay_shape)
            arc.output_slew = _reshape(arc.output_slew, slew_shape)
    assert dealt >= 2 * len(SHAPES)
    return design


def _engine(design, kernel, **overrides) -> STAEngine:
    return STAEngine(
        design.netlist, design.constraints, design.placement,
        replace(design.sta_config, kernel=kernel, **overrides),
    )


def _weights(design) -> "dict[str, float]":
    gates = sorted(design.netlist.gates)
    return {gate: 0.9 + 0.02 * (i % 7) for i, gate in enumerate(gates)}


def test_levels_mix_stacks_and_table_pairs(design):
    """The fixture exercises every kind of segment within levels."""
    engine = _engine(design, "vector")
    engine.update_timing()
    stacks = set()
    pairs = 0
    mixed_levels = 0
    for arcs in engine._layout.cell_groups(engine.graph):
        if arcs is None:
            continue
        segments = arcs.tables.segments
        mixed_levels += len(segments) > 1
        for _, _, tables, _ in segments:
            if isinstance(tables, TableStack):
                stacks.add(id(tables))
            else:
                pairs += 1
    assert len(stacks) == 2  # the shared axes and the second pair
    assert pairs and mixed_levels


def test_full_update_matches_scalar(design):
    vector, scalar = _engine(design, "vector"), _engine(design, "scalar")
    vector.update_timing()
    scalar.update_timing()
    _assert_engines_identical(vector, scalar)


def test_weighted_update_matches_scalar(design):
    vector, scalar = _engine(design, "vector"), _engine(design, "scalar")
    for engine in (vector, scalar):
        engine.update_timing()
        engine.set_gate_weights(_weights(design))
        engine.update_timing()
    _assert_engines_identical(vector, scalar)


def test_scenario_stack_matches_scalar(design):
    scales = (0.9, 1.0, 1.2)
    stacked = [_engine(design, "vector", delay_scale=s) for s in scales]
    alone = [_engine(design, "scalar", delay_scale=s) for s in scales]
    for engines in (stacked, alone):
        engines[1].set_gate_weights(_weights(design))
    ScenarioStack.from_engines(stacked).update_all()
    for vector, scalar in zip(stacked, alone):
        scalar.update_timing()
        _assert_engines_identical(vector, scalar)
