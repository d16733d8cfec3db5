"""Parse-layer bench: Liberty-lite and structural Verilog, round trip asserted.

The cold sign-off path (perfbench's ``signoff`` op) parses five text
files per design, and the Liberty library and the netlist are the two
large ones.  This bench times :func:`repro.liberty.parser.parse_liberty`
on ``write_liberty(make_default_library())`` and
:func:`repro.netlist.verilog.parse_verilog` on each
``REPRO_BENCH_DESIGNS`` netlist, parsed against the parsed library the
way sign-off does.  Writing each parsed result back must give the input
text byte for byte; wall times are logged (min of :data:`ROUNDS`) and,
through the conftest, land in the bench history, never flaky-gated.

The texts are built in a module fixture, so the bench's recorded wall
time is parsing (and the write-back check), not design generation::

    REPRO_BENCH_DESIGNS=D1,D9 PYTHONPATH=src python -m pytest -q \\
        benchmarks/bench_parse.py --benchmark-only -s
"""

from __future__ import annotations

import time

import pytest

from repro.designs.suite import build_design
from repro.liberty.builder import make_default_library
from repro.liberty.parser import parse_liberty
from repro.liberty.writer import write_liberty
from repro.netlist.verilog import parse_verilog, write_verilog

from benchmarks.conftest import bench_design_names, print_table

#: Timed repeats per file; the table reports the fastest.
ROUNDS = 5


@pytest.fixture(scope="module")
def parse_inputs():
    """(Liberty text, [(design, Verilog text)]) for the bench designs."""
    library_text = write_liberty(make_default_library())
    netlists = [
        (name, write_verilog(build_design(name).netlist))
        for name in bench_design_names()
    ]
    return library_text, netlists


def _best_ms(parse) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        parse()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def test_parse_liberty_and_verilog(benchmark, parse_inputs):
    """Byte-identical write-back asserted on every file; times logged."""
    library_text, netlists = parse_inputs

    def _parse_all():
        library = parse_liberty(library_text, "default.lib")
        return library, [
            parse_verilog(text, library, f"{name}.v")
            for name, text in netlists
        ]

    library, parsed = benchmark.pedantic(_parse_all, rounds=1, iterations=1)
    assert write_liberty(library) == library_text
    for (name, text), netlist in zip(netlists, parsed):
        assert write_verilog(netlist) == text, name

    rows = [[
        "default.lib", f"{len(library_text) / 1024:.0f}",
        f"{_best_ms(lambda: parse_liberty(library_text)):.1f}",
    ]]
    for name, text in netlists:
        rows.append([
            f"{name}.v", f"{len(text) / 1024:.0f}",
            f"{_best_ms(lambda: parse_verilog(text, library)):.1f}",
        ])
    print_table(
        "Parse layer: Liberty-lite and structural Verilog",
        ["file", "KiB", f"parse ms (min of {ROUNDS})"], rows,
        note=(
            "Each parsed file written back equals its input byte for "
            "byte (asserted); times are logged, not asserted."
        ),
    )
