"""Fit solver vs problem size: the table behind ``solver="auto"``.

The paper built SCG with row sampling (Algorithms 1 and 2) for fits of
up to 10^8 path rows.  The fits this repository runs are far smaller,
so the flow's default picks its solver by size: the bounded direct
solve (``repro.mgba.solvers.direct``) on problems whose Gram product
``A^T A`` takes at most ``AUTO_DIRECT_MAX_GRAM_MULTIPLIES`` multiplies,
SCG + RS above.  This bench
measures both solvers on every committed row of EXPERIMENTS.md's "Fit
solver vs problem size" table:

* D1-D10 at k' = 20 and k' = 100 (per-endpoint worst paths);
* the 16 perfbench ``signoff`` problems at seed 0: D4/D8/D9/D10 shapes
  at a fifth of the suite's flop count, each design written to its
  five text files and parsed back, as the workload does.

Per row: the Gram product's multiplies (the size the rule reads) and
the solver ``"auto"`` picks; per solver: time (min of 3), objective,
pass ratio and iterations (Newton steps for ``direct``).  Asserted:
``direct``'s pass ratio is never below SCG + RS's.  Times are printed,
never asserted.

``REPRO_BENCH_DESIGNS`` narrows the suite rows; the signoff rows always
run.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from repro.aocv import table as aocv_table
from repro.designs.generator import generate_design, scaled_spec
from repro.designs.suite import DESIGN_SPECS
from repro.liberty.parser import parse_liberty
from repro.liberty.writer import write_liberty
from repro.mgba.flow import (
    AUTO_DIRECT_MAX_GRAM_MULTIPLIES,
    MGBAConfig,
    MGBAFlow,
)
from repro.mgba.metrics import pass_ratio
from repro.mgba.problem import build_problem
from repro.mgba.solvers import solve_direct, solve_with_row_sampling
from repro.netlist import plfile, verilog
from repro.pba.engine import PBAEngine
from repro.sdc.parser import parse_sdc
from repro.sdc.writer import write_sdc
from repro.timing import kernel
from repro.timing.sta import STAConfig, STAEngine

from benchmarks.conftest import bench_design_names, print_table

#: perfbench's signoff workload: shapes, flop scale, seed-0 design draw.
SIGNOFF_SHAPES = ("D4", "D8", "D9", "D10") * 4
SIGNOFF_SCALE = 0.2
SIGNOFF_SEED = 0
REPEATS = 3


def _problem(engine: STAEngine, k: int):
    engine.ensure_timing()
    flow = MGBAFlow(MGBAConfig(k_per_endpoint=k, seed=0))
    pba = PBAEngine(engine)
    paths = flow.select_paths(pba)
    pba.analyze(paths)
    return build_problem([p for p in paths if not p.is_false])


def _round_trip_engine(design) -> STAEngine:
    """The engine perfbench's signoff op builds from the written files."""
    library = parse_liberty(write_liberty(design.netlist.library))
    netlist = verilog.parse_verilog(
        verilog.write_verilog(design.netlist), library
    )
    config = STAConfig(derating_table=aocv_table.parse_aocv(
        aocv_table.write_aocv(design.derating_table)
    ))
    return STAEngine(
        netlist, parse_sdc(write_sdc(design.constraints)),
        plfile.parse_placement(plfile.write_placement(design.placement)),
        config,
    )


def signoff_problems():
    """``(label, problem)`` of the 16 seed-0 perfbench signoff fits."""
    rng = random.Random(f"signoff:{SIGNOFF_SEED}")
    seeds = [rng.randrange(1, 2**31 - 1) for _ in SIGNOFF_SHAPES]
    out = []
    for index, (shape, seed) in enumerate(zip(SIGNOFF_SHAPES, seeds)):
        name = f"signoff{index}_{shape.lower()}"
        spec = scaled_spec(
            replace(DESIGN_SPECS[shape], name=name, seed=seed),
            SIGNOFF_SCALE,
        )
        design = generate_design(spec)
        # As perfbench does before each op: no layout the generator's
        # own engine left behind may serve the parsed netlist.
        kernel.clear_layout_cache()
        out.append((name, _problem(_round_trip_engine(design), 20)))
    return out


def _measure(problem, solve):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = solve(problem)
        best = min(best, time.perf_counter() - start)
    ratio = pass_ratio(problem.corrected_slacks(result.x), problem.s_pba)
    return best, result, ratio


def _rows(label, problem):
    t_d, r_d, p_d = _measure(problem, solve_direct)
    t_s, r_s, p_s = _measure(
        problem, lambda p: solve_with_row_sampling(p, seed=0)
    )
    row = [
        label, f"{problem.num_paths}x{problem.num_gates}",
        f"{problem.gram_multiplies / 1e6:.2f}",
        MGBAConfig().solver_for(problem),
        f"{t_s*1e3:.1f}", f"{r_s.objective:.3g}", f"{p_s:.4f}",
        f"{r_s.iterations}",
        f"{t_d*1e3:.1f}", f"{r_d.objective:.3g}", f"{p_d:.4f}",
        f"{r_d.iterations}", f"{t_s / t_d:.2f}",
    ]
    return row, (problem.gram_multiplies, t_s, t_d, p_s, p_d)


def test_fit_solver_vs_problem_size(benchmark, engine_cache):
    cases = []
    for name in bench_design_names():
        for k in (20, 100):
            cases.append((f"{name} k'={k}", _problem(engine_cache(name), k)))
    cases += signoff_problems()

    benchmark.pedantic(
        solve_direct, args=(cases[0][1],), rounds=1, iterations=1,
    )

    rows, stats = [], []
    for label, problem in cases:
        row, stat = _rows(label, problem)
        rows.append(row)
        stats.append(stat)
    print_table(
        "Fit solver vs problem size (time: min of 3)",
        ["problem", "m x n", "A^T A Mmul", "auto",
         "scg+rs ms", "obj", "pass", "iters",
         "direct ms", "obj", "pass", "steps", "rs/direct"],
        rows,
        note=(
            f"solver='auto' runs direct up to "
            f"{AUTO_DIRECT_MAX_GRAM_MULTIPLIES / 1e6:g}e6 Gram "
            "multiplies, scg+rs above."
        ),
    )
    slower = [g for g, t_s, t_d, _, _ in stats if t_d >= t_s]
    print(f"smallest row slower under direct: "
          f"{min(slower, default=0) / 1e6:.2f}e6 Gram multiplies")
    assert all(p_d >= p_s for *_, p_s, p_d in stats)
