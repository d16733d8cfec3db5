#!/usr/bin/env python3
"""Race the mGBA solvers on one design (the Table 4 experiment, solo).

Builds the fitting problem for a suite design and runs all four
solvers — the bounded direct solve (exact, projected Newton), full
gradient descent, stochastic CG (Algorithm 2), and uniform row sampling
+ SCG (Algorithm 1) — printing accuracy and wall clock for each.

Run:  python examples/solver_race.py [design] [k_per_endpoint]
"""

import sys
import time

from repro import (
    PBAEngine,
    STAEngine,
    build_design,
    build_problem,
    enumerate_worst_paths,
    mse,
    solve_direct,
    solve_gd,
    solve_scg,
    solve_with_row_sampling,
)


def main() -> None:
    design_name = sys.argv[1] if len(sys.argv) > 1 else "D6"
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 60

    design = build_design(design_name)
    engine = STAEngine(
        design.netlist, design.constraints,
        design.placement, design.sta_config,
    )
    engine.update_timing()
    paths = enumerate_worst_paths(engine.graph, engine.state, k)
    PBAEngine(engine).analyze(paths)
    problem = build_problem(paths)
    print(f"{design_name}: {problem.num_paths} paths x "
          f"{problem.num_gates} gates, "
          f"{problem.matrix.nnz} nonzeros")
    print(f"GBA baseline mse (Eq. 12): "
          f"{mse(problem.s_gba, problem.s_pba):.3e}\n")

    solvers = [
        ("direct (bounded Newton)", lambda: solve_direct(problem)),
        ("GD   + w/o RS", lambda: solve_gd(problem)),
        ("SCG  + w/o RS (Alg. 2)", lambda: solve_scg(problem, seed=0)),
        ("SCG  + RS (Alg. 1+2)",
         lambda: solve_with_row_sampling(problem, seed=0)),
    ]
    print(f"{'solver':<26} {'mse':>10} {'time':>8} {'iters':>7} "
          f"{'speedup vs GD':>14}")
    gd_time = None
    for name, run in solvers:
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        if name.startswith("GD"):
            gd_time = elapsed
        accuracy = mse(problem.corrected_slacks(result.x), problem.s_pba)
        speedup = f"{gd_time/elapsed:.2f}x" if gd_time else "-"
        print(f"{name:<26} {accuracy:>10.2e} {elapsed:>7.2f}s "
              f"{result.iterations:>7} {speedup:>14}")

    print("\nPaper's Table 4 averages: SCG 2.71x, SCG+RS 13.82x over GD "
          "at comparable accuracy.")


if __name__ == "__main__":
    main()
