"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload once at a tiny size and asserts that

1. every end-to-end metric of ``BENCHMARK.json`` is emitted, finite and
   carries its declared unit, and the traced run emits every per-layer
   metric the same way;
2. every per-layer metric names the metric and workload it should move
   -- an end-to-end metric, or one of that workload's printed report
   lines (``obs.trace_overhead`` alone is reported only) -- and the
   per-layer table matches ``BENCHMARK.json``;
3. an output corrupted on purpose is caught by each workload's check,
   so ``error_rate`` rises above 0.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import run

#: Tiny input sizes per workload (a few seconds each).
TINY = {
    "signoff": {"shapes": ("D4",), "scale": 0.25},
    "closure": {"designs": 1, "budget": 3, "scale": 0.5},
    "serve": {
        "shapes": ("D1", "D1"), "popularity": (2, 1), "scale": 0.5,
        "verbs": (("sta", 3), ("explain", 1), ("pba_slacks", 1),
                  ("mgba_fit", 1), ("scenario_sweep", 1), ("what_if", 1),
                  ("min_period", 1)),
    },
}


def _check_metrics(result: dict, declared: "list[dict]", label: str) \
        -> "list[str]":
    problems = []
    metrics = result["metrics"]
    for row in declared:
        got = metrics.get(row["name"])
        if got is None:
            problems.append(f"{label}: {row['name']} not emitted")
        elif got["unit"] != row["unit"]:
            problems.append(f"{label}: {row['name']} unit {got['unit']!r}")
        elif not (isinstance(got["value"], (int, float))
                  and math.isfinite(got["value"])):
            problems.append(f"{label}: {row['name']} not finite")
    extra = set(metrics) - {row["name"] for row in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: clean run reported failures")
    return problems


def _corrupt(workload, passes) -> None:
    """Falsify one recorded output of the first pass in place."""
    op = next(op for op in passes[0].ops if op.ok and op.output is not None)
    output = op.output
    if workload.name == "signoff":
        name, slack = output.gba.slacks[0]
        output.gba = replace(
            output.gba, slacks=((name, slack + 1.0),) + output.gba.slacks[1:]
        )
    elif workload.name == "closure":
        op.output = replace(output, tns_after=output.tns_after - 1.0)
    else:
        op.output = replace(output, design=output.design + "_corrupt")


def main() -> int:
    run._import_program()
    import harness
    import workloads
    from layers import LAYER_METRICS

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_names = {row["name"] for row in bench["end_to_end"]}
    problems: "list[str]" = []

    # 1. every metric emitted, finite, with its unit
    for name, sizes in TINY.items():
        result = run.run(name, seed=7, seconds=0.1, trace=False, **sizes)
        problems += _check_metrics(result, bench["end_to_end"], name)
    traced = run.run("serve", seed=7, seconds=0.1, trace=True,
                     **TINY["serve"])
    problems += _check_metrics(traced, bench["per_layer"], "serve traced")

    # 3. a corrupted output is caught
    harness.pin_environment()
    targets = {name: set(e2e_names) for name in workloads.WORKLOADS}
    for name, sizes in TINY.items():
        workdir = run.WORK / f"selftest-{name}-{time.time_ns()}"
        workdir.mkdir(parents=True)
        try:
            workload = workloads.WORKLOADS[name](7, workdir, **sizes)
            workload.setup()
            passes = [workload.run_pass()]
            targets[name] |= {line[0] for line in workload.report(passes)}
            if workload.check(passes):
                problems.append(f"{name}: clean pass flagged")
            corrupted = copy.copy(passes)
            _corrupt(workload, corrupted)
            if not workload.check(corrupted):
                problems.append(f"{name}: corrupted output not caught")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    # 2. the per-layer table is mapped and matches BENCHMARK.json
    declared = [
        {k: row[k] for k in ("name", "unit", "better")}
        for row in LAYER_METRICS
    ]
    if declared != bench["per_layer"]:
        problems.append("per-layer table differs from BENCHMARK.json")
    for row in LAYER_METRICS:
        if row["name"] == "obs.trace_overhead":
            continue
        if not row["moves"]:
            problems.append(f"{row['name']}: names no metric it moves")
        for move in row["moves"]:
            if move["metric"] not in targets.get(move["workload"], ()):
                problems.append(f"{row['name']}: unknown target {move}")

    for problem in problems:
        print(f"SELFTEST FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
