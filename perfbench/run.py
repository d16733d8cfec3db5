"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload signoff|closure|serve \
        --seed N --seconds S --trace 0|1

The program is the ``repro`` package under ``src/``; there is nothing to
build.  A run sets up the workload's seeded inputs (timed as
``setup_s``), warms the process up on one operation, measures whole
passes for ``--seconds``, and then checks every output in an untimed
pass.  With ``--trace 1`` it instead runs one untraced and one traced
pass over the same inputs, asserts they produce equal outputs, and
reports the per-layer table of :mod:`layers` (also written as JSON under
``.perfbench_out/``).

Human-readable lines come first, including the issue-level metric names
of each workload (``closure_tns_ps``, ``serve_latency_ms_p90``, ...) and
``error_rate``; the last line is the JSON result object.

``BENCHMARK.json`` registers ``signoff`` and ``serve``.  ``closure`` runs
the same way by hand: on a shared 2-core host its time moved by up to
60% between runs of one seed, more than any regression bound allows.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("signoff", "closure", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put ``src/`` on the path; refuse to run without the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program at {SRC / 'repro'}; run from a full "
            f"checkout of the repository"
        )
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _line(name: str, value: float, unit: str) -> str:
    return f"{name:<28} {value:>14.6g} {unit}"


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        **sizes) -> "dict":
    """One run; ``sizes`` override a workload's input sizes (self-test)."""
    import harness

    harness.pin_environment()
    import workloads
    from layers import LAYER_METRICS, LayerTracer

    harness.reset_process_state()
    workdir = WORK / f"{workload_name}-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[workload_name](seed, workdir, **sizes)
        setup_seconds = workload.setup()
        workload.warm_up()
        harness.reset_process_state()
        # The inputs live for the whole run; frozen, the collector stops
        # rescanning them on every full collection inside a timed op.
        gc.collect()
        gc.freeze()
        if trace:
            baseline = workload.run_pass()
            with LayerTracer() as tracer:
                traced = workload.run_pass()
            passes = [baseline]
        else:
            passes = harness.measure(workload, seconds)
        peak_rss = harness.peak_rss_mb()
        wrong = workload.check(passes)
        if trace:
            for index, (a, b) in enumerate(zip(baseline.ops, traced.ops)):
                if a.ok != b.ok or (a.ok and a.output != b.output):
                    wrong.append(f"op {index} ({a.label}): traced output "
                                 f"differs from untraced")
        ops = [op for one in passes for op in one.ops]
        errors = [f"{op.label}: {op.error}" for op in ops if not op.ok]
        attempted = len(ops)
        failed = len(errors) + len(wrong)
        print(json.dumps({"environment": harness.environment_record(),
                          "workload": workload_name, "seed": seed}))
        for message in errors + wrong:
            print(f"FAILED {message}")
        end_to_end = {
            "setup_s": (statistics.median(setup_seconds), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "op_ms_p50": (
                statistics.median(harness.op_latencies_ms(passes)), "ms"
            ),
            "pass_ratio": (workload.pass_ratio(passes), "ratio"),
        }
        print(f"# {workload_name}: {len(passes)} pass(es), {attempted} ops, "
              f"{failed} failed")
        for name, (value, unit) in end_to_end.items():
            print(_line(name, value, unit))
        for name, value, unit in workload.report(passes):
            print(_line(name, value, unit))
        print(_line("error_rate", failed / attempted if attempted else 1.0,
                    "failed/attempted"))
        if trace:
            for site in tracer.missing:
                print(f"# layer site not found, its metrics read 0: {site}")
            overhead = traced.seconds / baseline.seconds - 1.0
            layer_values = tracer.metrics(traced.ops, overhead)
            table = [
                {**row, "value": layer_values[row["name"]]}
                for row in LAYER_METRICS
            ]
            OUT.mkdir(exist_ok=True)
            out_path = OUT / f"layers-{workload_name}-{seed}.json"
            out_path.write_text(json.dumps(table, indent=1) + "\n")
            print(json.dumps({"layers": table}))
            metrics = {
                row["name"]: {"value": layer_values[row["name"]],
                              "unit": row["unit"]}
                for row in LAYER_METRICS
            }
        else:
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in end_to_end.items()
            }
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
