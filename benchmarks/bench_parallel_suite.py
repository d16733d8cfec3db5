"""D-suite fan-out bench: serial vs parallel design evaluation.

The coarsest parallel axis in the system — each design's build + STA +
mGBA fit is independent — fanned across process workers by
:func:`repro.service.suite.evaluate_suite`.  Two claims are exercised:

* **equivalence** (hard-asserted, here and by the ``bench-smoke`` CI
  gate): every deterministic field of every per-design report is
  bit-identical between the serial and parallel runs;
* **speedup** (logged, never flaky-gated): on a multi-core runner the
  process backend should beat serial by > 1.5x; on a single-core box
  (or with ``REPRO_BENCH_DESIGNS=D1``) process overhead wins instead,
  which is exactly the tradeoff ``docs/parallelism.md`` documents.

Also runnable as a script for CI::

    python benchmarks/bench_parallel_suite.py --check --workers 4
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.parallel import SerialExecutor, get_executor
from repro.service.suite import evaluate_suite

from benchmarks.conftest import bench_design_names, print_table

#: mGBA knobs kept small so the bench stays smoke-test sized.
K_PER_ENDPOINT = 10


def _run_suite(names, executor):
    start = time.perf_counter()
    reports = evaluate_suite(
        names, mgba=True, k_per_endpoint=K_PER_ENDPOINT, seed=0,
        executor=executor,
    )
    return reports, time.perf_counter() - start


def compare_serial_parallel(names, workers: int):
    """(serial reports, process reports, table rows, wall clocks)."""
    serial, serial_wall = _run_suite(names, SerialExecutor())
    parallel, parallel_wall = _run_suite(
        names, get_executor(workers, "process")
    )
    rows = []
    for s, p in zip(serial, parallel):
        rows.append([
            s.name, s.endpoints, s.violations,
            f"{s.pass_ratio_gba:.2%}", f"{s.pass_ratio_mgba:.2%}",
            f"{s.seconds:.2f}", f"{p.seconds:.2f}",
            "ok" if s.comparable() == p.comparable() else "DIVERGED",
        ])
    return serial, parallel, rows, (serial_wall, parallel_wall)


def divergences(serial, parallel):
    """Names of designs whose deterministic fields differ."""
    return [
        s.name for s, p in zip(serial, parallel)
        if s.comparable() != p.comparable()
    ]


def test_parallel_suite_fanout(benchmark):
    """Serial vs process fan-out over the suite: identical, speedup logged."""
    names = bench_design_names()
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))

    benchmark.pedantic(
        evaluate_suite, args=(names[:1],),
        kwargs={"mgba": True, "k_per_endpoint": K_PER_ENDPOINT,
                "executor": SerialExecutor()},
        rounds=1, iterations=1,
    )

    serial, parallel, rows, (serial_wall, parallel_wall) = \
        compare_serial_parallel(names, workers)
    speedup = serial_wall / parallel_wall if parallel_wall > 0 else 0.0
    print_table(
        f"D-suite fan-out: serial vs process x{workers} "
        f"(k'={K_PER_ENDPOINT})",
        ["design", "endpoints", "viol",
         "pass GBA", "pass mGBA", "serial s", "parallel s", "equal"],
        rows,
        note=(
            f"wall: serial {serial_wall:.2f}s, parallel {parallel_wall:.2f}s "
            f"-> speedup {speedup:.2f}x over {len(names)} design(s) "
            f"({os.cpu_count()} CPUs).  Speedup is logged, not asserted; "
            f"bit-equality is asserted."
        ),
    )
    assert not divergences(serial, parallel)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="D-suite fan-out: serial vs process evaluation",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--designs", default="",
        help="comma-separated subset (default: REPRO_BENCH_DESIGNS or all)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when serial and parallel results diverge",
    )
    args = parser.parse_args(argv)
    names = (
        [n.strip() for n in args.designs.split(",") if n.strip()]
        or bench_design_names()
    )
    serial, parallel, rows, (serial_wall, parallel_wall) = \
        compare_serial_parallel(names, args.workers)
    speedup = serial_wall / parallel_wall if parallel_wall > 0 else 0.0
    print_table(
        f"D-suite fan-out: serial vs process x{args.workers}",
        ["design", "endpoints", "viol",
         "pass GBA", "pass mGBA", "serial s", "parallel s", "equal"],
        rows,
    )
    print(
        f"wall: serial {serial_wall:.2f}s, parallel {parallel_wall:.2f}s, "
        f"speedup {speedup:.2f}x ({os.cpu_count()} CPUs)"
    )
    bad = divergences(serial, parallel)
    if bad:
        print(f"FAIL: serial-vs-parallel divergence on {bad}",
              file=sys.stderr)
        return 1
    print("serial-vs-parallel equivalence: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
