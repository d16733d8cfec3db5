"""Scalar-vs-vector STA kernel bench: equivalence asserted, speedup logged.

Two workloads per design, mirroring how the system actually calls
``update_timing``:

* **cold** — first full update on a fresh engine (layout build + delay
  calc + propagation), plus a **hydrated** variant where the levelized
  layout is rehydrated from the on-disk ``layout/`` store instead of
  rebuilt (see :func:`repro.timing.kernel.set_layout_disk_store`), and
  a **cold + build** column per kernel that also counts
  ``STAEngine(...)`` construction (timing-graph build, depths,
  derates) — what every new engine pays before its first answer;
* **weighted loop** — the mGBA solver pattern: ``set_gate_weights``
  followed by a full update, repeated.  Weights only move the derate
  arrays, so the vector kernel's flow cache answers these with an
  arrival-only sweep — this is the speedup the paper's Fig. 5 loop
  feels.

Equivalence is hard-asserted (bit-identical arrivals, slews, edge
delays and out-slews on live edges, and equal slack maps, here and in
the CI ``bench-smoke`` gate); wall-clock speedups are logged, never
flaky-gated.

Also runnable as a script for CI::

    python -m benchmarks.bench_sta_kernel --check --iterations 4
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from repro.designs.suite import build_design
from repro.timing.sta import STAEngine

from benchmarks.conftest import bench_design_names, print_table

#: Weighted-update iterations per design (the mGBA loop depth).
DEFAULT_ITERATIONS = 6


def _engine(design, kernel: str) -> STAEngine:
    return STAEngine(
        design.netlist, design.constraints, design.placement,
        replace(design.sta_config, kernel=kernel),
    )


def _weights(netlist, round_no: int) -> dict[str, float]:
    gates = sorted(netlist.gates)
    return {
        g: 1.0 + 0.001 * ((round_no + j) % 11)
        for j, g in enumerate(gates)
    }


def _run_kernel(design, kernel: str, iterations: int):
    """(engine, build seconds, cold seconds, weighted-loop seconds per
    iteration); build is ``STAEngine(...)`` construction alone."""
    start = time.perf_counter()
    engine = _engine(design, kernel)
    build = time.perf_counter() - start
    start = time.perf_counter()
    engine.update_timing()
    cold = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(iterations):
        engine.set_gate_weights(_weights(engine.netlist, i))
        engine.update_timing()
    loop = (time.perf_counter() - start) / max(iterations, 1)
    return engine, build, cold, loop


def _run_hydrated(design, iterations: int):
    """(engine, hydrated-cold seconds): cold update over a warm store.

    A throwaway engine persists the layout into a temporary disk store;
    the measured engine then starts with an empty process cache and
    hydrates the structural arrays instead of re-flattening the graph.
    """
    import tempfile

    from repro.service.store import DiskStore
    from repro.timing import kernel as kernel_mod

    with tempfile.TemporaryDirectory() as tmp:
        kernel_mod.set_layout_disk_store(DiskStore(tmp))
        try:
            kernel_mod.clear_layout_cache()
            _engine(design, "vector").update_timing()  # persist only
            kernel_mod.clear_layout_cache()  # force the disk tier
            engine = _engine(design, "vector")
            start = time.perf_counter()
            engine.update_timing()
            cold = time.perf_counter() - start
            # Same weighted loop as _run_kernel, so final states are
            # comparable across the scalar/vector/hydrated variants.
            for i in range(iterations):
                engine.set_gate_weights(_weights(engine.netlist, i))
                engine.update_timing()
        finally:
            kernel_mod.set_layout_disk_store(None)
            kernel_mod.clear_layout_cache()
    return engine, cold


def _states_identical(scalar: STAEngine, vector: STAEngine) -> bool:
    ids = sorted(n.id for n in scalar.graph.live_nodes())
    if ids != sorted(n.id for n in vector.graph.live_nodes()):
        return False
    for attr in ("arrival_late", "arrival_early", "slew"):
        a = getattr(scalar.state, attr)[ids]
        b = getattr(vector.state, attr)[ids]
        if not np.array_equal(a, b):
            return False
    eids = sorted(e.id for e in scalar.graph.live_edges())
    if eids != sorted(e.id for e in vector.graph.live_edges()):
        return False
    for attr in ("edge_delay", "edge_out_slew"):
        a = getattr(scalar.state, attr)[eids]
        b = getattr(vector.state, attr)[eids]
        if not np.array_equal(a, b):
            return False
    slacks_s = {s.name: s.slack for s in scalar.setup_slacks()}
    slacks_v = {s.name: s.slack for s in vector.setup_slacks()}
    return slacks_s == slacks_v


def compare_kernels(names, iterations: int = DEFAULT_ITERATIONS):
    """Per-design rows + divergence list for scalar vs vector kernels."""
    rows = []
    diverged = []
    for name in names:
        scalar, build_s, cold_s, loop_s = _run_kernel(
            build_design(name), "scalar", iterations
        )
        vector, build_v, cold_v, loop_v = _run_kernel(
            build_design(name), "vector", iterations
        )
        hydrated, cold_h = _run_hydrated(build_design(name), iterations)
        equal = (
            _states_identical(scalar, vector)
            and _states_identical(scalar, hydrated)
        )
        if not equal:
            diverged.append(name)
        rows.append([
            name,
            f"{cold_s * 1e3:.1f}", f"{cold_v * 1e3:.1f}",
            f"{cold_s / cold_v:.2f}x" if cold_v > 0 else "-",
            f"{cold_h * 1e3:.1f}",
            f"{cold_s / cold_h:.2f}x" if cold_h > 0 else "-",
            f"{(build_s + cold_s) * 1e3:.1f}",
            f"{(build_v + cold_v) * 1e3:.1f}",
            f"{loop_s * 1e3:.1f}", f"{loop_v * 1e3:.1f}",
            f"{loop_s / loop_v:.2f}x" if loop_v > 0 else "-",
            "ok" if equal else "DIVERGED",
        ])
    return rows, diverged


_HEADERS = [
    "design", "cold scalar ms", "cold vector ms", "cold speedup",
    "cold hydr ms", "hydr speedup",
    "cold+build scalar ms", "cold+build vector ms",
    "loop scalar ms", "loop vector ms", "loop speedup", "equal",
]


def test_sta_kernel_scalar_vs_vector(benchmark):
    """Bit-equality asserted on every design; speedups logged."""
    names = bench_design_names()
    largest = names[-1]

    def _weighted_loop():
        _run_kernel(build_design(largest), "vector", DEFAULT_ITERATIONS)

    benchmark.pedantic(_weighted_loop, rounds=1, iterations=1)

    rows, diverged = compare_kernels(names)
    print_table(
        "STA kernel: scalar vs vector "
        f"(weighted loop x{DEFAULT_ITERATIONS})",
        _HEADERS, rows,
        note=(
            "cold = first full update; hydr = cold update with the "
            "layout hydrated from the disk store; cold+build = engine "
            "construction plus the first full update; loop = "
            "set_gate_weights + update_timing per iteration (the mGBA "
            "pattern, where the vector kernel's flow cache applies).  "
            "Speedups are logged, not asserted; bit-equality is "
            "asserted."
        ),
    )
    assert not diverged


def test_sta_layout_cold_hydrate(benchmark):
    """Disk-hydrated cold start on the largest design, bit-checked.

    Observes ``kernel.layout_build_seconds`` (the throwaway warm build)
    and ``kernel.layout_hydrate_seconds`` so the conftest metrics
    snapshot records both in its ``BENCH_<name>.json``.
    """
    largest = bench_design_names()[-1]

    def _hydrated_cold():
        return _run_hydrated(build_design(largest), 0)

    engine, _cold = benchmark.pedantic(
        _hydrated_cold, rounds=1, iterations=1
    )
    scalar, _, _, _ = _run_kernel(build_design(largest), "scalar", 0)
    assert _states_identical(scalar, engine)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="STA kernel bench: scalar vs vector equivalence + speed",
    )
    parser.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    parser.add_argument(
        "--designs", default="",
        help="comma-separated subset (default: REPRO_BENCH_DESIGNS or all)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when the kernels' results diverge",
    )
    args = parser.parse_args(argv)
    names = (
        [n.strip() for n in args.designs.split(",") if n.strip()]
        or bench_design_names()
    )
    rows, diverged = compare_kernels(names, args.iterations)
    print_table(
        f"STA kernel: scalar vs vector (weighted loop x{args.iterations})",
        _HEADERS, rows,
    )
    if diverged:
        print(f"FAIL: kernel divergence on {diverged}", file=sys.stderr)
        return 1
    print("scalar-vs-vector equivalence: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
