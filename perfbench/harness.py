"""Shared plumbing of the repository benchmark.

A workload object (see :mod:`workloads`) owns its seeded inputs and
exposes three steps: ``setup`` builds the inputs, ``run_pass`` times one
pass of unit operations over them, and ``check`` verifies a pass's
outputs in an untimed second pass.  This module turns those steps into
a run: it pins the process-global knobs, repeats passes for the measured
window, and folds the timings into the end-to-end metrics.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

#: Process-global knobs every run pins before ``repro`` is imported, so
#: no workload inherits a worker pool, kernel choice, artifact cache or
#: suite scale from the caller's environment.
PINNED_ENV = {
    "REPRO_WORKERS": "1",
    "REPRO_PARALLEL_BACKEND": "serial",
    "REPRO_STA_KERNEL": "vector",
    "REPRO_CACHE": "0",
    "REPRO_SUITE_SCALE": "1",
    # numpy is imported after the pin: its BLAS runs on this one thread.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_environment() -> None:
    """Pin the knobs above and drop the cache-dir override."""
    os.environ.update(PINNED_ENV)
    os.environ.pop("REPRO_CACHE_DIR", None)


def reset_process_state() -> None:
    """Drop every process-global cache and recorder ``repro`` keeps.

    Each workload runs in its own process, but the warm-up, the measured
    passes and the checks share one; they must not see each other's
    layouts, counters or flight records except where a workload means
    them to (the serve restart).
    """
    from repro.obs.flight import default_flight_recorder
    from repro.obs.metrics import default_registry
    from repro.timing import kernel

    kernel.clear_layout_cache()
    kernel.set_layout_disk_store(None)
    default_registry().reset()
    default_flight_recorder().clear()


def environment_record() -> "dict[str, Any]":
    """What a result depends on besides the code: cores and versions."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": dict(PINNED_ENV),
    }


@dataclass
class Op:
    """One timed unit operation: a design signed off or closed, a request."""

    label: str
    seconds: float
    ok: bool
    output: Any = None
    error: "str | None" = None


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    ops: "list[Op]" = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Time spent in the pass's operations (not in harness upkeep)."""
        return sum(op.seconds for op in self.ops)


def timed_op(label: str, fn, *args, **kwargs) -> Op:
    """Run ``fn`` and time it; an exception is a failed op, not a crash."""
    start = time.perf_counter()
    try:
        output = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is a measured outcome
        return Op(label, time.perf_counter() - start, False,
                  error=f"{type(exc).__name__}: {exc}")
    return Op(label, time.perf_counter() - start, True, output)


def measure(workload, seconds: float) -> "list[Pass]":
    """Repeat passes for ``seconds``: at least one, only whole passes.

    A further pass starts only while the time left covers the last
    pass, so a run never overshoots its window by more than one pass
    and every pass covers the same inputs.
    """
    passes: "list[Pass]" = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        left = seconds - (time.perf_counter() - start)
        if left < passes[-1].seconds:
            return passes


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def heavy_op(label: str, fn, *args) -> Op:
    """:func:`timed_op` after an untimed collection.

    Seconds-long operations (a sign-off, a closure) leave enough garbage
    that the next one would otherwise pay for a collection its
    predecessor made necessary; collecting first removes that noise.
    """
    gc.collect()
    return timed_op(label, fn, *args)


def percentile(values: "list[float]", pct: int) -> float:
    """The ``pct``-th percentile (exclusive method, as ``statistics``)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def op_latencies_ms(passes: "list[Pass]") -> "list[float]":
    """Every op's latency in ms; a failed op counts as its whole pass.

    A failed operation misses any latency limit, so it is charged the
    wall time of the pass it belonged to, never its (short) time to
    fail.
    """
    out: "list[float]" = []
    for one in passes:
        for op in one.ops:
            seconds = op.seconds if op.ok else one.seconds
            out.append(1000.0 * seconds)
    return out

