"""Executor abstraction: serial / process backends.

One small surface — ``Executor.map(fn, items)`` — behind which the
system's one fan-out runs one design per worker: design-suite
evaluation (:func:`repro.service.suite.evaluate_suite`).  Work inside
one design (PBA, what-if, the mGBA fit) and every timing-service
query run in process.  Two backends:

* :class:`SerialExecutor` — plain in-order loop, zero overhead, the
  reference semantics the process backend must reproduce bit-for-bit;
* :class:`ProcessExecutor` — ``ProcessPoolExecutor``; true CPU
  parallelism at the cost of pickling ``fn`` and each item both ways.

Determinism contract
--------------------
``map`` always returns results **in input order**, regardless of which
worker finished first: each item is one task, its result comes back
tagged with the item's index, and the merge reassembles them
positionally.  Given a deterministic ``fn``, the output is therefore
bit-identical across backends and worker counts (property-tested in
``tests/parallel``).

Worker-count resolution (first match wins):

1. the explicit ``workers=`` argument;
2. the process-wide default set by :func:`set_default_workers`
   (the CLI's global ``--workers`` flag);
3. the ``REPRO_WORKERS`` environment variable;
4. ``1`` (serial).

Backend resolution: explicit ``backend=`` argument, then the
``REPRO_PARALLEL_BACKEND`` environment variable, then ``"process"``.
Inside a worker process the resolved count is clamped to 1 so nested
fan-out can never spawn pools-of-pools.

Every ``map`` call emits a ``parallel.map`` tracing span carrying the
backend, worker count, item count, and per-item wall seconds, with
one ``parallel.chunk`` child span per item built from worker-side
clock readings — so a Chrome trace of a parallel run shows the actual
overlap.  Failures inside a worker surface as
:class:`~repro.errors.ParallelError` with the failing item's index and
the worker-side traceback (child processes cannot reliably pickle
exception objects back; the formatted traceback always survives).
The serial backend also chains the original exception.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, TypeVar

from repro.errors import ParallelError
from repro.obs.metrics import counter, histogram
from repro.obs.trace import Span, span

T = TypeVar("T")
R = TypeVar("R")

#: Recognized backend names, in documentation order.
BACKENDS = ("serial", "process")

#: Environment knobs (also honoured by the CLI and benches).
WORKERS_ENV = "REPRO_WORKERS"
BACKEND_ENV = "REPRO_PARALLEL_BACKEND"
MP_START_ENV = "REPRO_MP_START"

_default_workers: "int | None" = None


def set_default_workers(workers: "int | None") -> None:
    """Install a process-wide worker-count default (CLI ``--workers``).

    ``None`` clears the override, falling back to ``REPRO_WORKERS``.
    """
    global _default_workers
    if workers is not None and workers < 1:
        raise ParallelError(f"workers must be >= 1, got {workers}")
    _default_workers = workers


def _in_worker_process() -> bool:
    """True inside a multiprocessing child (never nest process pools)."""
    return multiprocessing.parent_process() is not None


def resolve_workers(workers: "int | None" = None) -> int:
    """Effective worker count: arg > CLI default > env > 1."""
    if workers is None:
        workers = _default_workers
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "")
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ParallelError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}"
                ) from None
    if workers is None:
        workers = 1
    if workers < 1:
        raise ParallelError(f"workers must be >= 1, got {workers}")
    if _in_worker_process():
        return 1
    return workers


def resolve_backend(backend: "str | None" = None) -> str:
    """Effective backend name: arg > env > ``"process"``."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV, "") or "process"
    if backend not in BACKENDS:
        raise ParallelError(
            f"unknown parallel backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


@dataclass
class _Outcome:
    """What one worker returns for one item (always picklable)."""

    index: int
    value: Any = None
    error: "str | None" = None          #: one-line summary
    child_traceback: str = ""           #: worker-side formatted traceback
    exception: "BaseException | None" = None  #: serial backend only
    start: float = 0.0                  #: worker perf_counter at item start
    end: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _run_item(fn: "Callable[[Any], Any]", index: int, item: Any,
              ship_exception: bool = False) -> _Outcome:
    """Worker-side task body: run ``fn`` on one item, never raise.

    An exception is captured into the outcome so it crosses the process
    boundary as plain strings; ``ship_exception`` additionally keeps the
    live exception object (the serial backend, which stays in-process).
    """
    outcome = _Outcome(index=index)
    outcome.start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        outcome.value = fn(item)
    except Exception as exc:
        outcome.error = f"{type(exc).__name__}: {exc} (item {index})"
        outcome.child_traceback = traceback.format_exc()
        if ship_exception:
            outcome.exception = exc
    outcome.end = time.perf_counter()
    outcome.cpu_seconds = time.process_time() - cpu_start
    return outcome


def _run_item_job(job: "tuple") -> _Outcome:
    """Star-call shim so pools can ``map`` over prepared job tuples."""
    fn, index, item = job
    return _run_item(fn, index, item)


class Executor:
    """Base class: order-preserving, span-emitting ``map``."""

    backend = "serial"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ParallelError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"

    # ------------------------------------------------------------------
    # The one public operation
    # ------------------------------------------------------------------
    def map(self, fn: "Callable[[T], R]", items: "Iterable[T]", *,
            label: "str | None" = None) -> "list[R]":
        """``[fn(x) for x in items]`` distributed over the workers.

        Each item is one task.  Results come back in input order
        whatever the completion order, so a deterministic ``fn`` yields
        bit-identical output on every backend.  A worker failure raises
        :class:`ParallelError` with the item's index and worker-side
        traceback.
        """
        materialized = list(items)
        with span(
            "parallel.map",
            label=label or getattr(fn, "__qualname__", str(fn)),
            backend=self.backend,
            workers=self.workers,
            items=len(materialized),
        ) as region:
            if not materialized:
                return []
            outcomes = self._submit(fn, materialized)
            self._record(region, outcomes)
            for outcome in outcomes:
                if outcome.error is not None:
                    raise ParallelError(
                        f"parallel.map[{self.backend}] worker failed: "
                        f"{outcome.error}\n--- worker traceback ---\n"
                        f"{outcome.child_traceback}",
                        chunk=outcome.index,
                        backend=self.backend,
                        child_traceback=outcome.child_traceback,
                    ) from outcome.exception
        return [outcome.value for outcome in outcomes]

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def _submit(self, fn, items) -> "list[_Outcome]":
        return [
            _run_item(fn, index, item, ship_exception=True)
            for index, item in enumerate(items)
        ]

    def _record(self, region: Span, outcomes: "list[_Outcome]") -> None:
        """Attach per-item telemetry to the ``parallel.map`` span."""
        region.set(chunk_seconds=[round(o.seconds, 6) for o in outcomes])
        seconds_histogram = histogram("parallel.chunk_seconds")
        for outcome in outcomes:
            seconds_histogram.observe(outcome.seconds)
            region.children.append(Span(
                name="parallel.chunk",
                attrs={"chunk": outcome.index, "backend": self.backend},
                start=outcome.start,
                end=outcome.end,
                cpu_start=0.0,
                cpu_end=outcome.cpu_seconds,
                error=outcome.error,
            ))
        counter("parallel.maps").inc()
        counter("parallel.items").inc(
            sum(o.error is None for o in outcomes)
        )


class SerialExecutor(Executor):
    """In-order inline execution — the reference semantics."""

    backend = "serial"

    def __init__(self, workers: int = 1):
        super().__init__(1)


def _mp_context() -> multiprocessing.context.BaseContext:
    """The configured multiprocessing start method (fork where possible).

    ``fork`` keeps task dispatch cheap (no re-import, engines shared
    copy-on-write until first write); ``REPRO_MP_START`` overrides for
    platforms or runtimes where fork is unsafe.
    """
    method = os.environ.get(MP_START_ENV, "")
    if not method:
        method = (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
    try:
        return multiprocessing.get_context(method)
    except ValueError:
        raise ParallelError(
            f"{MP_START_ENV}={method!r} is not a valid start method "
            f"(choose from {multiprocessing.get_all_start_methods()})"
        ) from None


class ProcessExecutor(Executor):
    """``ProcessPoolExecutor``-backed tasks; true CPU parallelism.

    ``fn`` and every item cross the process boundary via pickle — see
    ``docs/parallelism.md`` for what that allows (module-level
    functions, bound methods of picklable objects, ``functools.partial``
    over either) and what it costs on tiny designs.
    """

    backend = "process"

    def _submit(self, fn, items) -> "list[_Outcome]":
        jobs = [(fn, index, item) for index, item in enumerate(items)]
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(jobs)),
                mp_context=_mp_context(),
            ) as pool:
                return list(pool.map(_run_item_job, jobs))
        except BrokenProcessPool as exc:
            raise ParallelError(
                f"parallel.map[process] worker died abruptly "
                f"(signal/OOM?): {exc}",
                backend=self.backend,
            ) from exc


_EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}


def get_executor(workers: "int | None" = None,
                 backend: "str | None" = None) -> Executor:
    """Build an executor from explicit args + environment defaults.

    ``workers`` resolving to 1 always yields a :class:`SerialExecutor`
    whatever the backend, so unconfigured runs stay zero-overhead and
    bit-for-bit equal to the pre-parallel code path.
    """
    count = resolve_workers(workers)
    if count <= 1:
        return SerialExecutor()
    return _EXECUTORS[resolve_backend(backend)](count)


def default_executor() -> Executor:
    """The environment-configured executor (serial unless opted in)."""
    return get_executor()
