"""Executor abstraction: serial / process backends.

One small surface — ``Executor.map(fn, items)`` — behind which the
system's two fan-outs run one design per worker: design-suite
evaluation (:func:`repro.service.suite.evaluate_suite`) and the
timing service's per-design batch sharding
(:meth:`repro.service.engine.TimingService.submit`).  Work inside one
design (PBA, what-if, the mGBA fit) always runs serially.  Two
backends:

* :class:`SerialExecutor` — plain in-order loop, zero overhead, the
  reference semantics the process backend must reproduce bit-for-bit;
* :class:`ProcessExecutor` — ``ProcessPoolExecutor``; true CPU
  parallelism at the cost of pickling ``fn`` and each chunk both ways.

Determinism contract
--------------------
``map`` always returns results **in input order**, regardless of which
worker finished first: items are split into contiguous chunks, each
chunk's results come back tagged with its index, and the merge
reassembles them positionally.  Given a deterministic ``fn``, the
output is therefore bit-identical across backends and worker counts
(property-tested in ``tests/parallel``).

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
backend, worker count, chunk count, and per-chunk wall seconds, with
one ``parallel.chunk`` child span per chunk built from worker-side
clock readings — so a Chrome trace of a parallel run shows the actual
overlap.  Failures inside a worker surface as
:class:`~repro.errors.ParallelError` with the chunk index, the failing
item's position, and the worker-side traceback (child processes cannot
reliably pickle exception objects back; the formatted traceback always
survives).  The serial backend also chains the original exception.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

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


def chunk_ranges(n_items: int, workers: int,
                 chunk_size: "int | None" = None) -> "list[range]":
    """Contiguous index chunks covering ``range(n_items)``, in order.

    By default one chunk per worker (sizes differ by at most one item),
    which minimizes per-chunk overhead — for the process backend each
    chunk pickles ``fn`` (often a bound method dragging an engine along)
    once.  Pass ``chunk_size`` for finer-grained load balancing when
    item costs are very uneven.
    """
    if n_items <= 0:
        return []
    if chunk_size is not None:
        if chunk_size < 1:
            raise ParallelError(f"chunk_size must be >= 1, got {chunk_size}")
        return [
            range(start, min(start + chunk_size, n_items))
            for start in range(0, n_items, chunk_size)
        ]
    n_chunks = max(1, min(workers, n_items))
    base, extra = divmod(n_items, n_chunks)
    ranges: "list[range]" = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


@dataclass
class _ChunkOutcome:
    """What one worker returns for one chunk (always picklable)."""

    index: int
    values: "list[Any]" = field(default_factory=list)
    error: "str | None" = None          #: one-line summary
    child_traceback: str = ""           #: worker-side formatted traceback
    exception: "BaseException | None" = None  #: serial backend only
    start: float = 0.0                  #: worker perf_counter at chunk start
    end: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _run_chunk(fn: "Callable[[Any], Any]", index: int,
               items: "Sequence[Any]",
               ship_exception: bool = False) -> _ChunkOutcome:
    """Worker-side chunk body: run ``fn`` over ``items``, never raise.

    Exceptions are captured into the outcome so they cross the process
    boundary as plain strings; ``ship_exception`` additionally keeps the
    live exception object (the serial backend, which stays in-process).
    """
    outcome = _ChunkOutcome(index=index)
    outcome.start = time.perf_counter()
    cpu_start = time.process_time()
    position = 0
    try:
        for position, item in enumerate(items):
            outcome.values.append(fn(item))
    except Exception as exc:
        outcome.values = []
        outcome.error = (
            f"{type(exc).__name__}: {exc} "
            f"(chunk {index}, item {position} of {len(items)})"
        )
        outcome.child_traceback = traceback.format_exc()
        if ship_exception:
            outcome.exception = exc
    outcome.end = time.perf_counter()
    outcome.cpu_seconds = time.process_time() - cpu_start
    return outcome


def _run_chunk_job(job: "tuple") -> _ChunkOutcome:
    """Star-call shim so pools can ``map`` over prepared job tuples."""
    fn, index, items = job
    return _run_chunk(fn, index, items)


class Executor:
    """Base class: chunked, order-preserving, span-emitting ``map``."""

    backend = "serial"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ParallelError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"

    @property
    def is_serial(self) -> bool:
        """True when ``map`` degenerates to an inline in-order loop."""
        return self.backend == "serial" or self.workers <= 1

    # ------------------------------------------------------------------
    # The one public operation
    # ------------------------------------------------------------------
    def map(self, fn: "Callable[[T], R]", items: "Iterable[T]", *,
            chunk_size: "int | None" = None,
            label: "str | None" = None) -> "list[R]":
        """``[fn(x) for x in items]`` distributed over the workers.

        Results come back in input order whatever the completion order,
        so a deterministic ``fn`` yields bit-identical output on every
        backend.  A worker failure raises :class:`ParallelError` with
        the chunk index and worker-side traceback.
        """
        materialized = list(items)
        chunks = chunk_ranges(len(materialized), self.workers, chunk_size)
        with span(
            "parallel.map",
            label=label or getattr(fn, "__qualname__", str(fn)),
            backend=self.backend,
            workers=self.workers,
            items=len(materialized),
            chunks=len(chunks),
        ) as region:
            if not chunks:
                return []
            outcomes = self._submit(fn, materialized, chunks)
            self._record(region, outcomes)
            results: "list[R]" = []
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
                results.extend(outcome.values)
        return results

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def _submit(self, fn, items, chunks) -> "list[_ChunkOutcome]":
        return [
            _run_chunk(fn, index, [items[i] for i in chunk],
                       ship_exception=True)
            for index, chunk in enumerate(chunks)
        ]

    def _record(self, region: Span, outcomes: "list[_ChunkOutcome]") -> None:
        """Attach per-chunk telemetry to the ``parallel.map`` span."""
        chunk_seconds = [round(o.seconds, 6) for o in outcomes]
        region.set(chunk_seconds=chunk_seconds)
        seconds_histogram = histogram("parallel.chunk_seconds")
        for outcome in outcomes:
            seconds_histogram.observe(outcome.seconds)
            child = Span(
                name="parallel.chunk",
                attrs={
                    "chunk": outcome.index,
                    "items": len(outcome.values),
                    "backend": self.backend,
                },
                start=outcome.start,
                end=outcome.end,
                cpu_start=0.0,
                cpu_end=outcome.cpu_seconds,
            )
            if outcome.error is not None:
                child.attrs["items"] = 0
                child.error = outcome.error
            region.children.append(child)
        counter("parallel.maps").inc()
        counter("parallel.items").inc(
            sum(len(o.values) for o in outcomes)
        )


class SerialExecutor(Executor):
    """In-order inline execution — the reference semantics."""

    backend = "serial"

    def __init__(self, workers: int = 1):
        super().__init__(1)


def _mp_context() -> multiprocessing.context.BaseContext:
    """The configured multiprocessing start method (fork where possible).

    ``fork`` keeps chunk dispatch cheap (no re-import, engines shared
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
    """``ProcessPoolExecutor``-backed chunks; true CPU parallelism.

    ``fn`` and every chunk cross the process boundary via pickle — see
    ``docs/parallelism.md`` for what that allows (module-level
    functions, bound methods of picklable objects, ``functools.partial``
    over either) and what it costs on tiny designs.
    """

    backend = "process"

    def _submit(self, fn, items, chunks) -> "list[_ChunkOutcome]":
        jobs = [
            (fn, index, [items[i] for i in chunk])
            for index, chunk in enumerate(chunks)
        ]
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(jobs)),
                mp_context=_mp_context(),
            ) as pool:
                return list(pool.map(_run_chunk_job, jobs))
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
