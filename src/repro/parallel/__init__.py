"""Parallel execution layer: one design per worker.

Public surface (see ``docs/parallelism.md`` for the tour):

* :mod:`repro.parallel.executor` — the serial / process
  :class:`Executor` backends behind ``REPRO_WORKERS`` and the CLI's
  global ``--workers`` flag.

Two fan-outs use it, both one design per worker:
:func:`repro.service.suite.evaluate_suite` and the per-design
sharding of :meth:`repro.service.engine.TimingService.submit`, each
configured through :class:`~repro.context.RunContext`.  Work inside
one design (PBA, what-if, the mGBA fit) runs serially.
"""

from repro.parallel.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    chunk_ranges,
    default_executor,
    get_executor,
    resolve_backend,
    resolve_workers,
    set_default_workers,
)

__all__ = [
    "BACKENDS",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "chunk_ranges",
    "default_executor",
    "get_executor",
    "resolve_backend",
    "resolve_workers",
    "set_default_workers",
]
