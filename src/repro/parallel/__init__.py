"""Parallel execution layer: one design per worker.

Public surface (see ``docs/parallelism.md`` for the tour):

* :mod:`repro.parallel.executor` — the serial / process
  :class:`Executor` backends behind ``REPRO_WORKERS`` and the CLI's
  global ``--workers`` flag.

One fan-out uses it, one design per worker:
:func:`repro.service.suite.evaluate_suite`, configured through
:class:`~repro.context.RunContext`.  Work inside one design (PBA,
what-if, the mGBA fit) runs serially, and the timing service answers
every query in process on its live engines.
"""

from repro.parallel.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
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
    "default_executor",
    "get_executor",
    "resolve_backend",
    "resolve_workers",
    "set_default_workers",
]
