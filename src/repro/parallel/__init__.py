"""Parallel execution layer for the STA / PBA / mGBA hot paths.

Public surface (see ``docs/parallelism.md`` for the tour):

* :mod:`repro.parallel.executor` — the serial / thread / process
  :class:`Executor` backends behind ``REPRO_WORKERS`` and the CLI's
  global ``--workers`` flag.

The finer axes live next to the code they accelerate:
``enumerate_worst_paths`` / ``PBAEngine.analyze`` (per-endpoint and
per-path sharding), :mod:`repro.service.suite` (one design per
worker), and :class:`~repro.context.RunContext` for the flow and
service.
"""

from repro.parallel.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
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
    "ThreadExecutor",
    "ProcessExecutor",
    "chunk_ranges",
    "default_executor",
    "get_executor",
    "resolve_backend",
    "resolve_workers",
    "set_default_workers",
]
