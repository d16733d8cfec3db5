"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers embedding the flow can catch a single base class.  Parse errors
carry the offending location to make hand-written netlists debuggable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LibertyError(ReproError):
    """Invalid cell-library data (bad table axes, unknown pin, ...)."""


class NetlistError(ReproError):
    """Structural netlist problem (unknown cell, multi-driven net, ...)."""


class SDCError(ReproError):
    """Invalid timing constraint specification."""


class AOCVError(ReproError):
    """Invalid derating-table data."""


class TimingError(ReproError):
    """Timing-graph construction or propagation failure."""


class SolverError(ReproError):
    """Optimization-solver failure (divergence, bad shapes, ...)."""


class ParallelError(ReproError):
    """A parallel worker failed, or the executor is misconfigured.

    When an item of work raises inside a worker (in-process for the
    serial backend, a child process for the process backend), the
    executor re-raises a :class:`ParallelError` in the
    caller carrying enough context to debug it without re-running
    serially:

    Attributes
    ----------
    chunk:
        Index of the failing item (0-based; each item is one task), or
        -1 for configuration errors raised before any work was
        distributed.
    backend:
        Executor backend name (``"serial"`` / ``"process"``), or ``""``
        for configuration errors.
    child_traceback:
        The worker-side formatted traceback.  For child processes this
        is the only faithful record — the original exception object may
        not survive pickling back to the parent.
    """

    def __init__(self, message: str, chunk: int = -1, backend: str = "",
                 child_traceback: str = ""):
        self.chunk = chunk
        self.backend = backend
        self.child_traceback = child_traceback
        super().__init__(message)


class ParseError(ReproError):
    """Syntax error in one of the text formats (Verilog/Liberty/SDC/AOCV).

    Attributes
    ----------
    filename:
        Name of the source being parsed, or ``"<string>"``.
    line:
        1-based line number of the offending token, 0 when unknown.
    """

    def __init__(self, message: str, filename: str = "<string>", line: int = 0):
        self.filename = filename
        self.line = line
        location = f"{filename}:{line}: " if line else f"{filename}: "
        super().__init__(location + message)
