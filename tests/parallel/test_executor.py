"""Unit tests for the executor abstraction itself."""

import os
import pickle

import pytest

from repro.errors import ParallelError
from repro.obs.trace import tracing
from repro.parallel import (
    BACKENDS,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
    resolve_backend,
    resolve_workers,
    set_default_workers,
)

ALL_BACKENDS = list(BACKENDS)


def executor_for(backend: str, workers: int = 3):
    return {
        "serial": SerialExecutor,
        "process": ProcessExecutor,
    }[backend](workers)


def square(x):
    return x * x


def fail_on_five(x):
    if x == 5:
        raise ValueError("item five is cursed")
    return x


class TestResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert get_executor().backend == "serial"

    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(2) == 2

    def test_cli_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        set_default_workers(3)
        try:
            assert resolve_workers() == 3
        finally:
            set_default_workers(None)
        assert resolve_workers() == 4

    def test_bad_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ParallelError):
            resolve_workers()

    def test_bad_worker_count(self):
        with pytest.raises(ParallelError):
            resolve_workers(0)
        with pytest.raises(ParallelError):
            set_default_workers(-1)

    def test_backend_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        assert resolve_backend() == "process"
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "serial")
        assert resolve_backend() == "serial"
        assert resolve_backend("process") == "process"

    def test_bad_backend(self, monkeypatch):
        with pytest.raises(ParallelError):
            resolve_backend("gpu")
        # "thread" is not a backend: naming it in the environment fails.
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "thread")
        with pytest.raises(ParallelError):
            get_executor(4)

    def test_workers_one_is_always_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        assert get_executor(1).backend == "serial"

    def test_get_executor_parallel(self):
        executor = get_executor(4, "process")
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 4


class TestMap:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_order_preserved(self, backend):
        executor = executor_for(backend)
        assert executor.map(square, range(23)) == [
            i * i for i in range(23)
        ]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_items(self, backend):
        assert executor_for(backend).map(square, []) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_exception_carries_context(self, backend):
        executor = executor_for(backend)
        with pytest.raises(ParallelError) as excinfo:
            executor.map(fail_on_five, range(8))
        err = excinfo.value
        assert "item five is cursed" in str(err)
        assert "ValueError" in str(err)
        assert err.backend == backend
        assert err.chunk >= 0
        # The worker-side traceback names the failing function.
        assert "fail_on_five" in err.child_traceback

    def test_serial_exception_chains_original(self):
        with pytest.raises(ParallelError) as excinfo:
            SerialExecutor().map(fail_on_five, range(8))
        assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_span_attributes(self, backend):
        executor = executor_for(backend)
        with tracing() as tracer:
            executor.map(square, range(10), label="unit.square")
        maps = [s for s in tracer.all_spans() if s.name == "parallel.map"]
        assert len(maps) == 1
        region = maps[0]
        assert region.attrs["backend"] == backend
        assert region.attrs["workers"] == executor.workers
        assert region.attrs["items"] == 10
        assert region.attrs["label"] == "unit.square"
        assert len(region.attrs["chunk_seconds"]) == region.attrs["items"]
        chunks = [c for c in region.children if c.name == "parallel.chunk"]
        assert len(chunks) == region.attrs["items"]
        assert [c.attrs["chunk"] for c in chunks] == list(range(10))
        assert all(c.error is None for c in chunks)

    def test_serial_executor_ignores_worker_count(self):
        assert SerialExecutor(8).workers == 1

    def test_parallel_error_is_picklable(self):
        err = ParallelError("boom", chunk=2, backend="process",
                            child_traceback="tb")
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == "boom"


class TestNesting:
    def test_no_nested_process_pools(self):
        """Inside a worker process the resolved count clamps to 1."""
        executor = ProcessExecutor(2)
        counts = executor.map(_resolved_workers_in_child, range(2))
        assert counts == [1, 1]


def _resolved_workers_in_child(_):
    os.environ["REPRO_WORKERS"] = "8"
    return resolve_workers()
