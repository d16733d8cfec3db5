"""Two-tier artifact cache: in-process LRU over an on-disk store.

The memory tier answers repeated queries inside one process at dict
speed; the disk tier (default ``.repro_cache/``) survives process
restarts, so a cold CLI invocation can reuse artifacts a previous run
paid for.  Both tiers are *content-addressed* (see
:mod:`repro.service.keys`): entries are immutable once written, which
makes the whole design embarrassingly safe — a key either maps to the
one true value or misses.

Disk layout (versioned schema)::

    .repro_cache/
      v2/
        meta.json            {"schema": 2}
        sta/<key>.pkl        one pickle per artifact
        pba/<key>.pkl
        solve/<key>.pkl
        fit/<key>.pkl
        layout/<key>.pkl     levelized-layout structural arrays

Bumping :data:`SCHEMA_VERSION` retires every old artifact at once: a
store initialized at version N wipes any ``v*`` directory of a
different version.  Within a version, eviction is LRU by file mtime
(reads touch their file) down to ``max_bytes``.  Corrupt or truncated
entries — a killed writer, a partial disk — are treated as misses and
deleted; writes go through a temp file + atomic rename so readers in
other processes never observe a half-written artifact.

Every lookup increments ``cache.hit`` / ``cache.miss`` (plus the
per-class ``cache.hit.<cls>`` twins), which is what the cold-vs-warm
CI gate and the acceptance tests assert on.  The service-telemetry
namespace mirrors them — ``service.cache.hit`` / ``service.cache.miss``
counters, ``service.cache.eviction``, and the ``service.cache.bytes``
/ ``service.cache.memory_entries`` gauges — so one metrics snapshot
answers both "did the cache work" and "how big is it right now".
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.obs.metrics import counter, gauge
from repro.utils.log import get_logger

logger = get_logger("service.store")

#: Version of the on-disk artifact schema.  Bump when pickled payload
#: shapes change incompatibly, or when the code behind a keyed name
#: changes its answer; old versions are wiped, not migrated.  2: the
#: bounded Newton solve replaced LSQR under ``solver="direct"``.
SCHEMA_VERSION = 2

#: Recognized artifact classes, in pipeline order.  ``layout`` holds
#: the vector kernel's persisted :class:`LevelizedLayout` structural
#: arrays (see :func:`repro.timing.kernel.set_layout_disk_store`).
ARTIFACT_CLASSES = (
    "sta", "scenarios", "pba", "solve", "fit", "explain",
    "what_if", "min_period", "layout",
)


class LRUCache:
    """A tiny in-process LRU map (the memory tier)."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Any:
        """The cached value, or None; a hit refreshes recency."""
        try:
            self._entries.move_to_end(key)
        except KeyError:
            return None
        return self._entries[key]

    def put(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def pop(self, key: str) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()


class DiskStore:
    """Pickle-per-artifact store under a versioned root directory."""

    def __init__(self, root: "str | Path", *,
                 max_bytes: int = 256 * 1024 * 1024):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._dir = self.root / f"v{SCHEMA_VERSION}"
        self._initialized = False

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _ensure_layout(self) -> None:
        """Create the versioned directory; retire other schema versions."""
        if self._initialized:
            return
        if self.root.is_dir():
            for child in self.root.iterdir():
                if (
                    child.is_dir() and child.name.startswith("v")
                    and child != self._dir
                ):
                    logger.info("retiring cache schema %s", child.name)
                    shutil.rmtree(child, ignore_errors=True)
        self._dir.mkdir(parents=True, exist_ok=True)
        meta = self._dir / "meta.json"
        if not meta.exists():
            meta.write_text(json.dumps({"schema": SCHEMA_VERSION}) + "\n")
        self._initialized = True

    def _path(self, cls: str, key: str) -> Path:
        if cls not in ARTIFACT_CLASSES:
            raise ValueError(
                f"unknown artifact class {cls!r}; "
                f"choose from {ARTIFACT_CLASSES}"
            )
        return self._dir / cls / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def get(self, cls: str, key: str) -> Any:
        """Load one artifact; corrupt entries count as misses."""
        self._ensure_layout()
        path = self._path(cls, key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception as exc:  # truncated/corrupt pickle
            logger.warning("dropping corrupt cache entry %s: %s", path, exc)
            path.unlink(missing_ok=True)
            return None
        try:
            os.utime(path)  # LRU recency for the evictor
        except OSError:
            pass
        return value

    def put(self, cls: str, key: str, value: Any) -> None:
        """Atomically persist one artifact, then evict if over budget."""
        self._ensure_layout()
        path = self._path(cls, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self.evict()
        gauge("service.cache.bytes").set(self.total_bytes())

    def invalidate(self, cls: "str | None" = None,
                   key: "str | None" = None) -> int:
        """Remove entries; returns how many files were deleted.

        No arguments clears every class; ``cls`` alone clears one
        class; ``cls`` + ``key`` removes a single entry.
        """
        self._ensure_layout()
        if cls is not None and key is not None:
            path = self._path(cls, key)
            existed = path.exists()
            path.unlink(missing_ok=True)
            return int(existed)
        removed = 0
        classes = (cls,) if cls is not None else ARTIFACT_CLASSES
        for name in classes:
            directory = self._dir / name
            if not directory.is_dir():
                continue
            for entry in directory.glob("*.pkl"):
                entry.unlink(missing_ok=True)
                removed += 1
        return removed

    def entries(self) -> "list[Path]":
        """Every artifact file currently on disk."""
        self._ensure_layout()
        found: "list[Path]" = []
        for name in ARTIFACT_CLASSES:
            directory = self._dir / name
            if directory.is_dir():
                found.extend(directory.glob("*.pkl"))
        return found

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries() if p.exists())

    def evict(self) -> int:
        """Drop least-recently-used entries until under ``max_bytes``."""
        entries = []
        for path in self.entries():
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return 0
        evicted = 0
        for _, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            evicted += 1
        if evicted:
            counter("cache.evictions").inc(evicted)
            counter("service.cache.eviction").inc(evicted)
        return evicted


class ArtifactCache:
    """The two tiers composed: memory in front, disk behind.

    A memory hit never touches disk; a disk hit is promoted into the
    memory tier; a double miss returns None and the caller computes
    and :meth:`put`\\ s.  Either tier is optional — ``memory_entries=0``
    disables the LRU, ``disk=None`` makes the cache process-local.
    """

    def __init__(self, *, memory_entries: int = 256,
                 disk: "DiskStore | None" = None):
        self.memory = LRUCache(memory_entries) if memory_entries else None
        self.disk = disk

    @classmethod
    def from_context(cls, context) -> "ArtifactCache | None":
        """The cache a :class:`RunContext` asks for (None when off)."""
        if not context.cache:
            return None
        disk = (
            DiskStore(context.cache_dir,
                      max_bytes=context.cache_disk_bytes)
            if context.cache_dir else None
        )
        return cls(memory_entries=context.cache_memory_entries, disk=disk)

    @staticmethod
    def _memory_key(cls_name: str, key: str) -> str:
        return f"{cls_name}:{key}"

    def get(self, cls: str, key: str) -> Any:
        """Tiered lookup; records ``cache.hit`` / ``cache.miss``."""
        value = None
        if self.memory is not None:
            value = self.memory.get(self._memory_key(cls, key))
        if value is None and self.disk is not None:
            value = self.disk.get(cls, key)
            if value is not None and self.memory is not None:
                self.memory.put(self._memory_key(cls, key), value)
        if value is None:
            counter("cache.miss").inc()
            counter(f"cache.miss.{cls}").inc()
            counter("service.cache.miss").inc()
        else:
            counter("cache.hit").inc()
            counter(f"cache.hit.{cls}").inc()
            counter("service.cache.hit").inc()
        return value

    def put(self, cls: str, key: str, value: Any) -> None:
        if self.memory is not None:
            self.memory.put(self._memory_key(cls, key), value)
            gauge("service.cache.memory_entries").set(len(self.memory))
        if self.disk is not None:
            self.disk.put(cls, key, value)

    def invalidate(self, cls: "str | None" = None,
                   key: "str | None" = None) -> None:
        """Drop entries from both tiers (see :meth:`DiskStore.invalidate`)."""
        if self.memory is not None:
            if cls is not None and key is not None:
                self.memory.pop(self._memory_key(cls, key))
            else:
                self.memory.clear()
        if self.disk is not None:
            self.disk.invalidate(cls, key)
