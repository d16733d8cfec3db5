"""Process-wide metrics registry: counters, gauges, histograms.

Zero-dependency and allocation-light — instruments can sit on hot-ish
paths (one solver *run*, one flow *stage*; never per matrix row).
Three instrument kinds:

* :class:`Counter` — monotonically increasing total
  (``solver.iterations``, ``closure.transforms_tried``);
* :class:`Gauge` — last-written value (``mgba.pass_ratio``);
* :class:`Histogram` — fixed-bucket distribution with percentile
  estimation (``scg.grad_norm``, ``sta.update_seconds``).

All instruments live in a :class:`MetricsRegistry`; the module-level
:func:`default_registry` is what the instrumented library code and the
CLI's ``--metrics FILE`` flag share.  The registry snapshots to plain
dicts / JSON so benches can archive a ``BENCH_<name>.json`` per run.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_right
from typing import Sequence


class Counter:
    """A monotonically increasing value.

    Thread-safe: :meth:`inc` holds a per-instrument lock, so counters
    updated from several threads never drop increments (``x += y`` is
    not atomic in CPython).
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can move both ways; records the last write.

    Thread-safe: :meth:`set` and :meth:`add` share a lock, so
    concurrent ``add`` deltas (an in-flight gauge) never lose updates.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> float:
        """Adjust the gauge by ``delta`` (from 0 when unset); returns it."""
        with self._lock:
            self.value = (self.value or 0.0) + float(delta)
            return self.value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


def default_buckets() -> list[float]:
    """Half-decade geometric boundaries from 1e-6 to 1e6.

    Wide enough for seconds, counts, and gradient norms alike; 25
    boundaries keep ``observe`` a single bisect into a tiny list.
    """
    return [10.0 ** (k / 2.0) for k in range(-12, 13)]


def latency_buckets() -> list[float]:
    """Explicit request-latency boundaries (seconds).

    Denser than :func:`default_buckets` in the 1 ms – 60 s band where
    service requests actually land, so the OpenMetrics exposition
    (:mod:`repro.obs.expo`) exports scrape-friendly ``le`` edges and
    the SLO layer gets tight percentile interpolation.
    """
    return [
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
        0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    ]


def labeled(name: str, **labels: str) -> str:
    """The canonical registry name of one labeled time series.

    The flat registry has no native label dimension; instead a family
    plus labels is spelled into a single canonical name —
    ``labeled("service.request.latency", verb="sta")`` →
    ``service.request.latency{verb="sta"}`` — with label keys sorted
    so the same labels always produce the same instrument.  The
    OpenMetrics renderer (:mod:`repro.obs.expo`) parses the convention
    back into real exposition labels.
    """
    if not labels:
        return name
    for key in labels:
        if not key or not key.replace("_", "a").isalnum() \
                or key[0].isdigit():
            raise ValueError(f"bad label key {key!r} for metric {name!r}")
    inner = ",".join(
        '{}="{}"'.format(
            key,
            str(value).replace("\\", r"\\").replace('"', r"\"")
        )
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``boundaries`` are the *upper* edges of the finite buckets; one
    overflow bucket catches everything beyond the last edge.  Exact
    ``count`` / ``total`` / ``minimum`` / ``maximum`` are tracked on
    the side, so ``mean`` is exact and percentile interpolation can
    clamp to the true observed range.
    """

    __slots__ = (
        "name", "boundaries", "counts", "count", "total",
        "minimum", "maximum", "_lock",
    )

    def __init__(self, name: str, boundaries: Sequence[float] | None = None):
        self.name = name
        bounds = list(boundaries) if boundaries is not None \
            else default_buckets()
        if bounds != sorted(bounds):
            raise ValueError(f"histogram {name}: boundaries must be sorted")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)   # +1 overflow
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        bucket = bisect_right(self.boundaries, value)
        with self._lock:
            self.counts[bucket] += 1
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated p-th percentile (p in [0, 100]).

        Linear interpolation inside the bucket where the rank falls,
        clamped to the exact observed [minimum, maximum] — so p=0 /
        p=100 are exact, and single-bucket histograms do not smear.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.boundaries[index - 1] if index > 0 \
                    else min(self.minimum, self.boundaries[0])
                hi = self.boundaries[index] if index < len(self.boundaries) \
                    else self.maximum
                lo = max(lo, self.minimum)
                hi = min(hi, self.maximum)
                if bucket_count == 0 or hi <= lo:
                    return lo
                fraction = (rank - cumulative) / bucket_count
                return lo + fraction * (hi - lo)
            cumulative += bucket_count
        return self.maximum

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "boundaries": self.boundaries,
            "counts": self.counts,
        }


class MetricsRegistry:
    """Name -> instrument map with on-demand creation.

    Thread-safe: on-demand creation races (two threads asking for the
    same new name) resolve to one shared instrument under a registry
    lock; the instruments themselves lock their own mutations.
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, boundaries: Sequence[float] | None = None
    ) -> Histogram:
        return self._get(
            name, Histogram, lambda: Histogram(name, boundaries)
        )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (tests / per-bench isolation)."""
        with self._lock:
            self._instruments.clear()

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument, sorted by name."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument.to_dict()
                for name, instrument in instruments}

    def save_json(self, path) -> None:
        """Write the snapshot as pretty-printed JSON."""
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, default=str)
            fh.write("\n")


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry the library instruments write to."""
    return _default


def counter(name: str) -> Counter:
    """Shortcut: ``default_registry().counter(name)``."""
    return _default.counter(name)


def gauge(name: str) -> Gauge:
    """Shortcut: ``default_registry().gauge(name)``."""
    return _default.gauge(name)


def histogram(name: str, boundaries: Sequence[float] | None = None) \
        -> Histogram:
    """Shortcut: ``default_registry().histogram(name)``."""
    return _default.histogram(name, boundaries)
