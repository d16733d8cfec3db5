"""Path-based analysis (PBA) — the golden reference.

* :class:`~repro.pba.paths.TimingPath` — one enumerated data path with
  its GBA and PBA analyses; :class:`~repro.pba.paths.PathSet` — many
  paths as CSR arrays, the form the batch analysis reads.
* :mod:`~repro.pba.enumerate` — exact k-worst path enumeration per
  endpoint (best-first peeling over the timing DAG).
* :class:`~repro.pba.engine.PBAEngine` — path-specific AOCV depth,
  bounding-box distance, and CRPR credit; produces the golden slacks
  the mGBA model is fitted against.
"""

from repro.pba.paths import PathSet, TimingPath
from repro.pba.enumerate import enumerate_worst_paths, worst_paths_to_endpoint
from repro.pba.engine import PBAEngine

__all__ = [
    "TimingPath",
    "PathSet",
    "enumerate_worst_paths",
    "worst_paths_to_endpoint",
    "PBAEngine",
]
