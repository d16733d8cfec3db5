"""Timing-closure optimization framework (left half of the paper's Fig. 5).

* :class:`~repro.opt.qor.QoRMetrics` — WNS/TNS/area/leakage/buffers.
* :class:`~repro.opt.closure.TimingClosureOptimizer` — the greedy
  fix-violations / recover-area loop, run with plain GBA or with the
  mGBA-corrected engine; its sizing, VT and buffering moves are edit
  specs applied and undone by :func:`~repro.opt.whatif.apply_edit`.
* :func:`~repro.opt.compare.run_flow_comparison` — GBA-flow vs
  mGBA-flow A/B on one design (Tables 2 and 5).
* :mod:`~repro.opt.whatif` — the one edit-and-undo path
  (:func:`~repro.opt.whatif.apply_edit`), the one ECO grammar reader,
  batched what-if candidate evaluation and min-period search: the
  closure loop's inner oracle as a cacheable API (served by
  ``TimingService`` as ``what_if`` / ``min_period``).
* :mod:`~repro.opt.eco` — ECO script export, and replay through the
  netlist half of the edit path.
"""

from repro.opt.qor import QoRMetrics
from repro.opt.closure import ClosureConfig, ClosureReport, TimingClosureOptimizer
from repro.opt.compare import FlowComparison, run_flow_comparison
from repro.opt.whatif import (
    CandidateResult,
    MinPeriodResult,
    WhatIfError,
    WhatIfResult,
    evaluate_what_if,
    min_period_on_engine,
    normalize_candidate,
    parse_eco_candidate,
)

__all__ = [
    "QoRMetrics",
    "ClosureConfig",
    "ClosureReport",
    "TimingClosureOptimizer",
    "FlowComparison",
    "run_flow_comparison",
    "CandidateResult",
    "MinPeriodResult",
    "WhatIfError",
    "WhatIfResult",
    "evaluate_what_if",
    "min_period_on_engine",
    "normalize_candidate",
    "parse_eco_candidate",
]
