"""The D1-D10 design suite.

Ten specs spanning the size/tightness space the paper's industrial
designs occupy — small-and-tame through large-and-badly-violating —
scaled to laptop size.  ``build_design(name)`` returns a fresh bundle
each call (designs are mutated by the closure flows, so sharing would
poison A/B comparisons); a module-level cache of *pristine* designs is
deliberately absent for the same reason.

Set ``REPRO_SUITE_SCALE`` (a float) to grow or shrink every design's
flop count uniformly — e.g. ``REPRO_SUITE_SCALE=3`` triples the suite
for scaling studies like Table 4's speedup-vs-m sweep.
"""

from __future__ import annotations

import os

from repro.designs.generator import Design, DesignSpec, generate_design, scaled_spec
from repro.errors import ReproError

#: The suite.  Depth ranges widen and violation quantiles drop down the
#: list, echoing the paper's D8/D9-style designs where GBA correlation
#: collapses (Table 3 shows D8 at 0.12% pass ratio).
DESIGN_SPECS: dict[str, DesignSpec] = {
    "D1": DesignSpec("D1", seed=101, n_flops=24, n_inputs=6, n_outputs=4,
                     depth_range=(4, 8), violation_quantile=0.90),
    "D2": DesignSpec("D2", seed=102, n_flops=48, n_inputs=8, n_outputs=6,
                     depth_range=(4, 14), violation_quantile=0.75),
    "D3": DesignSpec("D3", seed=103, n_flops=40, n_inputs=8, n_outputs=6,
                     depth_range=(6, 12), violation_quantile=0.80),
    "D4": DesignSpec("D4", seed=104, n_flops=56, n_inputs=10, n_outputs=6,
                     depth_range=(3, 16), cross_source_prob=0.5,
                     violation_quantile=0.80),
    "D5": DesignSpec("D5", seed=105, n_flops=32, n_inputs=6, n_outputs=4,
                     depth_range=(5, 20), cross_source_prob=0.5,
                     violation_quantile=0.85),
    "D6": DesignSpec("D6", seed=106, n_flops=64, n_inputs=10, n_outputs=8,
                     depth_range=(4, 12), violation_quantile=0.78),
    "D7": DesignSpec("D7", seed=107, n_flops=48, n_inputs=8, n_outputs=6,
                     depth_range=(6, 18), violation_quantile=0.82),
    "D8": DesignSpec("D8", seed=108, n_flops=72, n_inputs=12, n_outputs=8,
                     depth_range=(3, 22), cross_source_prob=0.6,
                     violation_quantile=0.70),
    "D9": DesignSpec("D9", seed=109, n_flops=80, n_inputs=12, n_outputs=8,
                     depth_range=(4, 16), cross_source_prob=0.45,
                     violation_quantile=0.75),
    "D10": DesignSpec("D10", seed=110, n_flops=64, n_inputs=10, n_outputs=6,
                      depth_range=(5, 24), cross_source_prob=0.5,
                      violation_quantile=0.72),
}


def design_names() -> list[str]:
    """D1..D10, suite order."""
    return list(DESIGN_SPECS)


def suite_scale() -> float:
    """The flop-count multiplier from ``REPRO_SUITE_SCALE`` (default 1)."""
    raw = os.environ.get("REPRO_SUITE_SCALE", "")
    if not raw:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SUITE_SCALE must be a number, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError("REPRO_SUITE_SCALE must be positive")
    return value


def build_design(name: str) -> Design:
    """Generate a fresh copy of a suite design."""
    try:
        spec = DESIGN_SPECS[name]
    except KeyError:
        raise ReproError(
            f"unknown design {name!r}; choose from {design_names()}"
        ) from None
    scale = suite_scale()
    if scale != 1.0:
        spec = scaled_spec(spec, scale)
    return generate_design(spec)


def design_factory(name: str):
    """A zero-argument factory yielding (netlist, constraints, placement,
    sta_config) — the shape :func:`repro.opt.compare.run_flow_comparison`
    expects."""

    def factory():
        design = build_design(name)
        return (
            design.netlist,
            design.constraints,
            design.placement,
            design.sta_config,
        )

    return factory
