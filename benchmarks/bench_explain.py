"""Explain-layer bench: pessimism accounting per design.

Runs the slack-provenance layer over each bench design twice — on the
clean GBA engine and again after a direct-solver mGBA fit — and prints
the accounting (total pessimism, removed by the fit, residual).  The
``explain.pessimism_removed`` / ``explain.pessimism_residual`` gauges
the run records land in the per-bench ``BENCH_<name>.json`` metrics
snapshot.
"""

from __future__ import annotations

import time

import pytest

from repro import api
from repro.context import RunContext
from repro.timing.explain import explain_design

from benchmarks.conftest import bench_design_names, print_table


@pytest.mark.parametrize("name", bench_design_names())
def test_bench_explain_accounting(name, design_cache, capsys):
    design = design_cache(name)
    ctx = RunContext.from_env(
        workers=1, backend="serial", cache=False, solver="direct",
    )
    engine = api.make_engine(design, ctx)

    start = time.perf_counter()
    clean = explain_design(engine, top_k=5)
    clean_seconds = time.perf_counter() - start

    api.fit(engine, ctx)  # installs the weights (apply=True default)
    start = time.perf_counter()
    fitted = explain_design(engine, top_k=5)
    fitted_seconds = time.perf_counter() - start

    # A clean engine has nothing removed — bitwise, by construction.
    assert clean.summary.removed == 0.0
    # The fitted engine attributes its correction (how much is a QoR
    # question for the printed table, never a flaky gate here).
    assert fitted.summary.endpoints == clean.summary.endpoints

    with capsys.disabled():
        print_table(
            f"explain accounting: {name}",
            ["engine", "endpoints", "arcs", "pessimism(ps)",
             "removed(ps)", "residual(ps)", "seconds"],
            [
                ["clean", clean.summary.endpoints, clean.summary.arcs,
                 f"{clean.summary.pessimism:.1f}",
                 f"{clean.summary.removed:.1f}",
                 f"{clean.summary.residual:.1f}",
                 f"{clean_seconds:.3f}"],
                ["fitted", fitted.summary.endpoints, fitted.summary.arcs,
                 f"{fitted.summary.pessimism:.1f}",
                 f"{fitted.summary.removed:.1f}",
                 f"{fitted.summary.residual:.1f}",
                 f"{fitted_seconds:.3f}"],
            ],
            note="gauges explain.pessimism_removed/residual -> history",
        )
