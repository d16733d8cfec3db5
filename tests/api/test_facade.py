"""Facade tests: the ``repro.api`` surface is stable and frozen.

The exact export list is snapshot-asserted — adding a name means
updating the snapshot here *and* ``docs/api.md``; removing or renaming
one requires a deprecation shim for a release (the policy in
``docs/api.md``).
"""

import dataclasses

import pytest

from repro import api
from repro.context import RunContext

#: The supported surface, verbatim.  Update deliberately.
EXPECTED_SURFACE = [
    "RunContext",
    "STAResult",
    "GoldenSlacksResult",
    "FitResult",
    "ClosureResult",
    "ExplainResult",
    "ScenarioSweepResult",
    "CandidateResult",
    "WhatIfResult",
    "MinPeriodResult",
    "load_design",
    "make_engine",
    "run_sta",
    "golden_slacks",
    "fit",
    "evaluate",
    "close_timing",
    "explain_slack",
    "run_scenarios",
    "what_if",
    "min_period",
]


class TestSurface:
    def test_all_snapshot(self):
        assert api.__all__ == EXPECTED_SURFACE

    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, name

    def test_result_types_frozen(self):
        for cls in (api.STAResult, api.GoldenSlacksResult,
                    api.FitResult, api.ClosureResult,
                    api.ExplainResult, api.ScenarioSweepResult,
                    api.CandidateResult, api.WhatIfResult,
                    api.MinPeriodResult, RunContext):
            assert dataclasses.is_dataclass(cls)
            assert cls.__dataclass_params__.frozen, cls.__name__

    def test_seconds_excluded_from_equality(self):
        a = api.STAResult(
            design="x", wns=-1.0, tns=-2.0, violations=1,
            endpoints=2, slacks=(("e", -1.0),), seconds=0.5,
        )
        b = dataclasses.replace(a, seconds=99.0)
        assert a == b


class TestRunContext:
    def test_from_env_resolves_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "serial")
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/elsewhere")
        ctx = RunContext.from_env()
        assert ctx.workers == 3
        assert ctx.backend == "serial"
        assert ctx.cache is False
        assert ctx.cache_dir == "/tmp/elsewhere"

    def test_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_CACHE", "0")
        ctx = RunContext.from_env(workers=1, cache=True)
        assert ctx.workers == 1
        assert ctx.cache is True

    def test_config_round_trip(self):
        ctx = RunContext(solver="direct", epsilon=0.1, k_per_endpoint=7)
        config = ctx.mgba_config()
        assert config.solver == "direct"
        assert config.epsilon == 0.1
        assert config.k_per_endpoint == 7

    def test_fingerprint_ignores_parallelism(self):
        a = RunContext(workers=1, backend="serial")
        b = RunContext(workers=8, backend="process")
        assert a.fit_fingerprint() == b.fit_fingerprint()


@pytest.fixture(scope="module")
def ctx():
    return RunContext.from_env(workers=1, backend="serial", cache=False)


class TestVerbs:
    def test_load_design_fig2(self):
        design = api.load_design("fig2")
        assert design.name == "paper_fig2"
        assert design.placement is None

    def test_load_design_suite(self):
        assert api.load_design("D1").name == "D1"

    def test_run_sta_deterministic(self, ctx):
        a = api.run_sta("fig2", ctx)
        b = api.run_sta("fig2", ctx)
        assert a == b
        assert a.wns == min(s for _, s in a.slacks)
        assert a.to_dict()["design"] == "paper_fig2"

    def test_golden_slacks(self, ctx):
        result = api.golden_slacks("fig2", k=8, context=ctx)
        sta = api.run_sta("fig2", ctx)
        # PBA can only remove pessimism: golden WNS >= GBA WNS.
        assert result.worst >= sta.wns - 1e-9

    def test_fit_on_engine_applies_weights(self, ctx):
        engine = api.make_engine("fig2", ctx)
        before = engine.summary().wns
        result = api.fit(engine, ctx.replace(solver="direct"))
        assert result.converged
        assert result.pass_ratio_mgba >= result.pass_ratio_gba
        assert engine.summary().wns >= before - 1e-9
        assert dict(result.weights) == result.weight_map()

    def test_fit_deterministic(self, ctx):
        fit_ctx = ctx.replace(solver="direct")
        a = api.fit("fig2", fit_ctx, apply=False)
        b = api.fit("fig2", fit_ctx, apply=False)
        assert a == b

    def test_evaluate_subset(self, ctx):
        reports = api.evaluate(["D1"], context=ctx)
        assert [r.name for r in reports] == ["D1"]

    def test_explain_slack_deterministic(self, ctx):
        a = api.explain_slack("fig2", context=ctx)
        b = api.explain_slack("fig2", context=ctx)
        assert a == b
        assert a.design == "paper_fig2"
        assert a.explanation.summary.endpoints == 4
        assert a.to_dict()["explanation"]["design"] == "paper_fig2"

    def test_explain_slack_endpoint_scope(self, ctx):
        narrowed = api.explain_slack("fig2", endpoint="FF4/D", context=ctx)
        assert narrowed.endpoint == "FF4/D"
        assert narrowed.explanation.summary.endpoints == 1

    def test_run_scenarios_stacked_equals_serial(self, ctx):
        corners = [("slow", 1.1), ("fast", 0.9)]
        stacked = api.run_scenarios("fig2", corners=corners, context=ctx)
        design = api.load_design("fig2")
        design.sta_config = dataclasses.replace(
            design.sta_config, kernel="scalar"
        )
        serial = api.run_scenarios(design, corners=corners, context=ctx)
        assert stacked.stacked is True
        assert serial.stacked is False
        # stacked/seconds are provenance, excluded from equality:
        # both paths must produce bit-identical sweep content.
        assert stacked == serial
        assert stacked.design == "paper_fig2"
        assert [name for name, _ in stacked.corners] == ["slow", "fast"]
        assert stacked.dominant == "slow"
        assert stacked.to_dict()["corners"] == (("slow", 1.1), ("fast", 0.9))

    def test_run_scenarios_default_corners(self, ctx):
        result = api.run_scenarios("fig2", context=ctx)
        assert [name for name, _ in result.corners] == ["ss", "tt", "ff"]
        assert len(result.setup) == 3 and len(result.hold) == 3

    def test_what_if_deterministic(self, ctx):
        candidates = [
            [{"kind": "insert_buffer", "net": "n3", "buffer_cell": "BUF_U"}]
        ]
        a = api.what_if("fig2", candidates, ctx)
        b = api.what_if("fig2", candidates, ctx)
        assert a == b
        assert a.design == "paper_fig2"
        assert a.candidates[0].ok
        assert a.to_dict()["best"] in (0, None)

    def test_what_if_on_engine_restores_it(self, ctx):
        engine = api.make_engine("fig2", ctx)
        before = api.sta_result_from_engine(engine)
        api.what_if(
            engine,
            [[{"kind": "insert_buffer", "net": "n3", "buffer_cell": "BUF_U"}]],
        )
        assert api.sta_result_from_engine(engine) == before

    def test_min_period_deterministic(self, ctx):
        a = api.min_period("fig2", tolerance=1.0, context=ctx)
        b = api.min_period("fig2", tolerance=1.0, context=ctx)
        assert a == b
        assert a.wns_at_period >= 0.0
        assert a.bracket_high - a.bracket_low <= a.tolerance + 1e-9

    def test_min_period_corner_is_slower(self, ctx):
        nominal = api.min_period("fig2", context=ctx)
        slow = api.min_period("fig2", corner=("ss", 1.2), context=ctx)
        assert slow.period > nominal.period
        assert slow.corner == "ss:1.2"
