"""Pessimism-analysis tests."""

import math

import pytest

from repro.analysis import (
    EndpointPessimism,
    format_pessimism_report,
    pessimism_report,
    summarize_pessimism,
)
from repro.obs import default_registry
from repro.pba import engine as pba_engine
from tests.conftest import engine_for


@pytest.fixture(scope="module")
def rows(small_design):
    return pessimism_report(engine_for(small_design))


class TestReport:
    def test_covers_endpoints(self, rows, small_design):
        engine = engine_for(small_design)
        assert len(rows) == len(engine.graph.endpoint_nodes())

    def test_sorted_worst_first(self, rows):
        slacks = [r.gba_slack for r in rows]
        assert slacks == sorted(slacks)

    def test_pessimism_nonnegative(self, rows):
        for row in rows:
            assert row.pessimism >= -1e-9

    def test_phantom_detection(self, rows):
        """Generated designs have phantom violations by construction."""
        phantoms = [r for r in rows if r.is_phantom_violation]
        assert phantoms
        for row in phantoms:
            assert row.gba_slack < 0 <= row.golden_slack

    def test_fig2_phantom(self, fig2_engine):
        rows = pessimism_report(fig2_engine, k_paths=4)
        by_name = {r.name: r for r in rows}
        ff4 = by_name["FF4/D"]
        assert ff4.is_phantom_violation
        assert ff4.pessimism == pytest.approx(50.0)


class TestGoldenFailures:
    def test_pathless_endpoint_skipped_and_counted(
        self, small_design, monkeypatch
    ):
        engine = engine_for(small_design)
        skipped = engine.graph.endpoint_nodes()[0]
        real = pba_engine.enumerate_worst_paths

        def enumerate_without(graph, state, k, endpoints=None, **kwargs):
            paths = real(graph, state, k, endpoints, **kwargs)
            return [path for path in paths if path.endpoint != skipped]

        monkeypatch.setattr(
            pba_engine, "enumerate_worst_paths", enumerate_without
        )
        skips = default_registry().counter("pba.pathless_endpoints")
        before = skips.value
        rows = pessimism_report(engine)
        assert len(rows) == len(engine.graph.endpoint_nodes()) - 1
        name = {s.node: s.name for s in engine.setup_slacks()}[skipped]
        assert name not in {row.name for row in rows}
        assert skips.value == before + 1

    def test_other_errors_propagate(self, small_design, monkeypatch):
        def broken(graph, state, k, endpoints=None, **kwargs):
            raise IndexError("injected PBA fault")

        monkeypatch.setattr(pba_engine, "enumerate_worst_paths", broken)
        with pytest.raises(IndexError, match="injected PBA fault"):
            pessimism_report(engine_for(small_design))


class TestSummary:
    def test_counts_consistent(self, rows):
        summary = summarize_pessimism(rows)
        assert summary.endpoints == len(rows)
        assert (
            summary.real_violations + summary.phantom_violations
            == summary.gba_violations
        )
        assert 0 <= summary.phantom_fraction <= 1

    def test_mean_max_relation(self, rows):
        summary = summarize_pessimism(rows)
        assert summary.mean_pessimism <= summary.max_pessimism + 1e-9

    def test_empty(self):
        summary = summarize_pessimism([])
        assert summary.endpoints == 0
        assert summary.phantom_fraction == 0.0

    def test_infinite_pessimism_excluded_from_mean(self):
        rows = [
            EndpointPessimism("a", -10.0, float("inf")),
            EndpointPessimism("b", -10.0, 5.0),
        ]
        summary = summarize_pessimism(rows)
        assert math.isfinite(summary.mean_pessimism)
        assert summary.mean_pessimism == pytest.approx(15.0)


class TestFormatting:
    def test_verdicts_appear(self, rows):
        text = format_pessimism_report(rows)
        assert "PHANTOM" in text
        assert "pessimism mean / max" in text

    def test_row_cap(self, rows):
        text = format_pessimism_report(rows, max_rows=2)
        assert "more endpoints" in text


class TestCli:
    def test_pessimism_command(self, capsys):
        from repro.cli import main

        assert main(["pessimism", "D1", "--k-paths", "6", "--rows", "5"]) == 0
        out = capsys.readouterr().out
        assert "Pessimism report" in out
        assert "phantom" in out
