"""Multi-corner analysis tests."""

import pytest

from repro.errors import TimingError
from repro.timing.corners import (
    DEFAULT_CORNERS,
    Corner,
    MultiCornerAnalysis,
)
from repro.timing.slack import CheckKind


@pytest.fixture(scope="module")
def mca(small_design):
    analysis = MultiCornerAnalysis(
        small_design.netlist, small_design.constraints,
        small_design.placement, small_design.sta_config,
    )
    analysis.update_all()
    return analysis


class TestConstruction:
    def test_three_default_corners(self, mca):
        assert set(mca.engines) == {"ss", "tt", "ff"}

    def test_duplicate_corner_names_rejected(self, small_design):
        with pytest.raises(TimingError):
            MultiCornerAnalysis(
                small_design.netlist, small_design.constraints,
                small_design.placement, small_design.sta_config,
                corners=(Corner("tt", 1.0), Corner("tt", 1.1)),
            )

    def test_empty_corners_rejected(self, small_design):
        with pytest.raises(TimingError):
            MultiCornerAnalysis(
                small_design.netlist, small_design.constraints,
                small_design.placement, small_design.sta_config,
                corners=(),
            )

    def test_unknown_corner_lookup(self, mca):
        with pytest.raises(TimingError):
            mca.engine("sf")


class TestCornerOrdering:
    def test_ss_slower_than_tt_slower_than_ff(self, mca):
        """Setup WNS orders with the delay scale."""
        summaries = mca.summary()
        assert summaries["ss"]["setup"].wns < summaries["tt"]["setup"].wns
        assert summaries["tt"]["setup"].wns < summaries["ff"]["setup"].wns

    def test_hold_scales_toward_zero_at_fast_corner(self, mca):
        """Pure proportional scaling shrinks hold margins' magnitude at
        the fast corner (slack ~ scale * (early_data - late_ck) - hold);
        which corner *dominates* depends on each endpoint's sign, which
        is exactly why hold is signed off multi-corner."""
        tt = {s.name: s.slack for s in mca.engine("tt").hold_slacks()}
        ff = {s.name: s.slack for s in mca.engine("ff").hold_slacks()}
        shrunk = sum(
            1 for name in tt if abs(ff[name]) <= abs(tt[name]) + 1e-6
        )
        assert shrunk >= 0.5 * len(tt)

    def test_setup_dominant_corner_is_ss(self, mca):
        assert mca.dominant_corner(CheckKind.SETUP) == "ss"

    def test_delay_scale_actually_scales(self, mca):
        """TT vs SS arrivals differ by ~the corner ratio on data paths."""
        tt = mca.engine("tt")
        ss = mca.engine("ss")
        worst_tt = min(tt.setup_slacks(), key=lambda s: s.slack)
        same_ss = next(
            s for s in ss.setup_slacks() if s.name == worst_tt.name
        )
        ratio = same_ss.arrival / worst_tt.arrival
        assert 1.10 < ratio < 1.20


class TestMerging:
    def test_merged_covers_every_endpoint(self, mca):
        merged = mca.merged_setup()
        assert len(merged) == len(
            mca.engine("tt").graph.endpoint_nodes()
        )

    def test_merged_is_pointwise_minimum(self, mca):
        merged = {m.name: m for m in mca.merged_setup()}
        for corner_name, engine in mca.engines.items():
            for s in engine.setup_slacks():
                assert merged[s.name].slack <= s.slack + 1e-9

    def test_merged_sorted_worst_first(self, mca):
        merged = mca.merged_setup()
        slacks = [m.slack for m in merged]
        assert slacks == sorted(slacks)

    def test_ties_go_to_the_first_declared_corner(self):
        from repro.designs.suite import build_design

        design = build_design("D1")
        analysis = MultiCornerAnalysis(
            design.netlist, design.constraints, design.placement,
            design.sta_config,
            corners=(Corner("a", 1.0), Corner("b", 1.0)),
        )
        analysis.update_all()
        merged = analysis.merged_setup()
        assert len(merged) == len(
            analysis.engine("a").graph.endpoint_nodes()
        )
        assert merged and all(m.corner == "a" for m in merged)

    def test_report_mentions_all_corners(self, mca):
        text = mca.report()
        for corner in DEFAULT_CORNERS:
            assert corner.name in text
        assert "merged setup WNS" in text
