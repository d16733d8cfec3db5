"""D1-D10 suite tests (structure only; heavy analysis lives in benches)."""

import pytest

from repro.designs.suite import (
    DESIGN_SPECS,
    build_design,
    design_factory,
    design_names,
)
from repro.errors import ReproError


class TestSuite:
    def test_ten_designs(self):
        assert design_names() == [f"D{i}" for i in range(1, 11)]

    def test_specs_are_distinct(self):
        seeds = {spec.seed for spec in DESIGN_SPECS.values()}
        assert len(seeds) == 10

    def test_unknown_design(self):
        with pytest.raises(ReproError, match="unknown design 'D99'"):
            build_design("D99")

    def test_build_returns_fresh_copies(self):
        a = build_design("D1")
        b = build_design("D1")
        assert a.netlist is not b.netlist
        victim = a.netlist.combinational_gates()[0]
        a.netlist.remove_gate(victim)
        # b is unaffected by mutating a.
        assert victim in b.netlist.gates

    def test_factory_shape(self):
        factory = design_factory("D1")
        netlist, constraints, placement, sta_config = factory()
        assert netlist.name == "D1"
        assert constraints.primary_clock().period > 0
        assert placement.locations
        assert sta_config.derating_table is not None

    def test_d1_has_violations(self):
        from tests.conftest import engine_for

        design = build_design("D1")
        engine = engine_for(design)
        assert engine.summary().violations > 0

    def test_suite_scale_env(self, monkeypatch):
        base_flops = len(build_design("D1").netlist.sequential_gates())
        monkeypatch.setenv("REPRO_SUITE_SCALE", "0.5")
        scaled = len(build_design("D1").netlist.sequential_gates())
        assert scaled == max(4, int(0.5 * base_flops))

    def test_bad_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_SCALE", "fast")
        with pytest.raises(ValueError):
            build_design("D1")
        monkeypatch.setenv("REPRO_SUITE_SCALE", "-1")
        with pytest.raises(ValueError):
            build_design("D1")
