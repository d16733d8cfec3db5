"""Scenario-stacked kernel tests: the tier-1 bit-identity gate.

The contract under test (``repro.timing.scenarios``): one stacked
sweep over N scenarios leaves every engine **bit-identical** — IEEE-754
equality, dict insertion order included — to the scalar oracle's
``update_timing()`` of that scenario in isolation, across delay scales,
corner-private derating tables, and per-corner mGBA weights.  Structurally
incompatible scenario sets must raise :class:`ScenarioError`, and
:class:`MultiCornerAnalysis` must update the scalar-oracle engines the
stack refuses one by one (producing the same results) rather than fail.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.designs.generator import generate_design
from repro.timing.corners import Corner, MultiCornerAnalysis
from repro.timing.kernel import clear_layout_cache
from repro.timing.scenarios import ScenarioError, ScenarioStack
from repro.timing.sta import STAEngine

from tests.timing.strategies import corner_sets, design_specs

FOUR_CORNERS = (
    Corner("c0", 0.9),
    Corner("c1", 1.0),
    Corner("c2", 1.1),
    Corner("c3", 1.2),
)


def _mca(design, corners=FOUR_CORNERS, kernel="vector") -> \
        MultiCornerAnalysis:
    """An analysis with the kernel pinned in config."""
    return MultiCornerAnalysis(
        design.netlist, design.constraints, design.placement,
        replace(design.sta_config, kernel=kernel), corners,
    )


def _assert_engines_identical(a: STAEngine, b: STAEngine) -> None:
    """Full bit-identity: state, edges, slacks (order included)."""
    n = len(a.graph.nodes)
    e = len(a.graph.edges)
    for field in ("arrival_late", "arrival_early", "slew"):
        assert np.array_equal(
            getattr(a.state, field)[:n], getattr(b.state, field)[:n]
        ), field
    for field in ("derate_late", "derate_early"):
        assert np.array_equal(
            getattr(a.state, field)[:e], getattr(b.state, field)[:e]
        ), field
    live = [edge.id for edge in a.graph.edges if edge is not None]
    assert live == [edge.id for edge in b.graph.edges if edge is not None]
    for field in ("edge_delay", "edge_out_slew"):
        assert np.array_equal(
            getattr(a.state, field)[live], getattr(b.state, field)[live]
        ), field
    for kind in ("setup_slacks", "hold_slacks"):
        sa = [(s.name, s.slack) for s in getattr(a, kind)()]
        sb = [(s.name, s.slack) for s in getattr(b, kind)()]
        assert sa == sb, kind
    assert np.array_equal(
        np.asarray(a.required_times()), np.asarray(b.required_times())
    )
    assert a.gate_slacks() == b.gate_slacks()


def _updated_alone(mca: MultiCornerAnalysis) -> MultiCornerAnalysis:
    """Run each corner engine's own ``update_timing()`` (the reference)."""
    for engine in mca.engines.values():
        engine.update_timing()
    return mca


def _assert_matches_oracle(mca: MultiCornerAnalysis, design,
                           corners) -> None:
    """Every stacked engine equals a scalar-oracle engine updated alone.

    The reference is the scalar engine, not a lone vector engine: the
    stack runs the vector kernel's own level loop, so comparing against
    that loop would not catch a bug they share.
    """
    oracle = _updated_alone(_mca(design, corners, kernel="scalar"))
    for name in mca.engines:
        _assert_engines_identical(mca.engines[name], oracle.engines[name])
    assert [
        (m.name, m.slack, m.corner) for m in mca.merged_setup()
    ] == [
        (m.name, m.slack, m.corner) for m in oracle.merged_setup()
    ]
    assert mca.report() == oracle.report()


class TestStackedEquivalence:
    def test_stacked_path_taken_and_bit_identical(self, small_design):
        mca = _mca(small_design)
        mca.update_all()
        assert mca.last_update_mode == "stacked"
        _assert_matches_oracle(mca, small_design, FOUR_CORNERS)

    def test_corner_private_derating_tables(self, small_design):
        from repro.aocv.table import make_derating_table

        corners = (
            Corner("tight", 1.1, make_derating_table(sigma=0.15)),
            Corner("loose", 1.1, make_derating_table(sigma=0.55)),
            Corner("tt", 1.0),
        )
        mca = _mca(small_design, corners)
        mca.update_all()
        assert mca.last_update_mode == "stacked"
        _assert_matches_oracle(mca, small_design, corners)
        # The two sigma characterizations must actually disagree.
        tight = mca.engines["tight"].state
        loose = mca.engines["loose"].state
        n_edges = len(mca.engines["tight"].graph.edges)
        assert not np.array_equal(
            tight.derate_late[:n_edges], loose.derate_late[:n_edges]
        )

    def test_per_scenario_mgba_weights(self, small_design):
        mca = _mca(small_design)
        mca.update_all()
        layout = mca.engines["c0"]._ensure_layout()
        targets = list(layout.gates[:20])
        assert targets, "design has no data-cell arcs to weight"
        for i, name in enumerate(mca.engines):
            mca.engines[name].set_gate_weights(
                {g: 0.6 + 0.1 * i for g in targets}
            )
        before = {
            name: np.array(eng.state.arrival_late[:len(eng.graph.nodes)])
            for name, eng in mca.engines.items()
        }
        mca.update_all()
        assert mca.last_update_mode == "stacked"
        # Weights must have moved timing (guard against a no-op pass)...
        moved = any(
            not np.array_equal(
                before[name],
                eng.state.arrival_late[:len(eng.graph.nodes)],
            )
            for name, eng in mca.engines.items()
        )
        assert moved
        # ...and the weighted stack still matches weighted lone updates
        # of the scalar oracle.
        oracle = _mca(small_design, kernel="scalar")
        for i, name in enumerate(oracle.engines):
            oracle.engines[name].set_gate_weights(
                {g: 0.6 + 0.1 * i for g in targets}
            )
        _updated_alone(oracle)
        for name in mca.engines:
            _assert_engines_identical(
                mca.engines[name], oracle.engines[name]
            )

    def test_repeat_update_is_stable(self, small_design):
        mca = _mca(small_design)
        mca.update_all()
        first = {
            name: [(s.name, s.slack) for s in eng.setup_slacks()]
            for name, eng in mca.engines.items()
        }
        mca.update_all()
        assert mca.last_update_mode == "stacked"
        for name, eng in mca.engines.items():
            assert [
                (s.name, s.slack) for s in eng.setup_slacks()
            ] == first[name]


class TestPerScenarioBoundary:
    def test_modes_with_their_own_boundary_conditions(self, small_design):
        """A mode with its own input delays and slews fills its own
        boundary column (not the layout's) and still matches the oracle."""
        constraints = small_design.constraints
        mode = replace(constraints, io_delays=[
            replace(d, delay=d.delay + 37.5) if d.is_input else d
            for d in constraints.io_delays
        ])
        assert mode.io_delays != constraints.io_delays
        config = small_design.sta_config
        setups = [
            (constraints, config),
            (mode, replace(config, input_slew=config.input_slew * 3 + 10,
                           clock_slew=config.clock_slew + 4)),
        ]
        engines = [
            STAEngine(small_design.netlist, sdc, small_design.placement,
                      replace(cfg, kernel="vector"))
            for sdc, cfg in setups
        ]
        assert engines[0].boundary() != engines[1].boundary()
        ScenarioStack.from_engines(engines).update_all()
        for engine, (sdc, cfg) in zip(engines, setups):
            oracle = STAEngine(small_design.netlist, sdc,
                               small_design.placement,
                               replace(cfg, kernel="scalar"))
            oracle.update_timing()
            _assert_engines_identical(engine, oracle)


class TestStackedReductions:
    """The per-corner reductions production reads after a stacked sweep.

    The stack keeps no arrays of its own after ``update_all``: worst
    slacks, required times and the merged endpoint view are read off
    the engines it scattered into, and each must equal the same
    reduction over scalar-oracle engines updated one by one.  The last
    corner is a twin of ``c3``, so the merge meets a tie wherever
    ``c3`` is the worst corner.
    """

    CORNERS = FOUR_CORNERS + (Corner("c3_twin", 1.2),)

    @pytest.fixture(scope="class")
    def stacked(self, small_design):
        mca = _mca(small_design, self.CORNERS)
        mca.update_all()
        assert mca.last_update_mode == "stacked"
        return mca

    @pytest.fixture(scope="class")
    def oracle(self, small_design):
        return _updated_alone(_mca(small_design, self.CORNERS, "scalar"))

    def test_worst_slacks_match_per_engine_wns(self, stacked, oracle):
        summaries = stacked.summary()
        expected = oracle.summary()
        for name, eng in stacked.engines.items():
            wns = summaries[name]["setup"].wns
            assert wns == min(s.slack for s in eng.setup_slacks())
            assert wns == expected[name]["setup"].wns
        # One column per corner: distinct scales give distinct WNS.
        assert len({summaries[c.name]["setup"].wns
                    for c in FOUR_CORNERS}) == len(FOUR_CORNERS)

    def test_required_all_rows_match_required_times(self, stacked, oracle):
        for name, eng in stacked.engines.items():
            assert np.array_equal(
                np.asarray(eng.required_times()),
                np.asarray(oracle.engines[name].required_times()),
            ), name

    def test_merged_setup_ordering_and_tie_break(self, stacked, oracle):
        merged = stacked.merged_setup()
        slacks = [m.slack for m in merged]
        assert slacks == sorted(slacks)
        per_corner = [
            {s.name: s.slack for s in eng.setup_slacks()}
            for eng in stacked.engines.values()
        ]
        names = list(stacked.engines)
        ties = 0
        for m in merged:
            column = [slacks_of[m.name] for slacks_of in per_corner]
            assert m.slack == min(column)
            # Ties keep the first (declaration-order) corner.
            assert m.corner == names[column.index(min(column))]
            ties += column.count(m.slack) > 1
        assert ties > 0
        assert "c3_twin" not in {m.corner for m in merged}
        assert [(m.name, m.slack, m.corner) for m in merged] == [
            (m.name, m.slack, m.corner) for m in oracle.merged_setup()
        ]


class TestFallback:
    def test_scalar_engines_take_the_serial_loop(self, small_design):
        mca = _mca(small_design, kernel="scalar")
        mca.update_all()
        assert mca.last_update_mode == "serial"
        stacked = _mca(small_design)
        stacked.update_all()
        assert stacked.last_update_mode == "stacked"
        for name in mca.engines:
            _assert_engines_identical(
                mca.engines[name], stacked.engines[name]
            )


class TestValidation:
    def test_empty_stack_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioStack.from_engines([])

    def test_name_count_mismatch_rejected(self, small_engine):
        with pytest.raises(ScenarioError):
            ScenarioStack.from_engines([small_engine], ["a", "b"])

    def test_scalar_engine_rejected(self, small_design):
        engine = STAEngine(
            small_design.netlist, small_design.constraints,
            small_design.placement,
            replace(small_design.sta_config, kernel="scalar"),
        )
        with pytest.raises(ScenarioError, match="kernel"):
            ScenarioStack.from_engines([engine])

    def test_different_netlist_objects_rejected(self, small_design,
                                                fresh_small_design):
        a = STAEngine(
            small_design.netlist, small_design.constraints,
            small_design.placement,
            replace(small_design.sta_config, kernel="vector"),
        )
        b = STAEngine(
            fresh_small_design.netlist, fresh_small_design.constraints,
            fresh_small_design.placement,
            replace(fresh_small_design.sta_config, kernel="vector"),
        )
        with pytest.raises(ScenarioError, match="netlist"):
            ScenarioStack.from_engines([a, b])


class TestLayoutCache:
    def test_shared_layout_hits_content_cache(self, fresh_small_design):
        from repro.obs.metrics import default_registry

        clear_layout_cache()
        registry = default_registry()
        hits_before = registry.counter("kernel.layout_cache_hits").value
        mca = _mca(fresh_small_design)
        mca.update_all()
        oracle = _updated_alone(
            _mca(fresh_small_design, (Corner("tt", 1.0),))
        )
        hits_after = registry.counter("kernel.layout_cache_hits").value
        assert hits_after > hits_before
        _assert_engines_identical(
            mca.engines["c1"], oracle.engines["tt"]
        )
        clear_layout_cache()


# ----------------------------------------------------------------------
# Hypothesis: random reconvergent designs × random scenario sets
# ----------------------------------------------------------------------
class TestRandomScenarioSets:
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=design_specs(max_flops=10), corners=corner_sets())
    def test_stacked_matches_per_scenario_oracle(self, spec, corners):
        design = generate_design(spec)
        mca = _mca(design, corners)
        mca.update_all()
        assert mca.last_update_mode == "stacked"
        _assert_matches_oracle(mca, design, corners)
