"""What-if evaluation tests: in sequence == alone, always reverted.

The module's contract has three legs, each gated here:

* **order transparency** — ``evaluate_what_if`` runs candidates in
  sequence on one engine and returns bit-identical frozen results to
  each candidate scored alone on a fresh engine;
* **clean revert** — every apply/measure/revert cycle leaves the
  engine (netlist content *and* timing state) exactly where it
  started, property-tested with hypothesis-random resize edit lists
  and checked against a from-scratch full update;
* **deterministic min-period** — the bisection's bracket/tolerance
  contract is a pure function of content, not of evaluation order.

A candidate that cannot apply scores ``ok=False``; any other error is
a bug and escapes.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.designs.generator import generate_design
from repro.errors import NetlistError, ParseError
from repro.netlist.verilog import write_verilog
from repro.opt.whatif import (
    WhatIfError,
    evaluate_candidate_on_engine,
    evaluate_what_if,
    min_period_on_engine,
    normalize_candidate,
    parse_eco_candidate,
    _snapshot,
)
from tests.conftest import SMALL_SPEC, engine_for

#: Hypothesis edit scripts: (gate index, direction) resize lists, the
#: same shape tests/service/test_invalidation.py drives.
EDIT_LISTS = st.lists(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.booleans()),
        min_size=1, max_size=3,
    ),
    min_size=1, max_size=4,
)


def resize_specs(netlist, script):
    """(index, up) pairs -> concrete resize specs on real gates."""
    gates = netlist.combinational_gates()
    return [
        {"kind": "resize", "gate": gates[index % len(gates)], "up": up}
        for index, up in script
    ]


def small_candidates(netlist):
    """A deterministic mixed candidate list on the small design."""
    gates = netlist.combinational_gates()
    nets = [
        n for n in netlist.nets
        if netlist.net_driver(n) is not None
        and netlist.net_loads(n)
        and not any(r.is_port for r in netlist.net_loads(n))
    ]
    return [
        [{"kind": "resize", "gate": gates[0], "up": True}],
        [{"kind": "resize", "gate": gates[1], "up": False}],
        [
            {"kind": "resize", "gate": gates[2], "up": True},
            {"kind": "resize", "gate": gates[3], "up": True},
        ],
        [{"kind": "insert_buffer", "net": nets[0],
          "buffer_cell": "BUF_X2"}],
        [{"kind": "vt_swap", "gate": gates[0], "vt": "lvt"}],
    ]


class TestNormalize:
    def test_spec_list_and_eco_text_coincide(self):
        specs = [{"kind": "size_cell", "gate": "u1", "cell": "NAND2_X4"}]
        text = "size_cell u1 NAND2_X4\n# comment\n"
        assert normalize_candidate(specs) == normalize_candidate(text)

    def test_bare_spec_is_wrapped(self):
        spec = {"kind": "remove_buffer", "gate": "b1"}
        assert normalize_candidate(spec) == normalize_candidate([spec])

    def test_frozen_pairs_round_trip(self):
        canonical = normalize_candidate(
            [{"kind": "resize", "gate": "u1", "up": 1}]
        )
        assert normalize_candidate(list(canonical)) == canonical
        assert canonical[0] == (("gate", "u1"), ("kind", "resize"),
                                ("up", True))

    def test_unknown_kind_rejected(self):
        with pytest.raises(WhatIfError, match="unknown edit kind"):
            normalize_candidate([{"kind": "teleport", "gate": "u1"}])

    def test_missing_field_rejected(self):
        with pytest.raises(WhatIfError, match="missing"):
            normalize_candidate([{"kind": "resize", "up": True}])

    def test_unknown_field_rejected(self):
        with pytest.raises(WhatIfError, match="unknown fields"):
            normalize_candidate(
                [{"kind": "resize", "gate": "u1", "up": True, "x": 1}]
            )

    def test_empty_candidate_rejected(self):
        with pytest.raises(WhatIfError, match="no edits"):
            normalize_candidate([])

    def test_bad_eco_line_reports_lineno(self):
        with pytest.raises(ParseError) as err:
            parse_eco_candidate("size_cell u1 NAND2_X4\nwibble u1\n")
        assert err.value.line == 2


class TestParallelEquivalence:
    def test_duplicates_evaluate_once_but_report_per_position(
        self, fresh_small_design
    ):
        gates = fresh_small_design.netlist.combinational_gates()
        candidate = [{"kind": "resize", "gate": gates[0], "up": True}]
        result = evaluate_what_if(fresh_small_design, [candidate, candidate])
        assert len(result.candidates) == 2
        assert result.candidates[0] == result.candidates[1]

    def test_eco_text_equals_spec_list(self, fresh_small_design):
        gates = fresh_small_design.netlist.combinational_gates()
        specs = evaluate_what_if(
            fresh_small_design,
            [[{"kind": "resize", "gate": gates[0], "up": True}]],
        )
        assert specs.candidates[0].ok
        text = "\n".join(specs.candidates[0].eco)
        replay = evaluate_what_if(generate_design(SMALL_SPEC), [text])
        assert replay.candidates[0] == specs.candidates[0]


class TestFailures:
    def test_inapplicable_candidates_score_not_ok(self, fresh_small_design):
        gate = fresh_small_design.netlist.combinational_gates()[0]
        candidates = [
            [{"kind": "resize", "gate": "no_such_gate", "up": True}],
            [{"kind": "size_cell", "gate": gate, "cell": "NO_SUCH_CELL"}],
            [{"kind": "insert_buffer", "net": "no_such_net",
              "buffer_cell": "BUF_X2"}],
            # Runs off the end of the gate's size family.
            [{"kind": "resize", "gate": gate, "up": True}] * 20,
        ]
        result = evaluate_what_if(fresh_small_design, candidates)
        assert [c.ok for c in result.candidates] == [False] * 4
        assert all(c.error for c in result.candidates)

    def test_kernel_error_escapes_after_the_undos(
        self, fresh_small_design, monkeypatch
    ):
        """An IndexError is a bug, not a failed candidate."""
        from repro.timing.sta import STAEngine

        gates = fresh_small_design.netlist.combinational_gates()
        verilog_before = write_verilog(fresh_small_design.netlist)
        applied = []
        real_apply = STAEngine.apply_change

        def faulty_apply(engine, change):
            applied.append(change.description)
            if len(applied) == 2:
                raise IndexError("injected kernel fault")
            return real_apply(engine, change)

        monkeypatch.setattr(STAEngine, "apply_change", faulty_apply)
        with pytest.raises(IndexError, match="injected kernel fault"):
            evaluate_what_if(fresh_small_design, [[
                {"kind": "resize", "gate": gates[0], "up": True},
                {"kind": "resize", "gate": gates[2], "up": True},
            ]])
        assert write_verilog(fresh_small_design.netlist) == verilog_before
        # Two applies, the second faulting, then the faulting edit's
        # own undo and the first edit's undo.
        assert len(applied) == 4
        assert applied[2] == applied[1]
        assert applied[3] == applied[0]

    @pytest.mark.parametrize("position", [0, 3], ids=["resize", "buffer"])
    def test_mirror_error_undoes_its_own_edit(
        self, fresh_small_design, monkeypatch, position
    ):
        """A ReproError from ``apply_change`` leaves nothing behind."""
        from repro.timing.sta import STAEngine

        engine = engine_for(fresh_small_design)
        engine.update_timing()
        base = _snapshot(engine)
        verilog_before = write_verilog(engine.netlist)
        placement_before = dict(engine.placement.locations)
        candidate = normalize_candidate(
            small_candidates(engine.netlist)[position]
        )
        real_apply = STAEngine.apply_change
        faults = []

        def fails_once(target, change):
            if not faults:
                faults.append(change.description)
                raise NetlistError("injected mirror fault")
            return real_apply(target, change)

        monkeypatch.setattr(STAEngine, "apply_change", fails_once)
        result = evaluate_candidate_on_engine(engine, candidate, base)
        assert faults and not result.ok
        assert "injected mirror fault" in result.error
        assert write_verilog(engine.netlist) == verilog_before
        assert engine.placement.locations == placement_before
        assert _snapshot(engine) == base
        # The engine stays usable: the same candidate now scores.
        assert evaluate_candidate_on_engine(engine, candidate, base).ok


class TestSequentialBitIdentity:
    """Each candidate == a fresh-engine apply -> full update, reverted."""

    def test_candidates_match_fresh_engine_full_update(
        self, fresh_small_design
    ):
        candidates = small_candidates(fresh_small_design.netlist)
        result = evaluate_what_if(fresh_small_design, candidates)
        for candidate, scored in zip(candidates, result.candidates):
            if not scored.ok:
                continue
            twin = generate_design(SMALL_SPEC)
            engine = engine_for(twin)
            engine.update_timing()
            base = _snapshot(engine)
            probe = evaluate_candidate_on_engine(
                engine, normalize_candidate(candidate), base
            )
            assert probe == scored

    def test_engine_restored_after_each_candidate(self, fresh_small_design):
        engine = engine_for(fresh_small_design)
        engine.update_timing()
        verilog_before = write_verilog(engine.netlist)
        base = _snapshot(engine)
        for candidate in small_candidates(engine.netlist):
            evaluate_candidate_on_engine(
                engine, normalize_candidate(candidate), base
            )
            assert write_verilog(engine.netlist) == verilog_before
            assert _snapshot(engine) == base

    def test_incremental_revert_matches_full_update(self, fresh_small_design):
        engine = engine_for(fresh_small_design)
        engine.update_timing()
        base = _snapshot(engine)
        for candidate in small_candidates(engine.netlist):
            evaluate_candidate_on_engine(
                engine, normalize_candidate(candidate), base
            )
        engine.update_timing()  # full recompute over the reverted content
        assert _snapshot(engine) == base

    def test_failed_candidate_reverts_applied_prefix(
        self, fresh_small_design
    ):
        engine = engine_for(fresh_small_design)
        engine.update_timing()
        base = _snapshot(engine)
        gates = engine.netlist.combinational_gates()
        result = evaluate_candidate_on_engine(
            engine,
            normalize_candidate([
                {"kind": "resize", "gate": gates[0], "up": True},
                {"kind": "remove_buffer", "gate": gates[0]},  # not a buffer
            ]),
            base,
        )
        assert not result.ok
        assert result.applied == 1  # the prefix was applied, then undone
        assert result.eco == () and result.touched == ()
        assert _snapshot(engine) == base

    def test_remove_buffer_round_trip(self, fresh_small_design):
        engine = engine_for(fresh_small_design)
        engine.update_timing()
        nets = [
            n for n in engine.netlist.nets
            if engine.netlist.net_driver(n) is not None
            and engine.netlist.net_loads(n)
            and not any(
                r.is_port for r in engine.netlist.net_loads(n)
            )
        ]
        base = _snapshot(engine)
        combo = normalize_candidate([
            {"kind": "insert_buffer", "net": nets[0],
             "buffer_cell": "BUF_X2", "buffer": "tbuf", "new_net": "tnet"},
        ])
        result = evaluate_candidate_on_engine(engine, combo, base)
        assert result.ok
        assert _snapshot(engine) == base
        # Now exercise remove_buffer as a first-class spec.
        from repro.netlist.edit import insert_buffer

        change = insert_buffer(
            engine.netlist, nets[0], "BUF_X2",
            placement=engine.placement,
            buffer_name="tbuf", new_net_name="tnet",
        )
        engine.apply_change(change)
        buffered = _snapshot(engine)
        verilog_buffered = write_verilog(engine.netlist)
        removal = evaluate_candidate_on_engine(
            engine,
            normalize_candidate([{"kind": "remove_buffer", "gate": "tbuf"}]),
            buffered,
        )
        assert removal.ok
        assert removal.wns_after == base.wns
        assert write_verilog(engine.netlist) == verilog_buffered
        assert _snapshot(engine) == buffered


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scripts=EDIT_LISTS)
def test_random_resize_lists_parallel_equals_sequential(scripts):
    """Hypothesis leg: arbitrary resize edit lists stay order-transparent.

    Each drawn script becomes one candidate; evaluation on one live
    engine must equal evaluation on a fresh design, and the live engine
    must come back to its exact baseline (checked via a full update).
    """
    design = generate_design(SMALL_SPEC)
    candidates = [
        resize_specs(design.netlist, script) for script in scripts
    ]
    serial_engine = engine_for(design)
    serial_engine.update_timing()
    base = _snapshot(serial_engine)
    serial = evaluate_what_if(design, candidates, engine=serial_engine)
    parallel = evaluate_what_if(generate_design(SMALL_SPEC), candidates)
    assert serial == parallel
    serial_engine.update_timing()
    assert _snapshot(serial_engine) == base


class TestMinPeriod:
    def test_bracket_contract(self, fresh_small_design):
        engine = engine_for(fresh_small_design)
        result = min_period_on_engine(engine, tolerance=1.0)
        assert result.wns_at_period >= 0.0
        assert result.bracket_high == result.period
        assert result.bracket_high - result.bracket_low <= 1.0 + 1e-9
        assert result.evaluations >= result.iterations

    def test_deterministic_across_engines(self, fresh_small_design):
        a = min_period_on_engine(engine_for(fresh_small_design))
        b = min_period_on_engine(engine_for(generate_design(SMALL_SPEC)))
        assert a == b

    def test_search_restores_clock_and_timing(self, fresh_small_design):
        engine = engine_for(fresh_small_design)
        engine.update_timing()
        clock = engine.constraints.primary_clock()
        period_before = clock.period
        base = _snapshot(engine)
        min_period_on_engine(engine)
        assert clock.period == period_before
        assert _snapshot(engine) == base

    def test_tighter_tolerance_never_worse(self, fresh_small_design):
        coarse = min_period_on_engine(
            engine_for(fresh_small_design), tolerance=8.0
        )
        fine = min_period_on_engine(
            engine_for(generate_design(SMALL_SPEC)), tolerance=0.5
        )
        assert fine.period <= coarse.period + 1e-9
        assert fine.bracket_high - fine.bracket_low <= 0.5 + 1e-9

    def test_unknown_clock_rejected(self, fresh_small_design):
        with pytest.raises(Exception):
            min_period_on_engine(
                engine_for(fresh_small_design), clock="no_such_clock"
            )
