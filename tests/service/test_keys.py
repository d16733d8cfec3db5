"""Content-addressing tests: keys move iff the content moves."""

import dataclasses

from repro import api
from repro.context import RunContext
from repro.mgba.flow import MGBAFlow
from repro.netlist.edit import resize_gate
from repro.service import keys
from tests.conftest import SMALL_SPEC, engine_for

from repro.designs.generator import generate_design


class TestComponentHashes:
    def test_same_content_same_key(self):
        a = generate_design(SMALL_SPEC)
        b = generate_design(SMALL_SPEC)
        assert keys.netlist_hash(a.netlist) == keys.netlist_hash(b.netlist)
        ka = keys.design_key(a.netlist, a.constraints, a.placement,
                             a.sta_config)
        kb = keys.design_key(b.netlist, b.constraints, b.placement,
                             b.sta_config)
        assert ka == kb and ka.token == kb.token

    def test_edit_rotates_netlist_hash(self):
        design = generate_design(SMALL_SPEC)
        before = keys.netlist_hash(design.netlist)
        gate = design.netlist.combinational_gates()[0]
        if resize_gate(design.netlist, gate, up=True) is None:
            resize_gate(design.netlist, gate, up=False)
        assert keys.netlist_hash(design.netlist) != before

    def test_missing_placement_is_stable(self):
        assert keys.placement_hash(None) == "none"

    def test_corner_lives_in_config_hash(self):
        design = generate_design(SMALL_SPEC)
        fast = dataclasses.replace(design.sta_config, delay_scale=0.8)
        assert (keys.sta_config_hash(design.sta_config)
                != keys.sta_config_hash(fast))

    def test_flat_derate_past_sixth_digit_moves_key(self):
        a = generate_design(SMALL_SPEC)
        b = generate_design(SMALL_SPEC)
        a.constraints.flat_derate_late = 1.5000001
        b.constraints.flat_derate_late = 1.5000004
        assert keys.sdc_hash(a.constraints) != keys.sdc_hash(b.constraints)

    def test_clock_period_past_sixth_digit_moves_key(self):
        a = generate_design(SMALL_SPEC)
        b = generate_design(SMALL_SPEC)
        # 1.234561 ns and 1.234562 ns: equal at six significant digits.
        a.constraints.primary_clock().period = 1234.561
        b.constraints.primary_clock().period = 1234.562
        ka = keys.design_key(a.netlist, a.constraints, a.placement,
                             a.sta_config)
        kb = keys.design_key(b.netlist, b.constraints, b.placement,
                             b.sta_config)
        assert ka.sdc != kb.sdc and ka.token != kb.token

    def test_derate_value_past_sixth_digit_moves_key(self):
        from repro.aocv.table import DeratingTable

        def config(corner_value):
            table = DeratingTable(
                [1, 2], [0.0, 100.0], [[1.2, corner_value], [1.3, 1.1]]
            )
            return dataclasses.replace(
                generate_design(SMALL_SPEC).sta_config,
                derating_table=table,
            )

        assert (keys.sta_config_hash(config(1.2345671))
                != keys.sta_config_hash(config(1.2345672)))

    def test_digest_separator(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert keys.digest(["ab", "c"]) != keys.digest(["a", "bc"])


class TestArtifactKeys:
    def test_pba_key_varies_with_knobs(self):
        design = generate_design(SMALL_SPEC)
        dk = keys.design_key(design.netlist, design.constraints,
                             design.placement, design.sta_config)
        base = keys.pba_slacks_key(dk, 64, False, "table")
        assert keys.pba_slacks_key(dk, 32, False, "table") != base
        assert keys.pba_slacks_key(dk, 64, True, "table") != base
        assert keys.pba_slacks_key(dk, 64, False, "none") != base

    def test_problem_fingerprint_deterministic(self):
        ctx = RunContext(workers=1, backend="serial", solver="direct",
                         k_per_endpoint=6)

        def build():
            engine = engine_for(generate_design(SMALL_SPEC))
            engine.update_timing()
            result = MGBAFlow(context=ctx).run(engine, apply=False)
            return result.problem

        fp_a = keys.problem_fingerprint(build())
        fp_b = keys.problem_fingerprint(build())
        assert fp_a == fp_b
        # The solver config is part of the solve key, not the A matrix.
        assert (keys.solve_key(fp_a, "direct", 0)
                != keys.solve_key(fp_a, "scg+rs", 0))
        assert (keys.solve_key(fp_a, "scg+rs", 0)
                != keys.solve_key(fp_a, "scg+rs", 1))

    def test_auto_solve_key_names_the_solver_that_runs(self):
        """``"auto"`` shares the x* of the solver it picks, and only it."""
        from repro.mgba.flow import MGBAConfig
        from repro.service.engine import _SolveCache

        engine = engine_for(generate_design(SMALL_SPEC))
        problem = MGBAFlow(MGBAConfig(k_per_endpoint=4)).run(
            engine, apply=False
        ).problem
        key = _SolveCache(None)._key
        auto = key(problem, MGBAConfig(solver="auto"))
        assert MGBAConfig().solver_for(problem) == "direct"
        assert auto == key(problem, MGBAConfig(solver="direct"))
        assert auto != key(problem, MGBAConfig(solver="scg+rs"))

    def test_auto_fit_key_covers_the_crossover(self, monkeypatch):
        from repro.mgba import flow

        before = RunContext(solver="auto").fit_fingerprint()
        monkeypatch.setattr(flow, "AUTO_DIRECT_MAX_GRAM_MULTIPLIES",
                            flow.AUTO_DIRECT_MAX_GRAM_MULTIPLIES + 1)
        assert RunContext(solver="auto").fit_fingerprint() != before

    def test_fit_key_covers_fit_knobs(self):
        design = generate_design(SMALL_SPEC)
        dk = keys.design_key(design.netlist, design.constraints,
                             design.placement, design.sta_config)
        a = keys.fit_key(dk, RunContext(solver="direct").fit_fingerprint())
        b = keys.fit_key(dk, RunContext(solver="scg+rs").fit_fingerprint())
        c = keys.fit_key(dk, RunContext(solver="direct",
                                        epsilon=0.2).fit_fingerprint())
        assert len({a, b, c}) == 3

    def test_scenario_key_covers_corner_matrix(self):
        design = generate_design(SMALL_SPEC)
        dk = keys.design_key(design.netlist, design.constraints,
                             design.placement, design.sta_config)
        base = keys.scenario_key(dk, [("ss", 1.15), ("ff", 0.87)])
        assert keys.scenario_key(dk, [("ss", 1.15), ("ff", 0.87)]) == base
        # Scale, name, order, and cardinality all rotate the key.
        assert keys.scenario_key(dk, [("ss", 1.2), ("ff", 0.87)]) != base
        assert keys.scenario_key(dk, [("sf", 1.15), ("ff", 0.87)]) != base
        assert keys.scenario_key(dk, [("ff", 0.87), ("ss", 1.15)]) != base
        assert keys.scenario_key(dk, [("ss", 1.15)]) != base

    def test_fig2_key_stable_across_loads(self):
        a = api.load_design("fig2")
        b = api.load_design("fig2")
        assert (keys.design_key(a.netlist, a.constraints, None,
                                a.sta_config).token
                == keys.design_key(b.netlist, b.constraints, None,
                                   b.sta_config).token)
