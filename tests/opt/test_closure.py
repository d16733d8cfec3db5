"""Closure-loop tests."""


from repro.opt.closure import ClosureConfig, TimingClosureOptimizer
from repro.designs.generator import DesignSpec, generate_design
from tests.conftest import SMALL_SPEC


def _optimizer(config=None, spec=SMALL_SPEC):
    design = generate_design(spec)
    return TimingClosureOptimizer(
        design.netlist, design.constraints, design.placement,
        design.sta_config, config or ClosureConfig(max_transforms=120),
    )


class TestGBAFlow:
    def test_fixes_violations(self):
        optimizer = _optimizer()
        report = optimizer.run()
        assert report.initial.violations > 0
        assert report.final.violations <= report.initial.violations
        assert report.final.wns > report.initial.wns

    def test_report_accounting(self):
        report = _optimizer().run()
        assert report.transforms_tried >= report.transforms_applied
        assert report.seconds_total > 0
        assert report.seconds_mgba == 0.0
        assert report.mgba_result is None

    def test_budget_respected(self):
        config = ClosureConfig(max_transforms=5, recovery=False)
        report = _optimizer(config).run()
        assert report.transforms_applied <= 5

    def test_acceptable_violations_early_exit(self):
        lenient = ClosureConfig(max_transforms=200,
                                acceptable_violations=10**6,
                                recovery=False)
        report = _optimizer(lenient).run()
        # Everything already "acceptable": no fixing happens.
        assert report.transforms_applied == 0

    def test_recovery_reduces_area_without_new_violations(self):
        with_recovery = _optimizer(
            ClosureConfig(max_transforms=120, recovery=True)
        ).run()
        without = _optimizer(
            ClosureConfig(max_transforms=120, recovery=False)
        ).run()
        assert with_recovery.final.area <= without.final.area + 1e-9
        assert with_recovery.final.violations <= without.final.violations


class TestClockTree:
    def test_moves_never_touch_the_clock_network(self):
        """Touchability must come from the timed graph: a clock set read
        before the first update is empty, and this run then sizes
        ckbuf_clk_5."""
        spec = DesignSpec(
            "gen2", seed=102, n_flops=30, n_inputs=6, n_outputs=4,
            depth_range=(3, 9), violation_quantile=0.6,
        )
        optimizer = _optimizer(
            ClosureConfig(max_transforms=60, recovery=False), spec
        )
        report = optimizer.run()
        assert report.eco_commands
        netlist, graph = optimizer.engine.netlist, optimizer.engine.graph
        clock_gates = {
            node.ref.gate for node in graph.live_nodes()
            if node.is_clock_tree and node.ref.gate is not None
            and not netlist.cell_of(node.ref.gate).is_sequential
        }
        assert clock_gates
        for command in report.eco_commands:
            for token in command.split()[1:]:
                assert token.split("/")[0] not in clock_gates, command


class TestMGBAFlow:
    def test_mgba_flow_runs_and_records_fit(self):
        config = ClosureConfig(max_transforms=120, use_mgba=True)
        report = _optimizer(config).run()
        assert report.mgba_result is not None
        assert report.seconds_mgba > 0
        assert report.mgba_result.pass_ratio_mgba > \
            report.mgba_result.pass_ratio_gba

    def test_mgba_flow_sees_fewer_initial_violations_to_fix(self):
        """The economic argument: corrected slacks -> fewer phantom fixes."""
        gba = _optimizer(ClosureConfig(max_transforms=0, recovery=False))
        gba_violations = gba.run().final.violations
        mgba = _optimizer(ClosureConfig(max_transforms=0, recovery=False,
                                        use_mgba=True))
        mgba_violations = mgba.run().final.violations
        assert mgba_violations <= gba_violations
