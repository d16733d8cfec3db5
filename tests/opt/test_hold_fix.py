"""Hold-violation fixing tests."""

from repro.netlist.core import PinRef
from repro.opt.closure import ClosureConfig, TimingClosureOptimizer
from repro.opt.whatif import apply_edit
from repro.timing.slack import CheckKind
from repro.designs.generator import DesignSpec, generate_design

#: Shallow cones race the clock skew: guaranteed hold violations.
HOLD_SPEC = DesignSpec(
    "holdy", seed=77, n_flops=24, n_inputs=4, n_outputs=3,
    depth_range=(1, 5), violation_quantile=0.9,
)


def _optimizer(design):
    return TimingClosureOptimizer(
        design.netlist, design.constraints, design.placement,
        design.sta_config,
    )


def _design_with_hold_violations():
    design = generate_design(HOLD_SPEC)
    optimizer = _optimizer(design)
    optimizer.engine.update_timing()
    holds = [s for s in optimizer.engine.hold_slacks() if s.slack < 0]
    assert holds, "HOLD_SPEC must produce hold violations"
    return design, optimizer


def _worst_hold(engine):
    worst = min(engine.hold_slacks(), key=lambda s: s.slack)
    return worst, engine.graph.node(worst.node).ref


class TestPadTransform:
    def test_pad_improves_hold(self):
        design, optimizer = _design_with_hold_violations()
        engine = optimizer.engine
        worst, ref = _worst_hold(engine)
        spec = optimizer.hold_pad_spec(ref)
        assert spec is not None
        apply_edit(engine, spec, 0)
        after = next(
            s for s in engine.hold_slacks() if s.name == worst.name
        )
        assert after.slack > worst.slack

    def test_pad_reverts_exactly(self):
        design, optimizer = _design_with_hold_violations()
        engine = optimizer.engine
        hold = {s.name: s.slack for s in engine.hold_slacks()}
        setup = {s.name: s.slack for s in engine.setup_slacks()}
        _, ref = _worst_hold(engine)
        _, undo, _ = apply_edit(engine, optimizer.hold_pad_spec(ref), 0)
        undo(engine)
        assert {s.name: s.slack for s in engine.hold_slacks()} == hold
        assert {s.name: s.slack for s in engine.setup_slacks()} == setup

    def test_pad_only_moves_one_load(self):
        design, optimizer = _design_with_hold_violations()
        _, ref = _worst_hold(optimizer.engine)
        net = design.netlist.gate(ref.gate).connections[ref.pin]
        other_loads_before = [
            r for r in design.netlist.net_loads(net) if r != ref
        ]
        spec = optimizer.hold_pad_spec(ref)
        assert spec["loads"] == [str(ref)]
        apply_edit(optimizer.engine, spec, 0)
        assert design.netlist.pin_net(ref) != net
        for load in other_loads_before:
            # Everyone else still hangs on the original net.
            assert design.netlist.pin_net(load) == net

    def test_port_endpoint_refused(self, small_design):
        optimizer = _optimizer(small_design)
        assert optimizer.hold_pad_spec(PinRef(None, "out0")) is None


class TestHoldPhase:
    def test_closure_with_hold_fixing(self):
        design = generate_design(HOLD_SPEC)
        optimizer = TimingClosureOptimizer(
            design.netlist, design.constraints, design.placement,
            design.sta_config,
            ClosureConfig(max_transforms=80, fix_hold=True,
                          recovery=False),
        )
        engine = optimizer.engine
        engine.update_timing()
        hold_before = engine.summary(CheckKind.HOLD)
        optimizer.run()
        hold_after = engine.summary(CheckKind.HOLD)
        setup_after = engine.summary(CheckKind.SETUP)
        assert hold_after.violations <= hold_before.violations
        # Hold fixing must not have broken setup closure.
        assert setup_after.violations <= hold_before.endpoints

    def test_hold_phase_counts_in_report(self):
        design = generate_design(HOLD_SPEC)
        optimizer = TimingClosureOptimizer(
            design.netlist, design.constraints, design.placement,
            design.sta_config,
            ClosureConfig(max_transforms=80, fix_hold=True,
                          recovery=False),
        )
        report = optimizer.run()
        assert report.fix_tried >= report.fix_applied
