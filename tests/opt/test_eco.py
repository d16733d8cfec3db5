"""ECO export/replay tests — the round trip is the contract."""

import pytest

from repro.errors import ParseError
from repro.opt.closure import ClosureConfig, TimingClosureOptimizer
from repro.opt.eco import apply_eco, write_eco
from repro.opt.whatif import apply_edit
from repro.designs.generator import generate_design
from tests.conftest import SMALL_SPEC, engine_for


def _run_closure():
    design = generate_design(SMALL_SPEC)
    optimizer = TimingClosureOptimizer(
        design.netlist, design.constraints, design.placement,
        design.sta_config, ClosureConfig(max_transforms=80),
    )
    report = optimizer.run()
    return design, report


class TestRoundTrip:
    def test_replay_reproduces_optimized_netlist(self):
        """The flagship guarantee: ECO(original) == optimized."""
        optimized, report = _run_closure()
        assert report.eco_commands, "closure should accept some moves"
        pristine = generate_design(SMALL_SPEC)
        text = write_eco(report.eco_commands, pristine.netlist.name)
        applied = apply_eco(
            pristine.netlist, text, placement=pristine.placement
        )
        assert applied == len(report.eco_commands)
        assert set(pristine.netlist.gates) == set(optimized.netlist.gates)
        for name, gate in optimized.netlist.gates.items():
            replayed = pristine.netlist.gate(name)
            assert replayed.cell_name == gate.cell_name, name
            assert replayed.connections == gate.connections, name

    def test_replayed_netlist_times_identically(self):
        optimized, report = _run_closure()
        pristine = generate_design(SMALL_SPEC)
        apply_eco(
            pristine.netlist,
            write_eco(report.eco_commands),
            placement=pristine.placement,
        )
        want = engine_for(optimized)
        got = engine_for(pristine)
        want_slacks = {s.name: s.slack for s in want.setup_slacks()}
        got_slacks = {s.name: s.slack for s in got.setup_slacks()}
        for name, value in want_slacks.items():
            assert got_slacks[name] == pytest.approx(value, abs=1e-6)

    def test_replayed_port_net_buffer_matches_the_edit(self):
        """A buffer on a port-driven net replays placed like the edit."""
        edited = generate_design(SMALL_SPEC)
        load = next(
            r for r in edited.netlist.net_loads("in0") if not r.is_port
        )
        _, _, command = apply_edit(engine_for(edited), {
            "kind": "insert_buffer", "net": "in0",
            "buffer_cell": edited.netlist.library.buffers()[0].name,
            "loads": [str(load)],
        }, 0)
        pristine = generate_design(SMALL_SPEC)
        apply_eco(
            pristine.netlist, write_eco([command]),
            placement=pristine.placement,
        )
        assert pristine.placement.location("wbuf0") == \
            edited.placement.location("wbuf0")
        want, got = engine_for(edited), engine_for(pristine)
        assert [(s.name, s.slack) for s in got.setup_slacks()] == \
            [(s.name, s.slack) for s in want.setup_slacks()]
        assert [(s.name, s.slack) for s in got.hold_slacks()] == \
            [(s.name, s.slack) for s in want.hold_slacks()]

    def test_removed_buffer_leaves_the_placement(self):
        """Replaying insert then remove leaves no row for the buffer."""
        from repro.netlist.plfile import write_placement

        design = generate_design(SMALL_SPEC)
        load = next(
            r for r in design.netlist.net_loads("in0") if not r.is_port
        )
        text = (
            f"insert_buffer in0 BUF_X1 b0 n0 {load}\n"
            "remove_buffer b0\n"
        )
        assert apply_eco(
            design.netlist, text, placement=design.placement
        ) == 2
        assert "b0" not in design.netlist.gates
        assert not design.placement.has("b0")
        rows = write_placement(design.placement).splitlines()
        assert not any(row.split()[:1] == ["b0"] for row in rows)

    def test_eco_counts_match_accepted_moves(self):
        _, report = _run_closure()
        assert len(report.eco_commands) == report.transforms_applied


class TestScriptFormat:
    def test_header_and_comments(self):
        text = write_eco(["size_cell g NAND2_X2"], "top")
        assert text.startswith("# repro ECO for top")
        design = generate_design(SMALL_SPEC)
        # Comments and blanks are skipped on replay.
        commented = "# note\n\n" + "\n".join(text.splitlines()[2:])
        gate = design.netlist.combinational_gates()[0]
        safe = f"size_cell {gate} {design.netlist.gate(gate).cell_name}"
        apply_eco(design.netlist, f"# only comments\n\n{safe}\n")

    def test_unknown_command_rejected(self):
        design = generate_design(SMALL_SPEC)
        with pytest.raises(ParseError):
            apply_eco(design.netlist, "explode_cell g1\n")

    def test_bad_arity_rejected(self):
        design = generate_design(SMALL_SPEC)
        with pytest.raises(ParseError):
            apply_eco(design.netlist, "size_cell only_one_arg\n")

    def test_replay_rejects_load_off_the_net(self):
        design = generate_design(SMALL_SPEC)
        stranger = next(
            r for r in design.netlist.net_loads("in1") if not r.is_port
        )
        text = (
            "# header\n"
            f"insert_buffer in0 BUF_X1 b0 n0 {stranger}\n"
        )
        with pytest.raises(ParseError) as err:
            apply_eco(design.netlist, text)
        assert err.value.line == 2
        assert "b0" not in design.netlist.gates

    def test_replay_error_carries_line(self):
        design = generate_design(SMALL_SPEC)
        with pytest.raises(ParseError) as err:
            apply_eco(design.netlist, "\nsize_cell ghost INV_X2\n")
        assert err.value.line == 2

    def test_unknown_cell_replay_carries_line(self):
        design = generate_design(SMALL_SPEC)
        gate = design.netlist.combinational_gates()[0]
        cell = design.netlist.gate(gate).cell_name
        with pytest.raises(ParseError) as err:
            apply_eco(design.netlist, f"# header\nsize_cell {gate} NOPE_X9\n")
        assert err.value.line == 2
        assert design.netlist.gate(gate).cell_name == cell
