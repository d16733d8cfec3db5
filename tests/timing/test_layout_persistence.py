"""Layout store tiers and incremental level maintenance.

Covers the three cold-path fronts: the in-process content-keyed LRU
(eviction, structural-array sharing, the clear hook), the on-disk
persistence tier (hydrate bit-identity incl. randomized designs,
corrupt-payload fallback), and the one splice behind both a build and
a patch: a build levels every node at its longest fanin chain, and a
patched layout agrees row by row with its graph and with a fresh
build of it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from dataclasses import fields, replace

from repro.designs.generator import DesignSpec, generate_design
from repro.designs.suite import build_design, design_names
from repro.netlist.edit import insert_buffer, remove_buffer, resize_gate
from repro.obs.metrics import counter
from repro.service.store import DiskStore
from repro.timing import graph as graph_mod
from repro.timing import kernel as K
from repro.timing.sta import STAEngine
from tests.conftest import SMALL_SPEC
from tests.timing.strategies import design_specs


@pytest.fixture(autouse=True)
def _isolated_layout_tiers():
    """Every test starts with empty process cache and no disk tier."""
    K.clear_layout_cache()
    K.set_layout_disk_store(None)
    yield
    K.clear_layout_cache()
    K.set_layout_disk_store(None)


def _spec(seed: int) -> DesignSpec:
    return DesignSpec(
        f"lp-{seed}", seed=seed, n_flops=6, n_inputs=3, n_outputs=2,
        depth_range=(2, 5),
    )


def _timed_engine(design):
    # The kernel is pinned: these tests exercise the vector layout tiers.
    engine = STAEngine(
        design.netlist, design.constraints, design.placement,
        replace(design.sta_config, kernel="vector"),
    )
    engine.update_timing()
    return engine


def _setup_slacks(engine) -> "dict[str, float]":
    return {s.name: s.slack for s in engine.setup_slacks()}


class TestProcessCache:
    def test_lru_evicts_at_max(self, monkeypatch):
        monkeypatch.setattr(K, "_LAYOUT_CACHE_MAX", 2)
        for seed in (1, 2, 3):
            _timed_engine(generate_design(_spec(seed)))
        assert len(K._layout_cache) == 2

    def test_hit_clones_and_shares_structural_arrays(self, small_design):
        first = _timed_engine(small_design)
        cached = next(iter(K._layout_cache.values()))
        hits0 = counter("kernel.layout_cache_hits").value
        second = _timed_engine(small_design)
        assert counter("kernel.layout_cache_hits").value == hits0 + 1
        clone = second._layout
        assert clone is not cached
        # A layout holds structure only: the clone shares every field
        # but the lazy per-graph ones.
        for field in fields(K.LevelizedLayout):
            if not field.name.startswith("_"):
                name = field.name
                assert getattr(clone, name) is getattr(cached, name), name
        assert _setup_slacks(second) == _setup_slacks(first)

    def test_clear_layout_cache(self, small_design):
        _timed_engine(small_design)
        assert K._layout_cache
        K.clear_layout_cache()
        assert not K._layout_cache


class TestDiskTier:
    def _attach(self, tmp_path) -> DiskStore:
        store = DiskStore(tmp_path / "store")
        K.set_layout_disk_store(store)
        return store

    def test_cold_build_persists_then_hydrates(self, tmp_path, small_design):
        self._attach(tmp_path)
        warm = _timed_engine(small_design)
        misses0 = counter("kernel.layout_disk_misses").value
        hits0 = counter("kernel.layout_disk_hits").value
        K.clear_layout_cache()  # simulate a new process
        cold = _timed_engine(small_design)
        assert counter("kernel.layout_disk_hits").value == hits0 + 1
        assert counter("kernel.layout_disk_misses").value == misses0
        assert _setup_slacks(cold) == _setup_slacks(warm)

    def test_hydrated_layout_bit_identical_to_fresh(
        self, tmp_path, small_design
    ):
        self._attach(tmp_path)
        _timed_engine(small_design)
        K.clear_layout_cache()
        hydrated = _timed_engine(small_design)._layout
        K.set_layout_disk_store(None)
        K.clear_layout_cache()
        fresh = _timed_engine(small_design)._layout
        for name in K._LAYOUT_ARRAY_FIELDS:
            assert np.array_equal(
                getattr(hydrated, name), getattr(fresh, name)
            ), name
        for name in K._LAYOUT_LIST_FIELDS:
            assert getattr(hydrated, name) == getattr(fresh, name), name
        for name in K._LAYOUT_LEVEL_FIELDS:
            got = getattr(hydrated, name)
            want = getattr(fresh, name)
            assert len(got) == len(want), name
            for a, b in zip(got, want):
                assert np.array_equal(a, b), name

    def test_corrupt_payload_degrades_to_fresh_build(
        self, tmp_path, small_design
    ):
        store = self._attach(tmp_path)
        warm = _timed_engine(small_design)
        (entry,) = store.entries()
        entry.write_bytes(b"not a pickle")
        K.clear_layout_cache()
        misses0 = counter("kernel.layout_disk_misses").value
        cold = _timed_engine(small_design)
        assert counter("kernel.layout_disk_misses").value == misses0 + 1
        assert _setup_slacks(cold) == _setup_slacks(warm)

    def test_schema_mismatch_is_a_miss(self, small_design):
        engine = _timed_engine(small_design)
        payload = K.layout_to_payload(engine._layout)
        payload["schema"] = K.LAYOUT_SCHEMA + 1
        assert K.layout_from_payload(payload, engine.graph) is None

    def test_slot_count_mismatch_is_a_miss(self, small_design):
        engine = _timed_engine(small_design)
        payload = K.layout_to_payload(engine._layout)
        payload["n_node_slots"] += 1
        assert K.layout_from_payload(payload, engine.graph) is None

    @settings(max_examples=8, deadline=None)
    @given(spec=design_specs(max_flops=8))
    def test_hydrate_bit_identity_randomized(self, tmp_path_factory, spec):
        K.clear_layout_cache()
        root = tmp_path_factory.mktemp("layout-store")
        K.set_layout_disk_store(DiskStore(root))
        try:
            design = generate_design(spec)
            warm = _timed_engine(design)
            K.clear_layout_cache()
            cold = _timed_engine(design)
            assert _setup_slacks(cold) == _setup_slacks(warm)
            for name in K._LAYOUT_ARRAY_FIELDS:
                assert np.array_equal(
                    getattr(cold._layout, name), getattr(warm._layout, name)
                ), name
        finally:
            K.set_layout_disk_store(None)
            K.clear_layout_cache()


def _loaded_net(design):
    for gate in design.netlist.combinational_gates():
        if gate.startswith("ckbuf"):
            continue
        net = design.netlist.gate(gate).connections.get("Z")
        if net is None:
            continue
        if [r for r in design.netlist.net_loads(net) if not r.is_port]:
            return net
    return None


def _assert_layout_structure(engine):
    """The engine's layout agrees with its graph and a fresh build.

    Every live node's CSR rows are its adjacency lists and every live
    edge climbs a level.  A fresh build of the same graph, with the
    domain arrays re-classified from scratch, has the same sources,
    boundary values and classification, and names the same gate per
    node and net per cell arc (patches may number them differently).
    """
    graph = engine.graph
    layout = engine._ensure_layout()
    live = [node.id for node in graph.live_nodes()]
    assert sorted(layout.order.tolist()) == live
    for node_id in live:
        pos = layout.pos_of[node_id]
        for ptr, flat, adjacency in (
            (layout.in_ptr, layout.in_edge, graph.in_edges),
            (layout.out_ptr, layout.out_edge, graph.out_edges),
        ):
            row = flat[ptr[pos]:ptr[pos + 1]].tolist()
            assert row == adjacency[node_id], node_id
    for edge in graph.live_edges():
        assert layout.node_level[edge.src] < layout.node_level[edge.dst]
    graph.domain_cache = None
    fresh = K.build_layout(graph, engine.boundary(), engine.gba_depths)
    sources = fresh.source_ids
    assert set(layout.source_ids.tolist()) == set(sources.tolist())
    for name in ("boundary_arrival", "boundary_slew"):
        assert np.array_equal(
            getattr(layout, name)[sources], getattr(fresh, name)[sources]
        ), name
    for name in ("live_eids", "clock_eids", "plain_eids", "data_eids",
                 "data_depths", "data_gate_cols", "node_is_clock_tree",
                 "edge_src", "edge_is_net"):
        assert np.array_equal(getattr(layout, name), getattr(fresh, name)), name
    assert layout.gates == fresh.gates

    def names(lay):
        gates = [lay.node_gates[col] if col >= 0 else None
                 for col in lay.node_gate_col[live].tolist()]
        nets = [lay.cell_nets[col] if col >= 0 else None
                for col in lay.cell_edge_net[lay.live_eids].tolist()]
        return gates, nets

    assert names(layout) == names(fresh)


def _longest_fanin_chains(graph) -> np.ndarray:
    """Reference levels: each live node one above its deepest fanin."""
    level = np.full(len(graph.nodes), -1, dtype=np.int64)
    for node_id in graph.topological_order():
        level[node_id] = max(
            (level[graph.edge(e).src] + 1 for e in graph.in_edges[node_id]),
            default=0,
        )
    return level


class TestBuildLevels:
    @pytest.mark.parametrize("name", design_names())
    def test_suite_levels_are_longest_fanin_chains(self, name):
        engine = _timed_engine(build_design(name))
        assert np.array_equal(
            engine._layout.node_level, _longest_fanin_chains(engine.graph)
        )

    @settings(max_examples=8, deadline=None)
    @given(spec=design_specs(max_flops=8))
    def test_random_levels_are_longest_fanin_chains(self, spec):
        K.clear_layout_cache()
        engine = _timed_engine(generate_design(spec))
        assert np.array_equal(
            engine._layout.node_level, _longest_fanin_chains(engine.graph)
        )


class TestLevelPatching:
    def test_buffer_insert_patches_instead_of_rebuilding(self):
        design = generate_design(SMALL_SPEC)
        engine = _timed_engine(design)
        net = _loaded_net(design)
        patches0 = counter("kernel.layout_patches").value
        fallbacks0 = counter("kernel.layout_patch_fallbacks").value
        change = insert_buffer(
            design.netlist, net, "BUF_X2", placement=design.placement
        )
        engine.apply_change(change)
        assert counter("kernel.layout_patches").value == patches0 + 1
        assert counter("kernel.layout_patch_fallbacks").value == fallbacks0
        reference = _timed_engine(design)
        assert _setup_slacks(engine) == _setup_slacks(reference)

    def test_insert_then_revert_round_trip(self):
        design = generate_design(SMALL_SPEC)
        engine = _timed_engine(design)
        baseline = _setup_slacks(engine)
        net = _loaded_net(design)
        patches0 = counter("kernel.layout_patches").value
        change = insert_buffer(
            design.netlist, net, "BUF_X2", placement=design.placement
        )
        engine.apply_change(change)
        buffer_name = change.gates[0]
        inverse = remove_buffer(design.netlist, buffer_name)
        inverse.nets.extend(change.nets)
        engine.apply_change(inverse)
        assert counter("kernel.layout_patches").value == patches0 + 2
        assert _setup_slacks(engine) == baseline
        _assert_layout_structure(engine)
        # The removed buffer's net leaves the layout with its arcs, so
        # the next full sweep (a weight install) loads only live nets.
        assert all(
            net in design.netlist.nets for net in engine._layout.cell_nets
        )
        engine.set_gate_weights({})
        engine.update_timing()
        reference = STAEngine(
            design.netlist, design.constraints, design.placement,
            replace(design.sta_config, kernel="scalar"),
        )
        reference.update_timing()
        for kind in ("setup_slacks", "hold_slacks"):
            assert [
                (s.name, s.slack) for s in getattr(engine, kind)()
            ] == [
                (s.name, s.slack) for s in getattr(reference, kind)()
            ], kind

    def test_random_edit_sequence_matches_full_rebuild(self):
        import random

        design = generate_design(SMALL_SPEC)
        engine = _timed_engine(design)
        rng = random.Random(7)
        patches0 = counter("kernel.layout_patches").value
        gates = [
            g for g in design.netlist.combinational_gates()
            if not g.startswith("ckbuf")
        ]
        inserted: "list" = []
        for _ in range(12):
            move = rng.choice(("resize", "insert", "remove"))
            if move == "resize":
                change = resize_gate(
                    design.netlist, rng.choice(gates), up=rng.random() < 0.5
                )
                if change is None:
                    continue
            elif move == "insert":
                net = _loaded_net(design)
                if net is None:
                    continue
                change = insert_buffer(
                    design.netlist, net, "BUF_X2",
                    placement=design.placement,
                )
                inserted.append(change)
            else:
                if not inserted:
                    continue
                last = inserted.pop()
                name = last.gates[0]
                change = remove_buffer(design.netlist, name)
                change.nets.extend(last.nets)
            engine.apply_change(change)
        assert counter("kernel.layout_patches").value > patches0
        _assert_layout_structure(engine)
        reference = _timed_engine(design)
        got = _setup_slacks(engine)
        want = _setup_slacks(reference)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == pytest.approx(want[name], abs=1e-9), name

    def test_journal_overflow_falls_back_to_rebuild(self, monkeypatch):
        design = generate_design(SMALL_SPEC)
        engine = _timed_engine(design)
        monkeypatch.setattr(graph_mod, "_JOURNAL_MAX", 0)
        fallbacks0 = counter("kernel.layout_patch_fallbacks").value
        net = _loaded_net(design)
        change = insert_buffer(
            design.netlist, net, "BUF_X2", placement=design.placement
        )
        engine.apply_change(change)
        assert (
            counter("kernel.layout_patch_fallbacks").value == fallbacks0 + 1
        )
        reference = _timed_engine(design)
        assert _setup_slacks(engine) == _setup_slacks(reference)

    def test_touched_since_reports_edit_slots(self):
        design = generate_design(SMALL_SPEC)
        engine = _timed_engine(design)
        version = engine.graph.structure_version
        net = _loaded_net(design)
        change = insert_buffer(
            design.netlist, net, "BUF_X2", placement=design.placement
        )
        engine.apply_change(change)
        touched = engine.graph.touched_since(version)
        assert touched is not None
        nodes, edges = touched
        assert nodes and edges
        assert engine.graph.touched_since(
            engine.graph.structure_version
        ) == (set(), set())
