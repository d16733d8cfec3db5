"""Path-based analysis engine — the golden reference for mGBA fitting.

PBA re-times an enumerated path with *path-specific* information GBA
threw away:

* **depth** — the number of cells on *this* path (GBA used the worst
  depth of each gate individually);
* **distance** — the bounding box of *this* path (GBA used the whole
  design's);
* **CRPR** — the exact launch/capture common-clock-path credit (GBA
  used zero);
* **slew** (optional, ``recalc_slew=True``) — slews re-propagated along
  the path itself instead of GBA's worst-fanin slew, removing the
  "worst slew propagation" pessimism the paper lists among the features
  prior AOCV-only work left aside.

All corrections are one-sided, so ``pba_slack >= gba_slack`` holds for
every path (property-tested) — PBA only ever removes pessimism.

By default base arc delays come from the GBA propagation (paper model:
"the delays of gates are constant"; only derating is path-specific);
slew recalculation is the documented extension beyond that model.
"""

from __future__ import annotations

from repro.errors import TimingError
from repro.netlist.core import PinRef
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.timing.graph import EdgeKind
from repro.timing.propagation import EdgeDomain, classify_edge, effective_late
from repro.timing.slack import setup_required
from repro.timing.sta import STAEngine
from repro.pba.paths import TimingPath


class PBAEngine:
    """Computes golden per-path slacks on top of a (clean) GBA engine.

    The engine must carry no mGBA weights: the fitted correction is
    defined relative to the original GBA derates, so feeding an already
    corrected engine in would fold the fix in twice.
    """

    def __init__(self, sta: STAEngine, recalc_slew: bool = False,
                 variation: str = "table"):
        if sta.weights:
            raise TimingError(
                "PBAEngine requires a clean GBA engine (no mGBA weights); "
                "call clear_gate_weights() first"
            )
        if variation not in ("table", "rss"):
            raise TimingError(
                f"variation must be 'table' or 'rss', got {variation!r}"
            )
        sta.ensure_timing()
        self.sta = sta
        self.recalc_slew = recalc_slew
        #: Variation model for the golden path delay:
        #: ``"table"`` — the paper's model: one AOCV factor at
        #: (path depth, path distance) scales every data cell;
        #: ``"rss"`` — SSTA-lite: per-stage sigmas (derived from the
        #: table's depth-1 corner) accumulate as root-sum-square, the
        #: statistically correct combination.  RSS and the table agree
        #: on balanced paths (both follow 1/sqrt(N) cancellation) but
        #: RSS grants *less* credit when one slow stage dominates — on
        #: such paths the "golden" can sit below GBA, i.e. pessimism
        #: can be negative, and the mGBA fit absorbs that too (weights
        #: above 1).  The one-sided gba<=pba invariant holds only for
        #: ``"table"``.
        self.variation = variation
        from repro.timing.slack import endpoint_clock_map

        self._clock_map = endpoint_clock_map(sta.graph, sta.constraints)

    # ------------------------------------------------------------------
    # Per-path ingredients
    # ------------------------------------------------------------------
    def path_depth(self, path: TimingPath) -> int:
        """PBA cell depth: combinational data cells on the path."""
        graph = self.sta.graph
        depth = 0
        for edge_id in path.edges:
            edge = graph.edge(edge_id)
            if classify_edge(graph, edge) is EdgeDomain.DATA_CELL:
                depth += 1
        return depth

    def path_distance(self, path: TimingPath) -> float:
        """AOCV distance: bbox half-perimeter of the path's anchors (nm)."""
        placement = self.sta.placement
        if placement is None:
            return 0.0
        graph = self.sta.graph
        anchors: list[str] = []
        seen: set[str] = set()
        for node_id in self._path_nodes(path):
            ref = graph.node(node_id).ref
            name = ref.gate if ref.gate is not None else ref.pin
            if name not in seen and placement.has(name):
                seen.add(name)
                anchors.append(name)
        if not anchors:
            return 0.0
        return placement.bbox_half_perimeter(anchors)

    def _path_nodes(self, path: TimingPath) -> list[int]:
        graph = self.sta.graph
        nodes = [path.launch]
        for edge_id in path.edges:
            nodes.append(graph.edge(edge_id).dst)
        return nodes

    def launch_ck_node(self, path: TimingPath) -> int | None:
        """The launching flop's CK node (None for port-launched paths)."""
        graph = self.sta.graph
        launch = graph.node(path.launch)
        if launch.ref.gate is None:
            return None
        cell = graph.netlist.cell_of(launch.ref.gate)
        clock_pin = cell.clock_pin
        if clock_pin is None:
            return None
        return graph.node_of.get(PinRef(launch.ref.gate, clock_pin.name))

    def _path_base_delays(self, path: TimingPath) -> "list[float]":
        """Per-edge *base* delays seen along this specific path.

        Default mode returns the GBA delay-calc results (worst-fanin
        slews).  With ``recalc_slew`` the slew is re-propagated along
        the path itself, so every arc sees its true path slew — always
        <= the worst slew, hence always <= the GBA base delay (delay
        tables are monotone in slew).
        """
        graph = self.sta.graph
        if not self.recalc_slew:
            return [graph.edge(e).delay for e in path.edges]
        calc = self.sta.calc
        slew = float(self.sta.state.slew[path.launch])
        delays: list[float] = []
        for edge_id in path.edges:
            edge = graph.edge(edge_id)
            if edge.kind is EdgeKind.CELL:
                delay, out_slew = calc.cell_edge(graph, edge, slew)
            else:
                delay, out_slew = calc.net_edge(graph, edge, slew)
            delays.append(min(delay, edge.delay))
            slew = min(out_slew, edge.out_slew)
        return delays

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze_path(self, path: TimingPath) -> TimingPath:
        """Fill a path's GBA/PBA slacks and matrix contributions in place."""
        graph = self.sta.graph
        state = self.sta.state
        info = graph.endpoints.get(path.endpoint)
        if info is None:
            raise TimingError(
                f"path endpoint node {path.endpoint} is not an endpoint"
            )
        required_gba, _ = setup_required(
            graph, state, info, self._clock_map[path.endpoint],
            self.sta.constraints,
        )
        launch_arrival = float(state.arrival_late[path.launch])
        gba_data_delay = 0.0
        contributions: list[tuple[str, float, float]] = []
        for edge_id in path.edges:
            edge = graph.edge(edge_id)
            gba_data_delay += effective_late(state, edge)
            if classify_edge(graph, edge) is EdgeDomain.DATA_CELL:
                assert edge.gate is not None
                contributions.append((
                    edge.gate,
                    edge.delay,
                    float(state.derate_late[edge.id]),
                ))
        path.gba_arrival = launch_arrival + gba_data_delay
        path.gba_slack = required_gba - path.gba_arrival
        path.depth = len(contributions)
        path.distance = self.path_distance(path)
        table = self.sta.config.derating_table
        base_delays = self._path_base_delays(path)
        if self.variation == "rss" and table is not None and path.depth > 0:
            pba_data_delay = self._rss_data_delay(
                path, base_delays, table
            )
        else:
            if table is not None and path.depth > 0:
                pba_derate = table.derate(path.depth, path.distance)
            else:
                pba_derate = self.sta.config.flat_derate_late
            pba_data_delay = 0.0
            for edge_id, base_delay in zip(path.edges, base_delays):
                edge = graph.edge(edge_id)
                if classify_edge(graph, edge) is EdgeDomain.DATA_CELL:
                    pba_data_delay += base_delay * pba_derate
                else:
                    pba_data_delay += base_delay * float(
                        state.derate_late[edge.id]
                    )
        credit = self.sta.crpr.credit(
            self.launch_ck_node(path),
            info.ck_node,
        )
        path.crpr_credit = credit
        path.pba_slack = (
            required_gba + credit - (launch_arrival + pba_data_delay)
        )
        path.contributions = contributions
        constraints = self.sta.constraints
        if constraints.has_exceptions():
            launch = graph.node(path.launch).ref
            launch_name = launch.gate if launch.gate is not None else launch.pin
            capture_name = (
                info.gate if info.gate is not None
                else graph.node(path.endpoint).ref.pin
            )
            path.is_false = constraints.is_false_path(
                launch_name, capture_name
            )
        path.analyzed = True
        return path

    def _rss_data_delay(self, path: TimingPath,
                        base_delays: "list[float]", table) -> float:
        """SSTA-lite path delay: mean + 3 * RSS of per-stage sigmas.

        Each data cell's sigma is ``sigma_frac * base_delay`` with
        ``sigma_frac = (derate(1, distance) - 1) / 3`` — the single-
        stage corner of the same table, so both variation models share
        one characterization.
        """
        graph, state = self.sta.graph, self.sta.state
        sigma_frac = (table.derate(1, path.distance) - 1.0) / 3.0
        mean = 0.0
        variance = 0.0
        for edge_id, base_delay in zip(path.edges, base_delays):
            edge = graph.edge(edge_id)
            if classify_edge(graph, edge) is EdgeDomain.DATA_CELL:
                mean += base_delay
                variance += (sigma_frac * base_delay) ** 2
            else:
                mean += base_delay * float(state.derate_late[edge.id])
        return mean + 3.0 * variance ** 0.5

    def analyze(self, paths: "list[TimingPath]") -> "list[TimingPath]":
        """Analyze a batch of paths in place; returns the same list."""
        with span("pba.analyze", paths=len(paths)):
            for path in paths:
                self.analyze_path(path)
        counter("pba.paths_analyzed").inc(len(paths))
        return paths

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def golden_endpoint_slack(self, endpoint: int, k: int = 64) -> float:
        """PBA endpoint slack: min PBA slack over the k worst paths.

        With k large enough to cover every path whose GBA arrival could
        dominate after PBA re-derating, this equals the true path-based
        endpoint slack.  False paths are excluded (this is where PBA
        honours ``set_false_path`` and GBA cannot); an endpoint whose
        every path is false is unconstrained — +inf.
        """
        from repro.pba.enumerate import worst_paths_to_endpoint

        paths = worst_paths_to_endpoint(
            self.sta.graph, self.sta.state, endpoint, k
        )
        if not paths:
            raise TimingError(f"endpoint {endpoint} has no data paths")
        self.analyze(paths)
        real = [p.pba_slack for p in paths if not p.is_false]
        if not real:
            return float("inf")
        return min(real)

    def golden_endpoint_slacks(
        self,
        endpoints: "list[int] | None" = None,
        k: int = 64,
    ) -> "dict[int, float]":
        """PBA endpoint slack for many endpoints, in endpoint order.

        Each endpoint owns its k-worst enumeration (§3.2), so this is
        :meth:`golden_endpoint_slack` once per endpoint.
        """
        if endpoints is None:
            endpoints = self.sta.graph.endpoint_nodes()
        with span("pba.endpoint_slacks", endpoints=len(endpoints), k=k):
            return {
                endpoint: self.golden_endpoint_slack(endpoint, k)
                for endpoint in endpoints
            }
