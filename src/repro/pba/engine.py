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

The analysis runs over a whole :class:`~repro.pba.paths.PathSet` at
once (:meth:`PBAEngine.analyze_set`): arcs are classified by the
graph's domain arrays (:func:`repro.timing.domains.graph_domains`),
delays are summed left to right along the path axis, exactly as a
per-path loop adds them, distance comes from min/max reductions over
anchor coordinates (:func:`repro.timing.domains.path_distances`, shared
with explain), and the AOCV derate is looked up once per (depth,
distance), the required time once per endpoint and the CRPR credit once
per (launch CK, capture CK) pair.  So every field equals what the
per-path loop computes, bit for bit; ``tests/pba/`` keeps that loop as
the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TimingError
from repro.netlist.core import PinRef
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.timing.domains import DOMAIN_DATA, graph_domains, path_distances
from repro.timing.graph import EndpointInfo
from repro.timing.slack import endpoint_clock_map, setup_required
from repro.timing.sta import STAEngine
from repro.pba.enumerate import (
    PathMirrors,
    enumerate_worst_paths,
    path_mirrors,
)
from repro.pba.paths import PathBatch, PathSet, TimingPath, row_sums


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
        self._clock_map = endpoint_clock_map(sta.graph, sta.constraints)
        self._mirrors: "PathMirrors | None" = None
        self._mirrors_epoch = -1

    # ------------------------------------------------------------------
    # Per-set ingredients
    # ------------------------------------------------------------------
    def _launch_ck(self, launch: int) -> int | None:
        """The launching flop's CK node (None for port-launched paths)."""
        graph = self.sta.graph
        gate = graph.node(launch).ref.gate
        if gate is None:
            return None
        clock_pin = graph.netlist.cell_of(gate).clock_pin
        if clock_pin is None:
            return None
        return graph.node_of.get(PinRef(gate, clock_pin.name))

    def _recalc_base_delays(self, paths: PathSet,
                            gba_delay: np.ndarray) -> np.ndarray:
        """Per-entry base delays with slews re-propagated along each path.

        Every arc sees its true path slew — always <= the worst slew,
        hence always <= the GBA base delay ``gba_delay`` (per entry;
        delay tables are monotone in slew).  A per-path walk: each
        arc's slew is the previous arc's.
        """
        graph, calc, state = self.sta.graph, self.sta.calc, self.sta.state
        delays: "list[float]" = []
        ptr = paths.path_ptr.tolist()
        edge_ids = paths.edge_ids.tolist()
        gba_delays = gba_delay.tolist()
        gba_slews = state.edge_out_slew[paths.edge_ids].tolist()
        for row, launch in enumerate(paths.launch.tolist()):
            slew = float(state.slew[launch])
            for entry in range(ptr[row], ptr[row + 1]):
                delay, out_slew = calc.compute_edge(
                    graph, graph.edge(edge_ids[entry]), slew
                )
                delays.append(min(delay, gba_delays[entry]))
                slew = min(out_slew, gba_slews[entry])
        return np.asarray(delays, dtype=np.float64)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze_set(self, paths: PathSet) -> PathBatch:
        """Analyze every path of a set at once."""
        sta = self.sta
        graph, state = sta.graph, sta.state
        domains = graph_domains(graph)
        edge_ids = paths.edge_ids
        is_data = domains.edge_domain[edge_ids] == DOMAIN_DATA
        delay = state.edge_delay[edge_ids]
        derate = state.derate_late[edge_ids]
        infos = self._endpoint_infos(paths)
        required = self._required_times(paths, infos)
        launch_arrival = state.arrival_late[paths.launch]
        gba_arrival = launch_arrival + row_sums(paths.path_ptr, delay * derate)
        depth = np.bincount(paths.row_of_edge()[is_data], minlength=len(paths))
        distance = path_distances(
            graph, sta.placement, *paths.nodes(domains.edge_dst)
        )
        base = (
            self._recalc_base_delays(paths, delay) if self.recalc_slew
            else delay
        )
        pba_delay = self._pba_delays(
            paths, is_data, base, derate, depth, distance
        )
        crpr_credit = self._crpr_credits(paths, infos)
        data_ptr = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(depth, out=data_ptr[1:])
        return PathBatch(
            gba_arrival=gba_arrival,
            gba_slack=required - gba_arrival,
            pba_slack=(
                (required + crpr_credit) - (launch_arrival + pba_delay)
            ),
            depth=depth,
            distance=distance,
            crpr_credit=crpr_credit,
            is_false=self._false_flags(paths),
            data_ptr=data_ptr,
            data_gate=domains.edge_gate[edge_ids[is_data]],
            data_delay=delay[is_data],
            data_derate=derate[is_data],
            gates=domains.gates,
        )

    def _endpoint_infos(self, paths: PathSet) -> "dict[int, EndpointInfo]":
        """Endpoint records by node, checked in first-seen order so a bad
        endpoint is reported as the per-path loop would."""
        infos = {}
        for endpoint in dict.fromkeys(paths.endpoint.tolist()):
            info = self.sta.graph.endpoints.get(endpoint)
            if info is None:
                raise TimingError(
                    f"path endpoint node {endpoint} is not an endpoint"
                )
            infos[endpoint] = info
        return infos

    def _required_times(self, paths: PathSet,
                        infos: "dict[int, EndpointInfo]") -> np.ndarray:
        """GBA required time per path, computed once per endpoint."""
        sta = self.sta
        endpoints, inverse = np.unique(paths.endpoint, return_inverse=True)
        return np.array([
            setup_required(
                sta.graph, sta.state, infos[endpoint],
                self._clock_map[endpoint], sta.constraints,
            )[0]
            for endpoint in endpoints.tolist()
        ], dtype=np.float64)[inverse]

    def _pba_delays(self, paths: PathSet, is_data: np.ndarray,
                    base: np.ndarray, derate: np.ndarray,
                    depth: np.ndarray, distance: np.ndarray) -> np.ndarray:
        """PBA data delay per path under the configured variation model.

        Table model: data cells take the AOCV derate at (path depth,
        path distance) — looked up once per distinct pair, flat without
        a table or data cells — and other arcs keep their GBA derate.
        """
        sta = self.sta
        table = sta.config.derating_table
        aocv = depth > 0 if table is not None else np.zeros(len(paths), bool)
        pba_derate = np.full(len(paths), sta.constraints.flat_derate_late)
        by_point: "dict[tuple[int, float], float]" = {}
        rows = np.flatnonzero(aocv)
        for i, point in zip(rows.tolist(), zip(
                depth[rows].tolist(), distance[rows].tolist())):
            value = by_point.get(point)
            if value is None:
                value = by_point[point] = table.derate(*point)
            pba_derate[i] = value
        row = paths.row_of_edge()
        delays = row_sums(
            paths.path_ptr, base * np.where(is_data, pba_derate[row], derate)
        )
        if self.variation == "rss" and table is not None:
            delays = self._rss_delays(
                paths, aocv, distance, is_data, base, derate, delays
            )
        return delays

    def _rss_delays(self, paths: PathSet, rss: np.ndarray,
                    distance: np.ndarray, is_data: np.ndarray,
                    base: np.ndarray, derate: np.ndarray,
                    table_delay: np.ndarray) -> np.ndarray:
        """SSTA-lite path delay: mean + 3 * RSS of per-stage sigmas.

        Each data cell's sigma is ``sigma_frac * base_delay`` with
        ``sigma_frac = (derate(1, distance) - 1) / 3`` — the single-
        stage corner of the same table, so both variation models share
        one characterization.  Paths without data cells keep
        ``table_delay``.  The square and the root are Python float
        ``**`` (libm ``pow``), the per-path loop's own operations:
        numpy's ``**`` takes ``square``/``sqrt`` fast paths.
        """
        table = self.sta.config.derating_table
        row = paths.row_of_edge()
        sigma_of: "dict[float, float]" = {}
        sigma_frac = np.zeros(len(paths))
        for i in np.flatnonzero(rss).tolist():
            x = float(distance[i])
            value = sigma_of.get(x)
            if value is None:
                value = sigma_of[x] = (table.derate(1, x) - 1.0) / 3.0
            sigma_frac[i] = value
        mean = row_sums(paths.path_ptr, np.where(is_data, base, base * derate))
        stage = is_data & rss[row]
        squares = np.zeros(len(base))
        squares[stage] = [
            s ** 2 for s in (sigma_frac[row[stage]] * base[stage]).tolist()
        ]
        variance = row_sums(paths.path_ptr, squares).tolist()
        out = table_delay.copy()
        for i in np.flatnonzero(rss).tolist():
            out[i] = mean[i] + 3.0 * variance[i] ** 0.5
        return out

    def _crpr_credits(self, paths: PathSet,
                      infos: "dict[int, EndpointInfo]") -> np.ndarray:
        """CRPR credit per path, once per (launch CK, capture CK) pair."""
        launch_ck: "dict[int, int | None]" = {}
        credits: "dict[tuple[int | None, int | None], float]" = {}
        out = np.zeros(len(paths))
        for i, (launch, endpoint) in enumerate(zip(
                paths.launch.tolist(), paths.endpoint.tolist())):
            if launch not in launch_ck:
                launch_ck[launch] = self._launch_ck(launch)
            pair = (launch_ck[launch], infos[endpoint].ck_node)
            credit = credits.get(pair)
            if credit is None:
                credit = credits[pair] = self.sta.crpr.credit(*pair)
            out[i] = credit
        return out

    def _false_flags(self, paths: PathSet) -> np.ndarray:
        """``set_false_path`` verdict per path, once per launch/endpoint."""
        out = np.zeros(len(paths), dtype=bool)
        if not self.sta.constraints.has_exceptions():
            return out
        verdicts: "dict[tuple[int, int], bool]" = {}
        for i, pair in enumerate(zip(
                paths.launch.tolist(), paths.endpoint.tolist())):
            verdict = verdicts.get(pair)
            if verdict is None:
                verdict = verdicts[pair] = self._is_false(*pair)
            out[i] = verdict
        return out

    def _is_false(self, launch: int, endpoint: int) -> bool:
        graph = self.sta.graph
        launch_ref = graph.node(launch).ref
        info = graph.endpoints[endpoint]
        return self.sta.constraints.is_false_path(
            launch_ref.gate if launch_ref.gate is not None else launch_ref.pin,
            info.gate if info.gate is not None
            else graph.node(endpoint).ref.pin,
        )

    def analyze_path(self, path: TimingPath) -> TimingPath:
        """Fill one path's GBA/PBA slacks and matrix contributions in place."""
        self.analyze_set(PathSet.from_paths([path])).fill([path])
        return path

    def analyze(self, paths: "list[TimingPath]") -> "list[TimingPath]":
        """Analyze a batch of paths in place; returns the same list."""
        with span("pba.analyze", paths=len(paths)):
            if paths:
                self.analyze_set(PathSet.from_paths(paths)).fill(paths)
        counter("pba.paths_analyzed").inc(len(paths))
        return paths

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def path_mirrors(self) -> PathMirrors:
        """The enumerator's mirrors of the engine's timing.

        Built once per ``timing_epoch``: golden slacks asked one
        endpoint at a time pay for their own walks only, not for a read
        of the whole graph each.
        """
        sta = self.sta
        if self._mirrors is None or self._mirrors_epoch != sta.timing_epoch:
            self._mirrors = path_mirrors(sta.graph, sta.state)
            self._mirrors_epoch = sta.timing_epoch
        return self._mirrors

    def golden_endpoint_slack(self, endpoint: int, k: int = 64) -> float:
        """PBA endpoint slack: min PBA slack over the k worst paths.

        With k large enough to cover every path whose GBA arrival could
        dominate after PBA re-derating, this equals the true path-based
        endpoint slack.  False paths are excluded (this is where PBA
        honours ``set_false_path`` and GBA cannot); an endpoint whose
        every path is false is unconstrained — +inf.
        """
        return self.golden_endpoint_slacks([endpoint], k)[endpoint]

    def golden_endpoint_slacks(
        self,
        endpoints: "list[int] | None" = None,
        k: int = 64,
    ) -> "dict[int, float]":
        """PBA endpoint slack for many endpoints, in endpoint order.

        Each endpoint owns its k-worst enumeration (§3.2); the paths of
        every endpoint are analyzed as one set.  An endpoint with no
        data paths raises :class:`TimingError`.
        """
        slacks, pathless = self.golden_slacks(endpoints, k)
        if pathless:
            raise TimingError(f"endpoint {pathless[0]} has no data paths")
        return slacks

    def golden_slacks(
        self,
        endpoints: "list[int] | None" = None,
        k: int = 64,
    ) -> "tuple[dict[int, float], list[int]]":
        """Golden slacks of the endpoints with data paths, and the rest.

        Returns the PBA endpoint slack of every endpoint some data path
        reaches, in endpoint order, and the endpoints none reaches, so a
        whole-design report analyzes every endpoint as one set and
        skips the pathless ones.
        """
        if endpoints is None:
            endpoints = self.sta.graph.endpoint_nodes()
        with span("pba.endpoint_slacks", endpoints=len(endpoints), k=k):
            paths = enumerate_worst_paths(
                self.sta.graph, self.sta.state, k, endpoints,
                mirrors=self.path_mirrors(),
            )
            reached = {path.endpoint for path in paths}
            slacks = {
                endpoint: float("inf")
                for endpoint in endpoints if endpoint in reached
            }
            pathless = [
                endpoint for endpoint in endpoints if endpoint not in reached
            ]
            self.analyze(paths)
            for path in paths:
                if not path.is_false and path.pba_slack < slacks[path.endpoint]:
                    slacks[path.endpoint] = path.pba_slack
            return slacks, pathless
