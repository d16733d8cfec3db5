"""Slack provenance and pessimism attribution — the ``explain`` layer.

A slack number answers *whether* an endpoint meets timing; this module
answers *why*.  :func:`explain_endpoint` decomposes one endpoint's
worst (late) path into per-arc rows — base delay, applied derate,
derate provenance, cumulative arrival — and attributes, per stage, how
much GBA pessimism the arc carries relative to the paper's path-based
reference and how much of it an installed mGBA correction removed.
:func:`explain_design` aggregates the same decomposition over every
endpoint into a design-level pessimism accounting summary (total /
removed / residual, top-K endpoints and arcs by residual).

Two contracts make the output trustworthy rather than descriptive:

* **Exactness** — each row's ``arrival`` is the running sum
  ``arrival[src] + base_delay * derate`` along the traced argmax path,
  which is the *same* IEEE-754 expression both propagation kernels
  max-reduce.  The final row's arrival is therefore bit-identical to
  ``state.arrival_late[endpoint]`` and ``required - arrival``
  bit-identical to the engine's reported slack (gated in
  ``tests/timing/test_explain.py``).
* **Kernel independence** — arcs are classified one way under both
  kernels, from the timing graph (the domain arrays of
  :func:`~repro.timing.domains.graph_domains` plus the engine's GBA
  depths), and the arithmetic above is the one both kernels run, so an
  explanation is identical (``==`` on the frozen records) under either
  kernel.

The per-stage pessimism model mirrors :class:`repro.pba.engine.PBAEngine`
with its defaults (``variation="table"``, ``recalc_slew=False``): the
path-based derate is ``table.derate(path_depth, path_distance)`` on
data cells, the domain derate elsewhere, plus the exact CRPR credit on
the launch/capture clock pair.  Derate provenance strings follow
``docs/formats.md``: ``aocv:<table-tag>/depth=<k>`` for a table-driven
GBA derate, ``mgba:fitted w=<weight>/depth=<k>`` when a fitted weight
multiplies it, and ``default`` for flat clock/plain/no-table factors.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import TimingError
from repro.obs.metrics import counter, gauge
from repro.obs.trace import span
from repro.timing.domains import DOMAINS, graph_domains, path_distances
from repro.timing.propagation import EdgeDomain
from repro.timing.report import trace_worst_path
from repro.timing.slack import EndpointSlack
from repro.timing.sta import STAEngine


@dataclass(frozen=True, slots=True)
class ArcRow:
    """One arc of an explained path, with exact attribution.

    ``delay`` is ``base_delay * derate`` — the very increment the
    propagation added — and ``arrival`` the running (bit-identical)
    arrival at ``dst``.  ``pessimism`` is the arc's GBA−PBA delta under
    plain GBA derating, split into ``removed`` (reclaimed by the
    installed mGBA weight, 0 on a clean engine) and ``residual``
    (still on the books after correction).

    Slotted, and its pin names and provenance tags interned: a served
    explain record holds one row per arc of every path it explains.
    """

    edge: int
    src: str
    dst: str
    domain: str
    base_delay: float
    derate: float
    delay: float
    arrival: float
    provenance: str
    gba_derate: float
    pba_derate: float
    pessimism: float
    removed: float
    residual: float


@dataclass(frozen=True)
class PathExplanation:
    """One endpoint's worst path, fully attributed.

    ``slack`` / ``arrival`` / ``required`` are bit-identical to the
    engine's :class:`~repro.timing.slack.EndpointSlack`; ``crpr_credit``
    is the exact launch/capture common-clock credit a path-based
    analysis would add (GBA grants zero, so it counts as pessimism).
    """

    endpoint: str
    node: int
    slack: float
    arrival: float
    required: float
    crpr_credit: float
    depth: int
    distance: float
    pessimism: float
    removed: float
    residual: float
    rows: "tuple[ArcRow, ...]"

    def to_dict(self) -> "dict[str, Any]":
        return asdict(self)


@dataclass(frozen=True)
class PessimismSummary:
    """Design-level pessimism accounting over every endpoint's worst path.

    ``pessimism`` is the total GBA−PBA gap, ``removed`` the amount the
    installed fitted derates gave back, ``residual`` what remains, and
    ``crpr`` the portion of the total owed to clock-reconvergence
    pessimism.  ``top_endpoints`` / ``top_arcs`` rank residual
    pessimism — where a designer (or the fitter) should look next.
    """

    endpoints: int
    arcs: int
    pessimism: float
    removed: float
    residual: float
    crpr: float
    top_endpoints: "tuple[tuple[str, float], ...]"
    top_arcs: "tuple[tuple[str, float], ...]"


@dataclass(frozen=True)
class DesignExplanation:
    """The design-wide explain record: accounting plus worst-path detail."""

    design: str
    summary: PessimismSummary
    paths: "tuple[PathExplanation, ...]"

    def to_dict(self) -> "dict[str, Any]":
        return asdict(self)


def _table_tag(table) -> str:
    """Short content tag of a derating table (for provenance strings)."""
    from repro.aocv.table import write_aocv

    return hashlib.sha256(write_aocv(table).encode()).hexdigest()[:8]


def _design_facts(engine: STAEngine) -> tuple:
    """What explaining an endpoint reads that no endpoint changes.

    ``(settings, classify, table_tag, gba_late)``, built once per
    :func:`explain_endpoint` / :func:`explain_design` call: the derate
    settings (the GBA distance is a bounding box over every placed
    cell), the arc classifier, the table's provenance tag (a
    serialization and a hash), and the GBA data derate by depth,
    memoized as ``compute_edge_derates`` does.
    """
    table = engine.config.derating_table
    settings = engine.derate_settings()
    return (
        settings,
        arc_classifier(engine),
        _table_tag(table) if table is not None else "",
        functools.cache(
            lambda depth: table.derate(depth, settings.gba_distance)
        ),
    )


def arc_classifier(engine: STAEngine) \
        -> "Callable[[Any], tuple[EdgeDomain, int, str | None]]":
    """``edge -> (domain, gba_depth, gate)`` from the timing graph.

    The one classification under both kernels: the graph's domain
    arrays (:func:`~repro.timing.domains.graph_domains`) plus the
    engine's GBA depths, looked up per traced edge.
    """
    depths = engine.gba_depths
    edge_domain = graph_domains(engine.graph).edge_domain

    def classify(edge):
        domain = DOMAINS[edge_domain[edge.id]]
        if domain is EdgeDomain.DATA_CELL:
            return domain, depths.get(edge.gate, 1), edge.gate
        return domain, 0, edge.gate

    return classify


def _path_distance(engine: STAEngine, node_ids: "list[int]") -> float:
    """AOCV distance of a traced path: bbox half-perimeter of its anchors,
    as PBA measures it (:func:`~repro.timing.domains.path_distances`)."""
    distances = path_distances(
        engine.graph, engine.placement,
        np.array([0, len(node_ids)]), np.asarray(node_ids, dtype=np.int64),
    )
    return float(distances[0])


def _resolve_endpoint(engine: STAEngine, endpoint: "int | str",
                      slacks: "list[EndpointSlack]") -> EndpointSlack:
    if isinstance(endpoint, str):
        for item in slacks:
            if item.name == endpoint:
                return item
        raise TimingError(f"no endpoint named {endpoint!r}")
    for item in slacks:
        if item.node == endpoint:
            return item
    raise TimingError(f"node {endpoint} is not a constrained endpoint")


def explain_endpoint(engine: STAEngine,
                     endpoint: "int | str") -> PathExplanation:
    """Attribute one endpoint's worst-path slack arc by arc.

    ``endpoint`` is a timing node id or an endpoint pin name (as
    reported by ``setup_slacks``).  The returned record's arrival and
    slack are bit-identical to the engine's reported values, and the
    record itself is identical under either propagation kernel.
    """
    engine.ensure_timing()
    slacks = engine.setup_slacks()
    target = _resolve_endpoint(engine, endpoint, slacks)
    with span("explain.endpoint", endpoint=target.name) as exp_span:
        explanation = _explain_resolved(
            engine, target, _design_facts(engine)
        )
        exp_span.set(arcs=len(explanation.rows))
    counter("explain.endpoints").inc()
    counter("explain.arcs").inc(len(explanation.rows))
    return explanation


def _explain_resolved(engine: STAEngine, target: EndpointSlack,
                      facts: tuple) -> PathExplanation:
    graph, state = engine.graph, engine.state
    table = engine.config.derating_table
    settings, classify, table_tag, gba_late = facts
    weights = engine.weights

    edge_ids = trace_worst_path(graph, state, target.node)
    node_ids = [graph.edge(edge_ids[0]).src] if edge_ids else [target.node]
    for eid in edge_ids:
        node_ids.append(graph.edge(eid).dst)

    # The launch CK pin is the last clock-tree node the traced path
    # passes through (None for port-launched paths); PBA's path-local
    # AOCV distance anchors at the launch flop, not the clock buffers,
    # so the data portion starts there too.
    clock_tree = graph_domains(graph).node_is_clock_tree
    launch_ck = None
    launch_idx = 0
    for idx, node_id in enumerate(node_ids):
        if clock_tree[node_id]:
            launch_ck = node_id
            launch_idx = idx

    # PBA's path-specific derate ingredients (table model, GBA slews).
    depth = sum(
        1 for eid in edge_ids
        if classify(graph.edge(eid))[0] is EdgeDomain.DATA_CELL
    )
    distance = _path_distance(engine, node_ids[launch_idx:])
    if table is not None and depth > 0:
        pba_data_derate = table.derate(depth, distance)
    else:
        pba_data_derate = engine.constraints.flat_derate_late

    # The exact CRPR credit on this path's launch/capture clock pair.
    info = graph.endpoints.get(target.node)
    capture_ck = info.ck_node if info is not None else None
    crpr_credit = engine.crpr.credit(launch_ck, capture_ck)

    # Pin names and provenance tags repeat across rows, paths and
    # records: interned, they are one string each however many hold them.
    names = [sys.intern(str(graph.node(n).ref)) for n in node_ids]
    rows: "list[ArcRow]" = []
    arrival = float(state.arrival_late[node_ids[0]])
    for index, eid in enumerate(edge_ids):
        edge = graph.edge(eid)
        domain, gba_depth, gate = classify(edge)
        base = float(state.edge_delay[eid])
        derate = float(state.derate_late[eid])
        if domain is EdgeDomain.CLOCK:
            gba_derate = settings.clock_late
            pba_derate = settings.clock_late
            provenance = "default"
        elif domain is EdgeDomain.DATA_CELL:
            if table is not None:
                gba_derate = gba_late(gba_depth)
            else:
                gba_derate = settings.flat_late
            pba_derate = pba_data_derate
            weight = weights.get(gate, 1.0) if gate is not None else 1.0
            if weight != 1.0:
                provenance = f"mgba:fitted w={weight:.6g}/depth={gba_depth}"
            elif table is not None:
                provenance = f"aocv:{table_tag}/depth={gba_depth}"
            else:
                provenance = "default"
        else:
            gba_derate = 1.0
            pba_derate = derate
            provenance = "default"
        # The exact propagated increment: same expression, same order
        # of operations as relax_node / the level sweep.
        delay = base * float(state.derate_late[eid])
        arrival = arrival + delay
        gba_raw_delay = base * gba_derate
        pba_delay = base * pba_derate
        rows.append(ArcRow(
            edge=eid,
            src=names[index],
            dst=names[index + 1],
            domain=domain.value,
            base_delay=base,
            derate=derate,
            delay=delay,
            arrival=arrival,
            provenance=sys.intern(provenance),
            gba_derate=float(gba_derate),
            pba_derate=float(pba_derate),
            pessimism=gba_raw_delay - pba_delay,
            removed=gba_raw_delay - delay,
            residual=delay - pba_delay,
        ))

    slack = target.required - arrival
    pessimism = sum(r.pessimism for r in rows) + crpr_credit
    removed = sum(r.removed for r in rows)
    residual = sum(r.residual for r in rows) + crpr_credit
    return PathExplanation(
        endpoint=target.name,
        node=target.node,
        slack=slack,
        arrival=arrival,
        required=target.required,
        crpr_credit=crpr_credit,
        depth=depth,
        distance=distance,
        pessimism=pessimism,
        removed=removed,
        residual=residual,
        rows=tuple(rows),
    )


def explain_design(engine: STAEngine, top_k: int = 10,
                   endpoint: "int | str | None" = None) -> DesignExplanation:
    """Design-wide pessimism accounting over every endpoint's worst path.

    ``paths`` carries the full per-arc detail for the ``top_k``
    worst-slack endpoints; the summary's top-K lists rank *residual*
    pessimism across all endpoints and arcs.  With ``endpoint`` the
    record narrows to that one endpoint (summary included) — the same
    schema either way.  Records the ``explain.pessimism_removed`` /
    ``explain.pessimism_residual`` gauges so bench history can trend
    attribution drift.
    """
    engine.ensure_timing()
    with span("explain.design", design=engine.netlist.name) as exp_span:
        slacks = sorted(
            engine.setup_slacks(), key=lambda s: (s.slack, s.node)
        )
        if endpoint is not None:
            slacks = [_resolve_endpoint(engine, endpoint, slacks)]
        facts = _design_facts(engine)
        explanations = [_explain_resolved(engine, s, facts) for s in slacks]
        total_arcs = sum(len(e.rows) for e in explanations)
        pessimism = sum(e.pessimism for e in explanations)
        removed = sum(e.removed for e in explanations)
        residual = sum(e.residual for e in explanations)
        crpr = sum(e.crpr_credit for e in explanations)
        by_residual = sorted(
            explanations, key=lambda e: (-e.residual, e.endpoint)
        )
        arc_rows = [
            (f"{row.src} -> {row.dst}", row.residual)
            for e in explanations for row in e.rows
            if row.domain == EdgeDomain.DATA_CELL.value
        ]
        arc_rows.sort(key=lambda item: (-item[1], item[0]))
        summary = PessimismSummary(
            endpoints=len(explanations),
            arcs=total_arcs,
            pessimism=pessimism,
            removed=removed,
            residual=residual,
            crpr=crpr,
            top_endpoints=tuple(
                (e.endpoint, e.residual) for e in by_residual[:top_k]
            ),
            top_arcs=tuple(arc_rows[:top_k]),
        )
        exp_span.set(endpoints=len(explanations), arcs=total_arcs)
    counter("explain.endpoints").inc(len(explanations))
    counter("explain.arcs").inc(total_arcs)
    gauge("explain.pessimism_removed").set(removed)
    gauge("explain.pessimism_residual").set(residual)
    return DesignExplanation(
        design=engine.netlist.name,
        summary=summary,
        paths=tuple(explanations[:top_k]),
    )


# ----------------------------------------------------------------------
# Renderers (markdown; the JSON twin is ``to_dict`` + ``json.dumps``)
# ----------------------------------------------------------------------
def format_path_explanation(explanation: PathExplanation) -> str:
    """One endpoint's provenance table as markdown."""
    lines = [
        f"### Endpoint `{explanation.endpoint}`",
        "",
        f"slack **{explanation.slack:.2f} ps** "
        f"(arrival {explanation.arrival:.2f}, "
        f"required {explanation.required:.2f}); "
        f"path depth {explanation.depth}, "
        f"distance {explanation.distance:.0f} nm, "
        f"CRPR credit {explanation.crpr_credit:.2f} ps",
        "",
        "| pin | domain | base (ps) | derate | provenance "
        "| arrival (ps) | pessimism (ps) | residual (ps) |",
        "|---|---|---:|---:|---|---:|---:|---:|",
    ]
    for row in explanation.rows:
        lines.append(
            f"| `{row.dst}` | {row.domain} | {row.base_delay:.2f} "
            f"| {row.derate:.4f} | {row.provenance} "
            f"| {row.arrival:.2f} | {row.pessimism:.2f} "
            f"| {row.residual:.2f} |"
        )
    lines.append("")
    lines.append(
        f"pessimism {explanation.pessimism:.2f} ps = "
        f"removed {explanation.removed:.2f} + "
        f"residual {explanation.residual:.2f}"
    )
    return "\n".join(lines)


def format_design_explanation(explanation: DesignExplanation) -> str:
    """The design-level accounting summary as markdown."""
    summary = explanation.summary
    lines = [
        f"## Pessimism accounting — `{explanation.design}`",
        "",
        f"- endpoints explained: **{summary.endpoints}** "
        f"({summary.arcs} arcs)",
        f"- total GBA pessimism: **{summary.pessimism:.2f} ps** "
        f"(of which CRPR {summary.crpr:.2f} ps)",
        f"- removed by fitted derates: **{summary.removed:.2f} ps**",
        f"- residual: **{summary.residual:.2f} ps**",
        "",
        "| worst residual endpoints | ps |",
        "|---|---:|",
    ]
    for name, value in summary.top_endpoints:
        lines.append(f"| `{name}` | {value:.2f} |")
    if summary.top_arcs:
        lines += ["", "| worst residual arcs | ps |", "|---|---:|"]
        for name, value in summary.top_arcs:
            lines.append(f"| `{name}` | {value:.2f} |")
    for path in explanation.paths:
        lines += ["", format_path_explanation(path)]
    return "\n".join(lines)
