"""Pin-level timing graph.

Nodes are pins (gate pins and top-level ports); edges are either *cell
arcs* (input pin -> output pin of one gate, carrying a characterized
:class:`~repro.liberty.cell.TimingArc`) or *net arcs* (driver pin ->
load pin, carrying wire geometry).  Setup/hold *constraint* arcs are not
graph edges; they live in per-endpoint records consulted at slack
extraction time.

The graph supports surgical structural updates (``rebuild_net``,
``drop_net_edges``, ``add_gate_nodes``, ``remove_gate_nodes``) so the
incremental engine can track buffer insertion/removal without a full
rebuild.  Two indexes keep each update proportional to what it touches:

* the *net index* maps a net name to its live net-edge ids, so
  rebuilding or dropping one net costs that net's fanout and a full
  build costs O(nodes + edges);
* the *gate index* maps a gate name to its pin refs in creation order,
  so removing a gate, or re-binding its arcs after a cell swap, costs
  that gate's pins and their edges.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.errors import TimingError
from repro.liberty.cell import ArcKind, PinDirection, TimingArc
from repro.netlist.core import Netlist, PinRef, PortDirection

#: Cap on retained structure-journal entries.  Each node/edge mutation
#: appends one entry; once the deque overflows, the floor version rises
#: and ``touched_since`` answers ``None`` for anything older, forcing
#: the layout patcher and the domain arrays back to a full rebuild.  512 covers hundreds of
#: buffer insert/remove edits between timing queries — far beyond the
#: one-or-two-edit window the what-if loop actually patches across.
_JOURNAL_MAX = 512


class NodeKind(enum.Enum):
    """What a timing node represents."""

    PORT_IN = "port_in"
    PORT_OUT = "port_out"
    PIN_IN = "pin_in"
    PIN_OUT = "pin_out"


class EdgeKind(enum.Enum):
    """What a timing edge represents."""

    CELL = "cell"
    NET = "net"


@dataclass
class TimingNode:
    """A pin in the timing graph."""

    id: int
    ref: PinRef
    kind: NodeKind
    is_clock_tree: bool = False   # on the clock distribution network
    is_clock_sink: bool = False   # a flip-flop CK pin
    is_endpoint: bool = False     # a flip-flop D pin or an output port


@dataclass
class TimingEdge:
    """A delay arc in the timing graph: structure only.

    Its base delay and output slew live in the id-indexed arrays of
    :class:`repro.timing.propagation.TimingState` (``edge_delay`` /
    ``edge_out_slew``), which delay calculation fills.
    """

    id: int
    src: int
    dst: int
    kind: EdgeKind
    gate: str | None = None        # CELL edges: owning gate
    arc: TimingArc | None = None   # CELL edges: characterized arc
    net: str | None = None         # NET edges: the net traversed


@dataclass
class EndpointInfo:
    """Constraint data for one endpoint node."""

    node: int
    gate: str | None = None        # owning flip-flop (None for ports)
    ck_node: int | None = None     # the flop's CK node (None for ports)
    setup_arc: TimingArc | None = None
    hold_arc: TimingArc | None = None


class TimingGraph:
    """The pin-level DAG of one netlist.

    Construction walks every gate and net once; the result references
    the netlist (for cell lookups during delay calculation) but owns its
    own topology, so netlist edits must be mirrored through the
    structural-update methods.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.nodes: list[TimingNode | None] = []
        self.edges: list[TimingEdge | None] = []
        self.node_of: dict[PinRef, int] = {}
        self.out_edges: list[list[int]] = []
        self.in_edges: list[list[int]] = []
        self.endpoints: dict[int, EndpointInfo] = {}
        self._free_nodes: list[int] = []
        self._free_edges: list[int] = []
        #: Net index: net name -> ids of its live NET edges.
        self._net_edges: dict[str, list[int]] = {}
        #: Gate index: gate name -> its pin refs, in creation order.
        self._gate_refs: dict[str, tuple[PinRef, ...]] = {}
        self._topo_cache: list[int] | None = None
        self._rank_cache: dict[int, int] | None = None
        #: Bumped on every topology mutation (node/edge add or drop).
        #: The vector kernel keys its levelized layout on this, so a
        #: weight-only re-derate reuses the flattened arrays while any
        #: structural edit invalidates them.
        self.structure_version: int = 0
        #: Bumped when arc *tables* are re-bound without a topology
        #: change (resize / vt swap); invalidates the kernel's
        #: per-level LUT grouping but not the layout itself.
        self.arc_epoch: int = 0
        #: Bumped by ``mark_clock_tree`` when the set of clock-tree
        #: nodes changes (a re-mark of the same topology leaves it).
        self.clock_epoch: int = 0
        self._clock_nodes: list[int] = []
        #: The :class:`repro.timing.domains.GraphDomains` of the last
        #: ``(structure_version, clock_epoch)`` asked for, patched or
        #: rebuilt by :func:`repro.timing.domains.graph_domains`.
        self.domain_cache = None
        #: Bounded journal of structural mutations: one
        #: ``(structure_version_after, node_ids, edge_ids)`` entry per
        #: mutation, newest last.  ``touched_since`` folds these into
        #: the touched node/edge sets the kernel's layout patcher and the
        #: domain arrays (:mod:`repro.timing.domains`) splice edits from.
        self._journal: deque[tuple[int, tuple[int, ...], tuple[int, ...]]] = (
            deque()
        )
        #: Highest version already trimmed out of the journal; asking
        #: ``touched_since`` for anything below it is unanswerable.
        self._journal_floor: int = 0
        self._build()
        #: ``structure_version`` as of the end of construction.  A graph
        #: still at this version is *pristine*: its node/edge slot
        #: assignment is a pure function of the netlist content, which
        #: is what lets the kernel's layout cache key builds by content
        #: (edits reorder slot reuse and drop a graph out of the cache
        #: for good).
        self.pristine_version: int = self.structure_version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for name, port in self.netlist.ports.items():
            kind = (
                NodeKind.PORT_IN if port.direction is PortDirection.INPUT
                else NodeKind.PORT_OUT
            )
            node = self._new_node(PinRef(None, name), kind)
            if kind is NodeKind.PORT_OUT:
                node.is_endpoint = True
                self.endpoints[node.id] = EndpointInfo(node=node.id)
        for gate_name in self.netlist.gates:
            self.add_gate_nodes(gate_name)
        for net_name in self.netlist.nets:
            self.rebuild_net(net_name)

    def _new_node(self, ref: PinRef, kind: NodeKind) -> TimingNode:
        if ref in self.node_of:
            raise TimingError(f"duplicate timing node for {ref}")
        if self._free_nodes:
            node_id = self._free_nodes.pop()
            node = TimingNode(node_id, ref, kind)
            self.nodes[node_id] = node
            self.out_edges[node_id] = []
            self.in_edges[node_id] = []
        else:
            node_id = len(self.nodes)
            node = TimingNode(node_id, ref, kind)
            self.nodes.append(node)
            self.out_edges.append([])
            self.in_edges.append([])
        self.node_of[ref] = node_id
        self._topo_cache = None
        self.structure_version += 1
        self._note_structure(nodes=(node_id,))
        return node

    def _new_edge(self, src: int, dst: int, kind: EdgeKind, **attrs) -> TimingEdge:
        if self._free_edges:
            edge_id = self._free_edges.pop()
            edge = TimingEdge(edge_id, src, dst, kind, **attrs)
            self.edges[edge_id] = edge
        else:
            edge_id = len(self.edges)
            edge = TimingEdge(edge_id, src, dst, kind, **attrs)
            self.edges.append(edge)
        if edge.net is not None:
            self._net_edges.setdefault(edge.net, []).append(edge_id)
        self.out_edges[src].append(edge_id)
        self.in_edges[dst].append(edge_id)
        self._topo_cache = None
        self.structure_version += 1
        self._note_structure(nodes=(src, dst), edges=(edge_id,))
        return edge

    def _drop_edge(self, edge_id: int) -> None:
        edge = self.edges[edge_id]
        assert edge is not None
        self.out_edges[edge.src].remove(edge_id)
        self.in_edges[edge.dst].remove(edge_id)
        if edge.net is not None:
            net_ids = self._net_edges[edge.net]
            net_ids.remove(edge_id)
            if not net_ids:
                del self._net_edges[edge.net]
        self.edges[edge_id] = None
        self._free_edges.append(edge_id)
        self._topo_cache = None
        self.structure_version += 1
        self._note_structure(nodes=(edge.src, edge.dst), edges=(edge_id,))

    def add_gate_nodes(self, gate_name: str) -> list[int]:
        """Create nodes and cell edges for a (new) gate instance."""
        cell = self.netlist.cell_of(gate_name)
        created: list[int] = []
        refs: list[PinRef] = []
        for pin in cell.pins.values():
            kind = (
                NodeKind.PIN_OUT if pin.direction is PinDirection.OUTPUT
                else NodeKind.PIN_IN
            )
            ref = PinRef(gate_name, pin.name)
            node = self._new_node(ref, kind)
            if pin.is_clock and cell.is_sequential:
                node.is_clock_sink = True
            created.append(node.id)
            refs.append(ref)
        self._gate_refs[gate_name] = tuple(refs)
        for arc in cell.delay_arcs():
            src = self.node_of[PinRef(gate_name, arc.from_pin)]
            dst = self.node_of[PinRef(gate_name, arc.to_pin)]
            self._new_edge(src, dst, EdgeKind.CELL, gate=gate_name, arc=arc)
        setup = next(
            (a for a in cell.constraint_arcs() if a.kind is ArcKind.SETUP), None
        )
        hold = next(
            (a for a in cell.constraint_arcs() if a.kind is ArcKind.HOLD), None
        )
        if setup is not None or hold is not None:
            data_pin = (setup or hold).from_pin
            clock_pin = (setup or hold).to_pin
            data_node = self.node_of[PinRef(gate_name, data_pin)]
            self.nodes[data_node].is_endpoint = True
            self.endpoints[data_node] = EndpointInfo(
                node=data_node,
                gate=gate_name,
                ck_node=self.node_of[PinRef(gate_name, clock_pin)],
                setup_arc=setup,
                hold_arc=hold,
            )
        return created

    def remove_gate_nodes(self, gate_name: str) -> None:
        """Remove all nodes/edges of a deleted gate instance."""
        doomed = [
            (ref, self.node_of[ref])
            for ref in self._gate_refs.pop(gate_name, ())
        ]
        for ref, node_id in doomed:
            for edge_id in list(self.out_edges[node_id]):
                self._drop_edge(edge_id)
            for edge_id in list(self.in_edges[node_id]):
                self._drop_edge(edge_id)
            self.endpoints.pop(node_id, None)
            del self.node_of[ref]
            self.nodes[node_id] = None
            self._free_nodes.append(node_id)
        self._topo_cache = None
        self.structure_version += 1
        self._note_structure(nodes=tuple(node_id for _, node_id in doomed))

    def rebuild_net(self, net_name: str) -> list[int]:
        """(Re)create the net edges of one net; returns new edge ids.

        Called at build time and after any edit that changes a net's
        driver or load set.
        """
        self.drop_net_edges(net_name)
        driver = self.netlist.net_driver(net_name)
        if driver is None:
            return []
        src = self.node_of.get(driver)
        if src is None:
            return []
        created: list[int] = []
        for load in self.netlist.net_loads(net_name):
            dst = self.node_of.get(load)
            if dst is None:
                continue
            edge = self._new_edge(src, dst, EdgeKind.NET, net=net_name)
            created.append(edge.id)
        return created

    def drop_net_edges(self, net_name: str) -> list[int]:
        """Drop every live edge of one net; returns the dropped ids.

        Drops in ascending id order, so the freed slots are reused in
        the same order whatever sequence of edits created them.
        """
        stale = sorted(self._net_edges.get(net_name, ()))
        for edge_id in stale:
            self._drop_edge(edge_id)
        return stale

    def _note_structure(
        self,
        nodes: tuple[int, ...] = (),
        edges: tuple[int, ...] = (),
    ) -> None:
        """Record one structural mutation in the bounded journal."""
        self._journal.append((self.structure_version, nodes, edges))
        while len(self._journal) > _JOURNAL_MAX:
            version, _, _ = self._journal.popleft()
            if version > self._journal_floor:
                self._journal_floor = version

    def touched_since(
        self, version: int
    ) -> tuple[set[int], set[int]] | None:
        """Node/edge ids touched by every mutation after ``version``.

        Returns ``(node_ids, edge_ids)`` — slot ids, which may since
        have been freed or reused; consumers must re-read liveness from
        the graph.  Returns ``None`` when the journal has been trimmed
        past ``version`` (too many edits): the caller must fall back to
        a full rebuild.
        """
        if version < self._journal_floor:
            return None
        nodes: set[int] = set()
        edges: set[int] = set()
        for entry_version, entry_nodes, entry_edges in reversed(self._journal):
            if entry_version <= version:
                break
            nodes.update(entry_nodes)
            edges.update(entry_edges)
        return nodes, edges

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> TimingNode:
        """The live node with this id (raises on stale ids)."""
        node = self.nodes[node_id]
        if node is None:
            raise TimingError(f"node {node_id} has been removed")
        return node

    def edge(self, edge_id: int) -> TimingEdge:
        """The live edge with this id (raises on stale ids)."""
        edge = self.edges[edge_id]
        if edge is None:
            raise TimingError(f"edge {edge_id} has been removed")
        return edge

    def gate_nodes(self, gate_name: str) -> list[int]:
        """Node ids of one gate's pins, in creation order.

        Empty when the gate has no nodes (never added, or removed).
        """
        return [self.node_of[ref] for ref in self._gate_refs.get(gate_name, ())]

    def live_nodes(self) -> "list[TimingNode]":
        """All current nodes."""
        return [n for n in self.nodes if n is not None]

    def live_edges(self) -> "list[TimingEdge]":
        """All current edges."""
        return [e for e in self.edges if e is not None]

    def node_count(self) -> int:
        """Number of live nodes."""
        return len(self.nodes) - len(self._free_nodes)

    def edge_count(self) -> int:
        """Number of live edges."""
        return len(self.edges) - len(self._free_edges)

    def topological_order(self) -> list[int]:
        """Node ids in topological order (cached until mutation)."""
        if self._topo_cache is not None:
            return self._topo_cache
        in_degree: dict[int, int] = {}
        for node in self.live_nodes():
            in_degree[node.id] = len(self.in_edges[node.id])
        queue = deque(
            node_id for node_id, deg in in_degree.items() if deg == 0
        )
        order: list[int] = []
        while queue:
            node_id = queue.popleft()
            order.append(node_id)
            for edge_id in self.out_edges[node_id]:
                edge = self.edges[edge_id]
                assert edge is not None
                in_degree[edge.dst] -= 1
                if in_degree[edge.dst] == 0:
                    queue.append(edge.dst)
        if len(order) != self.node_count():
            raise TimingError(
                "timing graph contains a cycle (combinational loop?)"
            )
        self._topo_cache = order
        self._rank_cache = None
        return order

    def topological_rank(self) -> dict[int, int]:
        """node id -> position in topological order (cached).

        The incremental engine keys its worklist heap on this; caching
        it here (instead of rebuilding per update) matters because a
        closure run performs thousands of small updates.
        """
        order = self.topological_order()
        if self._rank_cache is None:
            self._rank_cache = {
                node_id: i for i, node_id in enumerate(order)
            }
        return self._rank_cache

    def mark_clock_tree(self, clock_ports: "list[str]") -> None:
        """Flag every node on the clock distribution network.

        Starts at the clock source ports and floods forward; CK pins are
        flagged but not crossed (the CK->Q arc launches the *data*
        domain).
        """
        for node in self.live_nodes():
            node.is_clock_tree = False
        queue: deque[int] = deque()
        for port in clock_ports:
            node_id = self.node_of.get(PinRef(None, port))
            if node_id is None:
                raise TimingError(f"clock port {port} not in timing graph")
            queue.append(node_id)
        marked: list[int] = []
        while queue:
            node_id = queue.popleft()
            node = self.node(node_id)
            if node.is_clock_tree:
                continue
            node.is_clock_tree = True
            marked.append(node_id)
            if node.is_clock_sink:
                continue
            for edge_id in self.out_edges[node_id]:
                edge = self.edges[edge_id]
                assert edge is not None
                queue.append(edge.dst)
        marked.sort()
        if marked != self._clock_nodes:
            self._clock_nodes = marked
            self.clock_epoch += 1

    def clock_sinks_by_port(self, clock_ports: "list[str]") -> dict[int, str]:
        """Map every clock-sink (CK) node to the port clocking it.

        Floods each clock port's network separately; a sink reachable
        from several ports keeps the first port in ``clock_ports``
        order (deterministic).  The basis of multi-clock analysis: an
        endpoint's capture clock is the clock of its CK sink.
        """
        sink_port: dict[int, str] = {}
        for port in clock_ports:
            start = self.node_of.get(PinRef(None, port))
            if start is None:
                raise TimingError(f"clock port {port} not in timing graph")
            queue: deque[int] = deque([start])
            seen: set[int] = set()
            while queue:
                node_id = queue.popleft()
                if node_id in seen:
                    continue
                seen.add(node_id)
                node = self.node(node_id)
                if node.is_clock_sink:
                    sink_port.setdefault(node_id, port)
                    continue
                for edge_id in self.out_edges[node_id]:
                    queue.append(self.edge(edge_id).dst)
        return sink_port

    def endpoint_nodes(self) -> list[int]:
        """Ids of all endpoint nodes, in id order (deterministic)."""
        return sorted(self.endpoints)
