"""Delay calculation: cell arcs via NLDM lookup, net arcs via Elmore-lite.

Wire parasitics come from one of two sources, in precedence order:

1. an installed :class:`~repro.netlist.parasitics.Parasitics` set
   (extracted / SPEF-lite annotated) — each covered net uses its lumped
   pi RC;
2. the geometric model — each driver-to-load segment is an RC wire of
   length equal to the Manhattan distance between the placed instances.

Either way, net arc delay to one load is ``R * (C/2 + C_pin)`` and the
net's total wire capacitance additionally loads the driving cell arc.
Unplaced, unannotated objects contribute zero wire, so purely logical
designs still time correctly with cell delays only.

The vector kernel looks up each level's cell arcs in one
:meth:`DelayCalculator.compute_arcs_batch` call: arcs whose tables share
an axis pair interpolate together from stacked grids
(:class:`repro.liberty.lut.TableStack`), the rest per table pair.  It
takes one engine's 1-D slews, or a scenario stack's ``(k, S)`` slews
with an ``(S,)`` row of per-scenario delay scales, and is bit-identical
per element to :meth:`DelayCalculator.cell_edge`.
"""

from __future__ import annotations

from repro.netlist.core import Netlist, PinRef
from repro.netlist.parasitics import Parasitics
from repro.netlist.placement import Placement
from repro.timing.graph import EdgeKind, TimingEdge, TimingGraph


def _anchor_name(ref: PinRef) -> str:
    """Placement key of a pin reference (gate name, or port name)."""
    return ref.gate if ref.gate is not None else ref.pin


def segment_length(placement: Placement | None, a: PinRef, b: PinRef) -> float:
    """Manhattan wire length between two pins (nm); 0 when unplaced."""
    if placement is None:
        return 0.0
    name_a, name_b = _anchor_name(a), _anchor_name(b)
    if not placement.has(name_a) or not placement.has(name_b):
        return 0.0
    return placement.distance(name_a, name_b)


class DelayCalculator:
    """Computes base edge delays and output slews for one design."""

    def __init__(self, netlist: Netlist, placement: Placement | None,
                 wire_r_per_nm: float, wire_c_per_nm: float,
                 parasitics: Parasitics | None = None,
                 delay_scale: float = 1.0):
        self.netlist = netlist
        self.placement = placement
        self.wire_r_per_nm = wire_r_per_nm
        self.wire_c_per_nm = wire_c_per_nm
        self.parasitics = parasitics
        #: PVT corner scale applied to cell delays and slews (wires are
        #: extracted geometry and scale separately via r/c per nm).
        self.delay_scale = delay_scale

    def net_wire_capacitance(self, net_name: str) -> float:
        """Total wire capacitance of a net (fF).

        Annotated nets use their extracted value; others fall back to
        star-topology geometry.
        """
        if self.parasitics is not None:
            annotation = self.parasitics.get(net_name)
            if annotation is not None:
                return annotation.capacitance
        driver = self.netlist.net_driver(net_name)
        if driver is None:
            return 0.0
        total_length = 0.0
        for load in self.netlist.net_loads(net_name):
            total_length += segment_length(self.placement, driver, load)
        return self.wire_c_per_nm * total_length

    def output_load(self, net_name: str) -> float:
        """Capacitance seen by the driver of a net: pins + wire (fF)."""
        return (
            self.netlist.net_load_capacitance(net_name)
            + self.net_wire_capacitance(net_name)
        )

    def cell_edge(self, graph: TimingGraph, edge: TimingEdge,
                  input_slew: float) -> tuple[float, float]:
        """(delay, output slew) of a cell arc at the given input slew."""
        assert edge.kind is EdgeKind.CELL and edge.arc is not None
        dst_ref = graph.node(edge.dst).ref
        assert dst_ref.gate is not None
        net_name = self.netlist.gate(dst_ref.gate).connections.get(dst_ref.pin)
        load = self.output_load(net_name) if net_name is not None else 0.0
        delay = edge.arc.delay.lookup(input_slew, load)
        assert edge.arc.output_slew is not None
        out_slew = edge.arc.output_slew.lookup(input_slew, load)
        return delay * self.delay_scale, out_slew * self.delay_scale

    def net_edge(self, graph: TimingGraph, edge: TimingEdge,
                 input_slew: float) -> tuple[float, float]:
        """(delay, output slew) of a net arc; slew passes through."""
        assert edge.kind is EdgeKind.NET and edge.net is not None
        dst_ref = graph.node(edge.dst).ref
        pin_cap = 0.0
        if dst_ref.gate is not None:
            cell = self.netlist.cell_of(dst_ref.gate)
            pin_cap = cell.pin(dst_ref.pin).capacitance
        if self.parasitics is not None:
            annotation = self.parasitics.get(edge.net)
            if annotation is not None:
                return annotation.elmore_to_load(pin_cap), input_slew
        src_ref = graph.node(edge.src).ref
        length = segment_length(self.placement, src_ref, dst_ref)
        if length == 0.0:
            return 0.0, input_slew
        resistance = self.wire_r_per_nm * length
        wire_cap = self.wire_c_per_nm * length
        delay = resistance * (wire_cap / 2.0 + pin_cap)
        return delay, input_slew

    def compute_edge(self, graph: TimingGraph, edge: TimingEdge,
                     input_slew: float) -> tuple[float, float]:
        """(delay, output slew) of any arc at the given input slew."""
        if edge.kind is EdgeKind.CELL:
            return self.cell_edge(graph, edge, input_slew)
        return self.net_edge(graph, edge, input_slew)

    # ------------------------------------------------------------------
    # Batched (vector-kernel) entry point
    # ------------------------------------------------------------------
    def compute_arcs_batch(self, tables, input_slews, loads,
                           scale=None) -> "tuple":
        """(delays, output slews) of a batch of cell arcs.

        The batch analogue of :meth:`cell_edge`: ``tables`` is the
        batch's :class:`~repro.liberty.lut.ArcTables` (one level of the
        vector kernel's sweep), whose lookup evaluates each arc's
        interpolation as ``lookup`` does, and the corner scale
        multiplies the looked-up values exactly as the scalar path
        does, so every element is bit-identical to :meth:`cell_edge`.

        ``scale`` defaults to ``self.delay_scale``.  A scenario stack
        passes ``(k, S)`` slews, ``(k, 1)`` loads and an ``(S,)`` row of
        per-scenario scales: the lookup broadcasts elementwise, so
        column ``s`` equals this method on a calculator whose
        ``delay_scale`` is ``scale[s]``, bit for bit.
        """
        if scale is None:
            scale = self.delay_scale
        delays, out_slews = tables.lookup(input_slews, loads)
        return delays * scale, out_slews * scale
