"""Gate-level netlist data model.

A :class:`Netlist` owns gates (cell instances), nets, and top-level
ports, and keeps driver/load connectivity indexes up to date through
every edit.  It holds a reference to the :class:`~repro.liberty.library.
Library` its instances come from, so pin directions are always known and
edits can be validated immediately.

Conventions
-----------
* A :class:`PinRef` with ``gate=None`` denotes a top-level port.
* An input port *drives* its net; an output port *loads* its net.
* Every net has at most one driver (checked on connect).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import NetlistError
from repro.liberty.cell import Cell, PinDirection
from repro.liberty.library import Library


class PortDirection(enum.Enum):
    """Direction of a top-level module port."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class PinRef:
    """Reference to a gate pin (``gate`` set) or a top port (``gate=None``)."""

    gate: str | None
    pin: str

    @property
    def is_port(self) -> bool:
        """True when this reference names a top-level port."""
        return self.gate is None

    def __str__(self) -> str:
        return self.pin if self.gate is None else f"{self.gate}/{self.pin}"


@dataclass
class Port:
    """A top-level module port, connected to the net of the same name."""

    name: str
    direction: PortDirection


@dataclass
class Gate:
    """A cell instance: maps cell pin names to net names."""

    name: str
    cell_name: str
    connections: dict[str, str] = field(default_factory=dict)


@dataclass
class Net:
    """A net; connectivity lives in the netlist indexes, not here."""

    name: str


class Netlist:
    """A gate-level netlist bound to a cell library.

    All mutation goes through the ``add_*`` / ``connect`` / ``disconnect``
    / ``remove_*`` / ``swap_cell`` methods so the driver/load indexes stay
    consistent; tests assert index consistency after random edit
    sequences.
    """

    def __init__(self, name: str, library: Library):
        self.name = name
        self.library = library
        self.gates: dict[str, Gate] = {}
        self.nets: dict[str, Net] = {}
        self.ports: dict[str, Port] = {}
        self._driver: dict[str, PinRef] = {}
        self._loads: dict[str, set[PinRef]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_net(self, name: str) -> Net:
        """Create a net; returns the existing net if already present."""
        if name in self.nets:
            return self.nets[name]
        net = Net(name)
        self.nets[name] = net
        self._loads[name] = set()
        return net

    def add_port(self, name: str, direction: PortDirection) -> Port:
        """Create a top-level port and its same-named net."""
        if name in self.ports:
            raise NetlistError(f"duplicate port {name}")
        port = Port(name, direction)
        self.ports[name] = port
        self.add_net(name)
        ref = PinRef(None, name)
        if direction is PortDirection.INPUT:
            self._set_driver(name, ref)
        else:
            self._loads[name].add(ref)
        return port

    def add_gate(self, name: str, cell_name: str,
                 connections: dict[str, str] | None = None) -> Gate:
        """Instantiate a cell, optionally connecting pins to nets.

        ``connections`` maps pin names to net names; nets are created on
        demand.  Unconnected pins may be wired later with
        :meth:`connect`.  A connection that fails removes the gate and
        every net this call created before the error propagates.
        """
        if name in self.gates:
            raise NetlistError(f"duplicate gate {name}")
        self.library.cell(cell_name)  # validates the cell exists
        gate = Gate(name, cell_name)
        self.gates[name] = gate
        # Nets only ever append to the insertion-ordered dict here, so
        # the ones this call created are those past its old length.
        known = len(self.nets)
        try:
            for pin_name, net_name in (connections or {}).items():
                self.connect(name, pin_name, net_name)
        except BaseException:
            self.remove_gate(name)
            for net_name in list(self.nets)[known:]:
                self.remove_net(net_name)
            raise
        return gate

    # ------------------------------------------------------------------
    # Connectivity edits
    # ------------------------------------------------------------------
    def connect(self, gate_name: str, pin_name: str, net_name: str) -> None:
        """Connect a gate pin to a net (creating the net if needed)."""
        gate = self.gate(gate_name)
        cell = self.cell_of(gate_name)
        pin = cell.pin(pin_name)
        if pin_name in gate.connections:
            self.disconnect(gate_name, pin_name)
        self.add_net(net_name)
        ref = PinRef(gate_name, pin_name)
        if pin.direction is PinDirection.OUTPUT:
            self._set_driver(net_name, ref)
        else:
            self._loads[net_name].add(ref)
        gate.connections[pin_name] = net_name

    def disconnect(self, gate_name: str, pin_name: str) -> None:
        """Remove the connection of a gate pin, if any."""
        gate = self.gate(gate_name)
        net_name = gate.connections.pop(pin_name, None)
        if net_name is None:
            return
        ref = PinRef(gate_name, pin_name)
        if self._driver.get(net_name) == ref:
            del self._driver[net_name]
        else:
            self._loads[net_name].discard(ref)

    def remove_gate(self, gate_name: str) -> None:
        """Delete a gate, disconnecting all its pins."""
        gate = self.gate(gate_name)
        for pin_name in list(gate.connections):
            self.disconnect(gate_name, pin_name)
        del self.gates[gate_name]

    def remove_net(self, net_name: str) -> None:
        """Delete an unconnected net."""
        if net_name not in self.nets:
            raise NetlistError(f"unknown net {net_name}")
        if self._driver.get(net_name) is not None or self._loads[net_name]:
            raise NetlistError(f"net {net_name} is still connected")
        del self.nets[net_name]
        del self._loads[net_name]

    def swap_cell(self, gate_name: str, new_cell_name: str) -> str:
        """Replace a gate's cell with a pin-compatible one (e.g. resize).

        Returns the previous cell name.  Raises when the new cell lacks
        any currently connected pin, or is sequential where the old one
        is combinational (or the other way round): timing keeps a swapped
        gate's graph, clock sinks, GBA depths and edge classes, which
        all depend on that flag.
        """
        gate = self.gate(gate_name)
        new_cell = self.library.cell(new_cell_name)
        if new_cell.is_sequential != self.cell_of(gate_name).is_sequential:
            raise NetlistError(
                f"cannot swap {gate_name} to {new_cell_name}: "
                "sequential and combinational cells do not swap"
            )
        for pin_name in gate.connections:
            if pin_name not in new_cell.pins:
                raise NetlistError(
                    f"cannot swap {gate_name} to {new_cell_name}: "
                    f"no pin {pin_name}"
                )
        old = gate.cell_name
        gate.cell_name = new_cell_name
        return old

    def _set_driver(self, net_name: str, ref: PinRef) -> None:
        existing = self._driver.get(net_name)
        if existing is not None and existing != ref:
            raise NetlistError(
                f"net {net_name} already driven by {existing}, "
                f"cannot add driver {ref}"
            )
        self._driver[net_name] = ref

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def gate(self, name: str) -> Gate:
        """Return the named gate, raising :class:`NetlistError` if absent."""
        try:
            return self.gates[name]
        except KeyError:
            raise NetlistError(f"unknown gate {name}") from None

    def cell_of(self, gate_name: str) -> Cell:
        """The library cell of the named gate."""
        return self.library.cell(self.gate(gate_name).cell_name)

    def net_driver(self, net_name: str) -> PinRef | None:
        """The pin driving a net, or None for an undriven net."""
        if net_name not in self.nets:
            raise NetlistError(f"unknown net {net_name}")
        return self._driver.get(net_name)

    def net_loads(self, net_name: str) -> list[PinRef]:
        """Pins loading a net, in deterministic (sorted) order."""
        if net_name not in self.nets:
            raise NetlistError(f"unknown net {net_name}")
        return sorted(self._loads[net_name], key=lambda r: (r.gate or "", r.pin))

    def pin_net(self, ref: PinRef) -> str | None:
        """The net a pin reference is connected to, or None."""
        if ref.is_port:
            return ref.pin if ref.pin in self.ports else None
        return self.gate(ref.gate).connections.get(ref.pin)

    def fanout_gates(self, gate_name: str) -> list[str]:
        """Names of gates driven by any output of this gate (deduped)."""
        result: list[str] = []
        seen: set[str] = set()
        gate = self.gate(gate_name)
        cell = self.cell_of(gate_name)
        for pin in cell.output_pins:
            net_name = gate.connections.get(pin.name)
            if net_name is None:
                continue
            for load in self.net_loads(net_name):
                if not load.is_port and load.gate not in seen:
                    seen.add(load.gate)
                    result.append(load.gate)
        return result

    def fanin_gates(self, gate_name: str) -> list[str]:
        """Names of gates driving any input of this gate (deduped)."""
        result: list[str] = []
        seen: set[str] = set()
        gate = self.gate(gate_name)
        cell = self.cell_of(gate_name)
        for pin in cell.input_pins:
            net_name = gate.connections.get(pin.name)
            if net_name is None:
                continue
            driver = self.net_driver(net_name)
            if driver is not None and not driver.is_port and driver.gate not in seen:
                seen.add(driver.gate)
                result.append(driver.gate)
        return result

    def sequential_gates(self) -> list[str]:
        """Names of all sequential instances, in insertion order."""
        return [
            name for name, gate in self.gates.items()
            if self.library.cell(gate.cell_name).is_sequential
        ]

    def combinational_gates(self) -> list[str]:
        """Names of all combinational instances, in insertion order."""
        return [
            name for name, gate in self.gates.items()
            if not self.library.cell(gate.cell_name).is_sequential
        ]

    def net_load_capacitance(self, net_name: str) -> float:
        """Total input-pin capacitance hanging on a net (fF).

        Wire capacitance is added separately by the delay calculator
        from placement geometry.
        """
        total = 0.0
        for load in self.net_loads(net_name):
            if load.is_port:
                continue
            cell = self.cell_of(load.gate)
            total += cell.pin(load.pin).capacitance
        return total

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_area(self) -> float:
        """Sum of instance areas (um^2)."""
        return sum(self.cell_of(g).area for g in self.gates)

    def total_leakage(self) -> float:
        """Sum of instance leakage power (nW)."""
        return sum(self.cell_of(g).leakage for g in self.gates)

    def buffer_count(self) -> int:
        """Number of buffer instances."""
        return sum(1 for g in self.gates if self.cell_of(g).is_buffer)

    def stats(self) -> dict[str, int]:
        """Basic size statistics for reports."""
        return {
            "gates": len(self.gates),
            "nets": len(self.nets),
            "ports": len(self.ports),
            "flops": len(self.sequential_gates()),
            "buffers": self.buffer_count(),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"Netlist({self.name!r}, gates={stats['gates']}, "
            f"nets={stats['nets']}, flops={stats['flops']})"
        )
