"""Persisting fitted mGBA corrections.

A fit is only worth its solve time if the flow can reuse it: weights
are saved as JSON with enough provenance (design name, gate count, a
connectivity fingerprint) to refuse application to a design that has
structurally diverged — silently applying stale weights to a changed
netlist would be worse than plain GBA.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import SolverError
from repro.netlist.core import Netlist

FORMAT_VERSION = 1


def _structure_fingerprint(netlist: Netlist) -> str:
    """Stable hash of the netlist's structure (cells + connectivity).

    Part of the version-1 weight-file format — existing files carry
    this exact digest, so it must stay byte-stable.  For *new* code
    that wants a content address, use
    :func:`repro.service.keys.netlist_hash`, which also covers ports
    and module structure.
    """
    hasher = hashlib.sha256()
    for name in sorted(netlist.gates):
        gate = netlist.gates[name]
        hasher.update(name.encode())
        hasher.update(gate.cell_name.encode())
        for pin, net in sorted(gate.connections.items()):
            hasher.update(f"{pin}={net}".encode())
    return hasher.hexdigest()[:16]


def weights_to_json(weights: dict[str, float], netlist: Netlist) -> str:
    """Serialize a weight map with provenance."""
    payload = {
        "format": FORMAT_VERSION,
        "design": netlist.name,
        "gates": len(netlist.gates),
        "fingerprint": _structure_fingerprint(netlist),
        "weights": dict(sorted(weights.items())),
    }
    return json.dumps(payload, indent=2)


def weights_from_json(
    text: str,
    netlist: Netlist,
    strict: bool = True,
) -> dict[str, float]:
    """Load a weight map, verifying it belongs to this netlist.

    ``strict`` verifies the structural fingerprint; non-strict only
    checks the design name and drops weights for gates that no longer
    exist (the resize-only case, where cell swaps change the
    fingerprint but weights remain meaningful).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SolverError(f"weight file is not valid JSON: {exc}") from exc
    if payload.get("format") != FORMAT_VERSION:
        raise SolverError(
            f"unsupported weight-file format {payload.get('format')!r}"
        )
    if payload.get("design") != netlist.name:
        raise SolverError(
            f"weights were fitted for design {payload.get('design')!r}, "
            f"not {netlist.name!r}"
        )
    if strict:
        fingerprint = _structure_fingerprint(netlist)
        if payload.get("fingerprint") != fingerprint:
            raise SolverError(
                "netlist has structurally changed since the fit; "
                "re-run the mGBA flow or load with strict=False"
            )
    raw = payload.get("weights", {})
    weights = {
        gate: float(value) for gate, value in raw.items()
        if gate in netlist.gates
    }
    dropped = len(raw) - len(weights)
    if strict and dropped:
        raise SolverError(
            f"{dropped} weighted gate(s) no longer exist in the netlist"
        )
    return weights


def save_weights(weights: dict[str, float], netlist: Netlist, path) -> None:
    """Write a weight file to disk."""
    Path(path).write_text(weights_to_json(weights, netlist))


def load_weights(path, netlist: Netlist,
                 strict: bool = True) -> dict[str, float]:
    """Read and verify a weight file from disk."""
    return weights_from_json(Path(path).read_text(), netlist, strict)
