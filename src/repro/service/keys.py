"""Content addressing for expensive timing artifacts.

Every cacheable artifact is keyed by a digest of *what it was computed
from*, never by a design's name or a wall-clock stamp:

* **STA state** — (netlist, liberty, SDC, placement, STA config/corner);
* **PBA golden endpoint slacks** — the design key plus the PBA knobs
  (k', slew recalculation, variation model);
* **fitted x\\* vectors** — the A-matrix fingerprint plus the solver
  configuration (solver name, seed, epsilon, penalty).

Content addressing is what makes invalidation trivial: a
:class:`~repro.netlist.edit.ChangeRecord` changes the netlist, the
netlist changes the design key, and every dependent artifact simply
misses — stale entries can never be *served*, only evicted.  See
``docs/service.md`` for the full key schema.

Netlists, libraries and placements are hashed through their canonical
text serializers (``write_verilog``, ``write_liberty``,
``write_placement``), so the key covers exactly what a round-tripped
design would contain.  Constraints and AOCV tables are hashed from
their exact values instead (``repr`` of every field, the bytes of every
table array): their writers print six significant digits, and two sets
that differ past the sixth must not share a key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.netlist.core import Netlist
    from repro.netlist.placement import Placement
    from repro.sdc.constraints import Constraints
    from repro.timing.sta import STAConfig

#: Length of every emitted hex digest — short enough for filenames,
#: long enough (80 bits) that accidental collisions are not a concern
#: at any realistic cache size.
DIGEST_CHARS = 20


def digest(parts: "Iterable[Any]") -> str:
    """SHA-256 over the string forms of ``parts``, truncated."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            hasher.update(part)
        else:
            hasher.update(str(part).encode())
        hasher.update(b"\x1f")  # field separator: ("ab","c") != ("a","bc")
    return hasher.hexdigest()[:DIGEST_CHARS]


# ----------------------------------------------------------------------
# Component hashes
# ----------------------------------------------------------------------
def netlist_hash(netlist: "Netlist") -> str:
    """Digest of a netlist's full structural content.

    Covers gates, cell bindings, and connectivity via the canonical
    Verilog serialization — any edit that could move timing moves the
    hash.
    """
    from repro.netlist.verilog import write_verilog

    return digest([netlist.name, write_verilog(netlist)])


def liberty_hash(library) -> str:
    """Digest of a characterized library (all cells, all tables)."""
    from repro.liberty.writer import write_liberty

    return digest([write_liberty(library)])


def sdc_hash(constraints: "Constraints") -> str:
    """Digest of the timing constraints (clocks, IO delays, exceptions,
    the flat late derate), exact: ``repr`` of every field."""
    return digest([
        *map(repr, constraints.clocks.values()),
        *map(repr, constraints.io_delays),
        *map(repr, constraints.exceptions),
        f"flat_derate_late={constraints.flat_derate_late!r}",
    ])


def placement_hash(placement: "Placement | None") -> str:
    """Digest of the placement (AOCV distances depend on it)."""
    if placement is None:
        return "none"
    from repro.netlist.plfile import write_placement

    return digest([write_placement(placement)])


def sta_config_hash(config: "STAConfig") -> str:
    """Digest of the STA configuration, AOCV tables included.

    The corner lives here too: ``delay_scale`` (and any derate knob)
    is exactly what distinguishes SS/TT/FF engines derived from one
    library, so two corners of the same design never share a key.
    """
    parts: "list[Any]" = []
    for name in (
        "clock_derate_late", "clock_derate_early", "data_early_derate",
        "input_slew", "clock_slew", "wire_r_per_nm", "wire_c_per_nm",
        "gba_distance", "delay_scale",
    ):
        parts.append(f"{name}={getattr(config, name)!r}")
    for table in (config.derating_table, config.early_derating_table):
        if table is None:
            parts.append("none")
        else:
            # The shape fixes each array's byte length.
            parts += [table.values.shape, table.depths.tobytes(),
                      table.distances.tobytes(), table.values.tobytes()]
    return digest(parts)


# ----------------------------------------------------------------------
# Composite keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DesignKey:
    """Content address of one analyzable design at one corner."""

    netlist: str
    liberty: str
    sdc: str
    placement: str
    config: str

    @property
    def token(self) -> str:
        """The single digest the cache files this design under."""
        return digest([
            self.netlist, self.liberty, self.sdc,
            self.placement, self.config,
        ])


def design_key(
    netlist: "Netlist",
    constraints: "Constraints",
    placement: "Placement | None" = None,
    config: "STAConfig | None" = None,
    edited: "DesignKey | None" = None,
) -> DesignKey:
    """Compute the content address of a design bundle.

    ``edited`` is the bundle's key from before a
    :class:`~repro.netlist.edit.ChangeRecord`.  A change edits only the
    netlist and the placement, so the key's ``liberty``, ``sdc`` and
    ``config`` digests carry over and only those two are re-hashed (the
    library digest re-serializes every cell and table).
    """
    if edited is not None:
        return replace(
            edited, netlist=netlist_hash(netlist),
            placement=placement_hash(placement),
        )
    from repro.timing.sta import STAConfig

    return DesignKey(
        netlist=netlist_hash(netlist),
        liberty=liberty_hash(netlist.library),
        sdc=sdc_hash(constraints),
        placement=placement_hash(placement),
        config=sta_config_hash(config or STAConfig()),
    )


def pba_slacks_key(design: DesignKey, k: int, recalc_slew: bool,
                   variation: str) -> str:
    """Key of a golden-endpoint-slack artifact (design + PBA knobs)."""
    return digest([design.token, k, recalc_slew, variation])


def explain_key(design: DesignKey, endpoint: "Any", top_k: int) -> str:
    """Key of a slack-provenance artifact (design + explain scope)."""
    return digest([design.token, endpoint, top_k])


def scenario_key(design: DesignKey,
                 corners: "Iterable[tuple[str, float]]") -> str:
    """Key of a multi-scenario sweep artifact (design + corner matrix).

    ``corners`` is the (name, delay scale) sequence in declaration
    order — order matters: it fixes merge tie-breaks, so a reordered
    matrix is a different artifact.  ``repr`` of the scale keeps full
    float precision in the key material.
    """
    parts: "list[Any]" = [design.token]
    for name, scale in corners:
        parts.append(f"{name}={scale!r}")
    return digest(parts)


def layout_key(content: "tuple[Any, ...]", schema: int) -> str:
    """Key of a persisted levelized-layout artifact.

    ``content`` is the kernel's in-process layout cache key — netlist
    hash, boundary conditions, and GBA depth map — available only for
    *pristine* graphs (``structure_version == pristine_version``), which
    is exactly what makes slot assignment a pure function of content.
    The payload ``schema`` version is key material too: a layout format
    change simply misses instead of needing a cache wipe.
    """
    return digest(["layout", schema, repr(content)])


def problem_fingerprint(problem) -> str:
    """Digest of one mGBA problem instance (the A matrix and friends).

    Covers the sparse structure and values of A, the right-hand side,
    both slack vectors, the gate column order, and the epsilon/penalty
    shaping — everything a solver's ``x*`` depends on.
    """
    matrix = problem.matrix.tocsr()
    return digest([
        matrix.shape,
        matrix.data.tobytes(),
        matrix.indices.tobytes(),
        matrix.indptr.tobytes(),
        problem.rhs.tobytes(),
        problem.s_gba.tobytes(),
        problem.s_pba.tobytes(),
        "|".join(problem.gates),
        problem.epsilon,
        problem.penalty,
    ])


def solve_key(fingerprint: str, solver: str, seed: "int | None") -> str:
    """Key of a cached ``x*`` vector: A fingerprint + solver config."""
    return digest([fingerprint, solver, seed])


def fit_key(design: DesignKey, fit_fingerprint: "tuple[Any, ...]") -> str:
    """Key of a whole-flow fit artifact (design + every fit knob)."""
    return digest([design.token, *fit_fingerprint])


def what_if_key(design: DesignKey, candidate: "Any") -> str:
    """Key of one scored what-if candidate (design + canonical edits).

    ``candidate`` is the canonical frozen form from
    :func:`repro.opt.whatif.normalize_candidate` — a tuple of sorted
    (field, value) spec tuples, so spelling differences (dict order,
    ECO text vs. spec list) collapse onto one key.  Keys are
    per-candidate, not per-request: a K-candidate batch hits for every
    candidate any earlier request already scored.
    """
    return digest([design.token, "what_if", repr(candidate)])


def min_period_key(design: DesignKey, clock: "str | None",
                   tolerance: float, max_iter: int, corner: str) -> str:
    """Key of a min-period search artifact (design + search contract).

    The bracket/bisection sequence is a pure function of these inputs,
    so the tolerance and iteration cap are key material — a tighter
    tolerance is a different (more precise) artifact.
    """
    return digest([
        design.token, "min_period", clock, repr(float(tolerance)),
        max_iter, corner,
    ])
