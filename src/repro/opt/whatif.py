"""ECO what-if evaluation and min-period search (the closure loop's oracle).

A design optimizer iterates *candidate* edits — resize, VT swap, buffer
insert/remove — against a timing oracle and keeps the winners.  This
module turns that inner loop into a batched API:

* :func:`apply_edit` applies one edit spec under incremental timing and
  returns its exact undo and ECO command — the one edit path, which
  :class:`~repro.opt.closure.TimingClosureOptimizer` runs its moves
  through too.  Its netlist half, :func:`edit_netlist`, is also what
  :func:`repro.opt.eco.apply_eco` replays ECO scripts through.
* :func:`evaluate_what_if` scores K candidate edit-lists against one
  design.  Each candidate is applied to one engine, measured, and
  reverted, in sequence.  The apply→measure→revert loop is
  *layout-stable*: bounded structural edits (buffer in/out) are spliced
  into the engine's levelized layout by
  :func:`repro.timing.kernel.patch_layout` instead of re-flattening the
  whole graph per candidate.  The revert is **bit-identical**: a
  candidate's result never depends on which candidates ran before it
  on the same engine, which is what lets the service cache single
  candidates content-addressed (``repro.service.keys.what_if_key``).
* :func:`min_period_on_engine` binary-searches the smallest feasible
  clock period (pyPPA's period optimizer, made deterministic): the
  clock period only enters endpoint *required* times, so feasibility at
  a trial period is one pure slack recomputation — no re-propagation —
  and WNS is monotone in the period, so bisection converges to a
  bracket/tolerance-deterministic answer.

Candidates are lists of edit *specs* (JSON-friendly dicts) or ECO text
in the :mod:`repro.opt.eco` grammar, which :func:`parse_eco_lines` is
the one reader of::

    {"kind": "resize",        "gate": "u12", "up": true}
    {"kind": "size_cell",     "gate": "u12", "cell": "NAND2_X4"}
    {"kind": "vt_swap",       "gate": "u12", "vt": "lvt"}
    {"kind": "insert_buffer", "net": "n7", "buffer_cell": "BUF_X2",
     "loads": ["u3/A"], "buffer": "wbuf0", "new_net": "wnet0"}
    {"kind": "remove_buffer", "gate": "wbuf3"}

Generated buffer/net names default to *candidate-local deterministic*
names (``wbuf<i>`` probed against the netlist) — a candidate scored
after others and the same candidate scored alone produce identical ECO
text and identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import ParseError, ReproError
from repro.netlist.core import Netlist, PinRef
from repro.netlist.edit import (
    ChangeRecord,
    fresh_name,
    insert_buffer,
    remove_buffer,
    resize_gate,
    swap_vt,
)
from repro.netlist.placement import Placement
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span
from repro.timing import slack as slack_mod
from repro.timing.sta import STAEngine

#: Recognized edit-spec kinds and their required fields.
SPEC_KINDS = {
    "resize": ("gate", "up"),
    "size_cell": ("gate", "cell"),
    "vt_swap": ("gate", "vt"),
    "insert_buffer": ("net", "buffer_cell"),
    "remove_buffer": ("gate",),
}

#: Optional fields per kind (beyond the required set).
_OPTIONAL_FIELDS = {
    "insert_buffer": ("loads", "buffer", "new_net"),
}


class WhatIfError(ReproError):
    """A malformed or inapplicable what-if candidate."""


# ----------------------------------------------------------------------
# Candidate normalization (dicts / frozen tuples / ECO text -> canonical)
# ----------------------------------------------------------------------
def _is_pair(value: Any) -> bool:
    return (
        isinstance(value, (tuple, list)) and len(value) == 2
        and isinstance(value[0], str)
    )


def _spec_dict(spec: Any) -> "dict[str, Any]":
    """One spec (dict or frozen (key, value) pairs) -> a plain dict."""
    if isinstance(spec, dict):
        return dict(spec)
    if isinstance(spec, (tuple, list)) and all(_is_pair(p) for p in spec) \
            and len(spec) > 0:
        return {str(k): v for k, v in spec}
    raise WhatIfError(
        f"edit spec must be a dict of fields, got {type(spec).__name__}: "
        f"{spec!r}"
    )


def _canonical_spec(raw: Any) -> "tuple[tuple[str, Any], ...]":
    """Validate one edit spec and freeze it into sorted (key, value) pairs."""
    data = _spec_dict(raw)
    kind = data.pop("kind", None)
    if kind not in SPEC_KINDS:
        raise WhatIfError(
            f"unknown edit kind {kind!r}; choose from "
            f"{tuple(SPEC_KINDS)}"
        )
    required = SPEC_KINDS[kind]
    allowed = set(required) | set(_OPTIONAL_FIELDS.get(kind, ()))
    missing = [name for name in required if name not in data]
    if missing:
        raise WhatIfError(f"{kind} spec is missing {missing}")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise WhatIfError(f"{kind} spec has unknown fields {unknown}")
    canonical: "dict[str, Any]" = {"kind": kind}
    for name, value in data.items():
        if name == "up":
            canonical[name] = bool(value)
        elif name == "loads":
            canonical[name] = tuple(str(v) for v in value)
        else:
            canonical[name] = str(value)
    return tuple(sorted(canonical.items()))


def parse_eco_lines(text: str, filename: str = "<eco>") \
        -> "list[tuple[int, dict[str, Any]]]":
    """ECO script text -> ``(line, edit spec)`` per command line.

    The one reader of the :mod:`repro.opt.eco` grammar: ``#`` comments
    and blank lines are skipped, and an unknown command or a wrong
    argument count raises :class:`~repro.errors.ParseError` carrying
    its 1-based line.
    """
    commands: "list[tuple[int, dict[str, Any]]]" = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        command, args = words[0], words[1:]
        if command == "size_cell" and len(args) == 2:
            spec = {"kind": "size_cell", "gate": args[0], "cell": args[1]}
        elif command == "insert_buffer" and len(args) >= 5:
            net, buffer_cell, buffer, new_net, *loads = args
            spec = {
                "kind": "insert_buffer", "net": net,
                "buffer_cell": buffer_cell, "buffer": buffer,
                "new_net": new_net, "loads": loads,
            }
        elif command == "remove_buffer" and len(args) == 1:
            spec = {"kind": "remove_buffer", "gate": args[0]}
        else:
            raise ParseError(
                f"cannot parse {' '.join(words)!r}; expected size_cell "
                "<gate> <cell>, insert_buffer <net> <buffer_cell> "
                "<buffer> <new_net> <load>..., or remove_buffer <gate>",
                filename, lineno,
            )
        commands.append((lineno, spec))
    return commands


def parse_eco_candidate(text: str, filename: str = "<eco>") \
        -> "list[dict[str, Any]]":
    """ECO script text -> edit specs (see :func:`parse_eco_lines`)."""
    return [spec for _line, spec in parse_eco_lines(text, filename)]


def normalize_candidate(candidate: Any) \
        -> "tuple[tuple[tuple[str, Any], ...], ...]":
    """One candidate (spec list, single spec, or ECO text) -> canonical form.

    The canonical form — a tuple of frozen specs — is hashable and
    order-preserving; it is both the cache-key material
    (:func:`repro.service.keys.what_if_key`) and what the evaluation
    consumes, so "same candidate" and "same key" coincide.
    """
    if isinstance(candidate, str):
        candidate = parse_eco_candidate(candidate)
    elif isinstance(candidate, dict) or (
        isinstance(candidate, (tuple, list)) and len(candidate) > 0
        and all(_is_pair(p) for p in candidate)
    ):
        candidate = [candidate]  # a bare single spec
    if not isinstance(candidate, (list, tuple)):
        raise WhatIfError(
            f"candidate must be an edit-spec list or ECO text, got "
            f"{type(candidate).__name__}"
        )
    if not candidate:
        raise WhatIfError("candidate has no edits")
    return tuple(_canonical_spec(spec) for spec in candidate)


# ----------------------------------------------------------------------
# Apply / undo: the one edit path (closure moves, what-if candidates,
# ECO replay)
# ----------------------------------------------------------------------
def edit_netlist(netlist: Netlist, placement: "Placement | None",
                 spec: "dict[str, Any]", ordinal: int) \
        -> "tuple[ChangeRecord, Callable[[], ChangeRecord], str]":
    """Apply one edit spec to a netlist and its placement, untimed.

    The netlist half of :func:`apply_edit`, and the one
    :func:`repro.opt.eco.apply_eco` replays through.  Returns (change,
    revert, ECO command): ``revert()`` restores the netlist and the
    placement exactly and returns the change record that mirrors the
    restoration.  Every check runs before the first edit, so an
    inapplicable spec (size family end, missing VT flavour, same cell,
    a non-buffer to remove) raises with nothing changed.  ``ordinal``
    names an ``insert_buffer`` that brings no names of its own:
    ``wbuf<ordinal>`` / ``wnet<ordinal>``, probed against the netlist.
    """
    kind = spec.get("kind")
    if kind not in SPEC_KINDS:
        raise WhatIfError(f"unknown edit kind {kind!r}")

    if kind == "insert_buffer":
        loads = None
        if "loads" in spec:
            loads = []
            for ref in spec["loads"]:
                gate, sep, pin = ref.rpartition("/")
                if not sep:
                    raise WhatIfError(f"load {ref!r} must be gate/pin")
                loads.append(PinRef(gate, pin))
        buffer_name = spec.get("buffer", fresh_name(netlist, f"wbuf{ordinal}"))
        new_net = spec.get("new_net", fresh_name(netlist, f"wnet{ordinal}"))
        change = insert_buffer(
            netlist, spec["net"], spec["buffer_cell"], loads=loads,
            placement=placement, buffer_name=buffer_name,
            new_net_name=new_net,
        )

        def unbuffer() -> ChangeRecord:
            inverse = remove_buffer(netlist, buffer_name)
            inverse.nets.extend(change.nets)
            if placement is not None:
                placement.locations.pop(buffer_name, None)
            return inverse

        meta = change.metadata
        return change, unbuffer, (
            f"insert_buffer {meta['net']} {meta['buffer_cell']} "
            f"{meta['buffer']} {meta['new_net']} "
            + " ".join(str(r) for r in meta["loads"])
        )

    if kind == "remove_buffer":
        buffer_name = spec["gate"]
        # Capture everything the revert needs *before* removal.
        cell = netlist.cell_of(buffer_name)
        if not cell.is_buffer:
            raise WhatIfError(f"{buffer_name} is not a buffer instance")
        connections = netlist.gate(buffer_name).connections
        in_net = connections.get(cell.input_pins[0].name)
        out_net = connections.get(cell.output_pins[0].name)
        moved = list(netlist.net_loads(out_net)) if out_net else []
        location = None
        if placement is not None and placement.has(buffer_name):
            location = placement.location(buffer_name)
        change = remove_buffer(netlist, buffer_name)
        if placement is not None:
            placement.locations.pop(buffer_name, None)

        def rebuffer() -> ChangeRecord:
            inverse = insert_buffer(
                netlist, in_net, cell.name, loads=moved, placement=None,
                buffer_name=buffer_name, new_net_name=out_net,
            )
            if location is not None and placement is not None:
                placement.place(buffer_name, location.x, location.y)
            return inverse

        return change, rebuffer, f"remove_buffer {buffer_name}"

    # The cell-swap family: resize, vt_swap, size_cell.
    gate = spec["gate"]
    old_cell = netlist.gate(gate).cell_name
    if kind == "resize":
        swapped = resize_gate(netlist, gate, up=spec["up"])
        if swapped is None:
            raise WhatIfError(
                f"gate {gate} is already at the "
                f"{'largest' if spec['up'] else 'smallest'} size"
            )
    elif kind == "vt_swap":
        swapped = swap_vt(netlist, gate, spec["vt"])
        if swapped is None:
            raise WhatIfError(
                f"gate {gate} has no {spec['vt']} flavour (or is there already)"
            )
    else:
        cell_name = spec["cell"]
        netlist.library.cell(cell_name)  # unknown cells raise here
        if cell_name == old_cell:
            raise WhatIfError(f"gate {gate} is already a {cell_name}")
        netlist.swap_cell(gate, cell_name)
        swapped = ChangeRecord(
            kind="resize", gates=[gate],
            nets=list(netlist.gate(gate).connections.values()),
            description=f"{gate}: {old_cell} -> {cell_name}",
        )

    def swap_back() -> ChangeRecord:
        netlist.swap_cell(gate, old_cell)
        return swapped

    new_cell = netlist.gate(gate).cell_name
    return swapped, swap_back, f"size_cell {gate} {new_cell}"


def apply_edit(engine: STAEngine, spec: "dict[str, Any]", ordinal: int) \
        -> "tuple[ChangeRecord, Callable[[STAEngine], None], str]":
    """Apply one edit spec to a live engine, timing it incrementally.

    The engine half of the one edit path: :func:`edit_netlist` edits
    the engine's netlist and placement, and the change is mirrored into
    the engine.  Returns (change, undo, ECO command): ``undo(engine)``
    restores the netlist and every slack bit for bit, and the command
    replays the edit through :func:`repro.opt.eco.apply_eco`.  An
    inapplicable edit raises :class:`WhatIfError` with nothing changed.
    Whatever the mirror raises, the undo runs before the error
    propagates, so the failed edit leaves neither the netlist nor the
    timing changed.
    """
    change, revert, eco = edit_netlist(
        engine.netlist, engine.placement, spec, ordinal
    )

    def undo(target: STAEngine) -> None:
        target.apply_change(revert())

    try:
        engine.apply_change(change)
    except BaseException:
        undo(engine)
        raise
    return change, undo, eco


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CandidateResult:
    """One candidate's scored outcome (frozen; ``seconds`` is provenance).

    ``touched`` lists the endpoints whose setup slack the candidate
    moved, as (endpoint, slack before, slack after) in deterministic
    endpoint order.  ``eco`` is the exact replayable command list
    (:mod:`repro.opt.eco` grammar) with the deterministic generated
    names, so a winning candidate can be committed verbatim.  A failed
    candidate (``ok=False``) carries the error and a zero delta.
    """

    ok: bool
    edits: int
    applied: int
    eco: "tuple[str, ...]"
    wns_before: float
    tns_before: float
    violations_before: int
    wns_after: float
    tns_after: float
    violations_after: int
    touched: "tuple[tuple[str, float, float], ...]"
    error: "str | None" = None
    seconds: float = field(default=0.0, compare=False)

    @property
    def delta_wns(self) -> float:
        """Positive = the candidate improved the worst slack."""
        return self.wns_after - self.wns_before

    @property
    def delta_tns(self) -> float:
        return self.tns_after - self.tns_before

    def to_dict(self) -> "dict[str, Any]":
        from dataclasses import asdict

        record = asdict(self)
        record["delta_wns"] = self.delta_wns
        record["delta_tns"] = self.delta_tns
        return record


@dataclass(frozen=True)
class WhatIfResult:
    """K candidates scored against one design's baseline timing."""

    design: str
    wns_baseline: float
    tns_baseline: float
    violations_baseline: int
    candidates: "tuple[CandidateResult, ...]"
    seconds: float = field(default=0.0, compare=False)

    def best(self) -> "int | None":
        """Index of the best successful candidate (by ΔWNS, then ΔTNS)."""
        scored = [
            (c.delta_wns, c.delta_tns, -i)
            for i, c in enumerate(self.candidates) if c.ok
        ]
        if not scored:
            return None
        return -max(scored)[2]

    def to_dict(self) -> "dict[str, Any]":
        return {
            "design": self.design,
            "wns_baseline": self.wns_baseline,
            "tns_baseline": self.tns_baseline,
            "violations_baseline": self.violations_baseline,
            "candidates": [c.to_dict() for c in self.candidates],
            "best": self.best(),
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class MinPeriodResult:
    """Outcome of the min-period bisection on one clock.

    ``period`` is the smallest period *verified feasible* (WNS >= 0)
    with the bracket resolved to ``tolerance`` ps: ``bracket_high ==
    period`` is feasible and ``bracket_low`` is infeasible (or the
    search floor), with ``bracket_high - bracket_low <= tolerance``.
    The bracket/bisection sequence is a pure function of (content,
    clock, tolerance, max_iter) — worker counts and evaluation order
    cannot move it.
    """

    design: str
    clock: str
    period: float
    wns_at_period: float
    baseline_period: float
    baseline_wns: float
    bracket_low: float
    bracket_high: float
    tolerance: float
    iterations: int
    evaluations: int
    corner: str = ""
    seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> "dict[str, Any]":
        from dataclasses import asdict

        return asdict(self)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Baseline:
    wns: float
    tns: float
    violations: int
    slacks: "tuple[tuple[str, float], ...]"


def _snapshot(engine: STAEngine) -> _Baseline:
    slacks = engine.setup_slacks()
    summary = engine.summary()
    return _Baseline(
        wns=float(summary.wns), tns=float(summary.tns),
        violations=int(summary.violations),
        slacks=tuple((s.name, float(s.slack)) for s in slacks),
    )


def evaluate_candidate_on_engine(
    engine: STAEngine,
    candidate: "tuple[tuple[tuple[str, Any], ...], ...]",
    base: _Baseline,
) -> CandidateResult:
    """Apply one canonical candidate, measure, and revert — always.

    The apply -> measure -> revert cycle leaves the engine bit-identical
    to ``base`` (the revert restores the exact netlist content, and
    incremental re-propagation is property-tested equal to a full
    update), which is what makes sequential reuse of one engine
    equivalent to a fresh engine per candidate.

    A candidate that cannot apply — an unknown gate, cell or net, the
    end of a size family — raises a :class:`~repro.errors.ReproError`
    and scores ``ok=False``.  Any other exception is a bug; it
    propagates once the applied edits are undone.
    """
    start = time.perf_counter()
    undos: "list[Callable[[STAEngine], None]]" = []
    eco: "list[str]" = []
    error: "str | None" = None
    after = base
    try:
        for ordinal, frozen in enumerate(candidate):
            spec = {key: value for key, value in frozen}
            change, undo, command = apply_edit(engine, spec, ordinal)
            undos.append(undo)
            eco.append(command)
        after = _snapshot(engine)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        for undo in reversed(undos):
            undo(engine)
    base_map = dict(base.slacks)
    touched = tuple(
        (name, base_map[name], slack)
        for name, slack in after.slacks
        if name in base_map and slack != base_map[name]
    )
    return CandidateResult(
        ok=error is None,
        edits=len(candidate),
        applied=len(undos),
        eco=tuple(eco) if error is None else (),
        wns_before=base.wns, tns_before=base.tns,
        violations_before=base.violations,
        wns_after=after.wns, tns_after=after.tns,
        violations_after=after.violations,
        touched=touched if error is None else (),
        error=error,
        seconds=time.perf_counter() - start,
    )


def evaluate_what_if(
    design,
    candidates: "Sequence[Any]",
    *,
    engine: "STAEngine | None" = None,
) -> WhatIfResult:
    """Score candidate edit-lists against one design, in sequence.

    ``design`` is a suite name or a ``Design`` bundle, ignored in
    favour of ``engine`` when a live engine is given.  Duplicate
    candidates evaluate once.  Every unique candidate runs
    apply→measure→revert on the one engine, so a result equals the one
    the candidate gets alone on a fresh engine.
    """
    start = time.perf_counter()
    normalized = [normalize_candidate(c) for c in candidates]
    unique = list(dict.fromkeys(normalized))
    with span(
        "whatif.evaluate", candidates=len(normalized), unique=len(unique),
    ):
        counter("whatif.candidates").inc(len(normalized))
        if engine is None:
            from repro import api

            engine = api.make_engine(design)
        base = _snapshot(engine)
        by_candidate = {
            candidate: evaluate_candidate_on_engine(engine, candidate, base)
            for candidate in unique
        }
    return WhatIfResult(
        design=engine.netlist.name,
        wns_baseline=base.wns,
        tns_baseline=base.tns,
        violations_baseline=base.violations,
        candidates=tuple(by_candidate[c] for c in normalized),
        seconds=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
# Min-period search
# ----------------------------------------------------------------------
def min_period_on_engine(
    engine: STAEngine,
    clock: "str | None" = None,
    tolerance: float = 1.0,
    max_iter: int = 64,
    corner: str = "",
) -> MinPeriodResult:
    """Bisect the smallest feasible period of one clock (deterministic).

    The clock period enters timing only through endpoint *required*
    times (``window = cycles * period``), never through arrivals — so a
    trial period costs one pure slack recomputation over the existing
    propagated state, and WNS is monotone non-decreasing in the period.
    Bracket contract: the upper bound doubles up from the baseline
    period until feasible (the lower starts at the last infeasible
    probe); a feasible baseline instead halves the lower bound down
    until infeasible or below ``tolerance``.  Bisection then shrinks
    the bracket to ``tolerance`` and returns the feasible upper bound.
    """
    if tolerance <= 0:
        raise WhatIfError(f"tolerance must be > 0, got {tolerance}")
    start = time.perf_counter()
    engine.ensure_timing()
    constraints = engine.constraints
    try:
        clk = (
            constraints.primary_clock() if clock is None
            else constraints.clock(clock)
        )
    except ReproError as exc:
        raise WhatIfError(str(exc)) from exc
    evaluations = 0

    def wns_at(period: float) -> float:
        nonlocal evaluations
        evaluations += 1
        saved = clk.period
        clk.period = period
        try:
            slacks = slack_mod.setup_slacks(
                engine.graph, engine.state, engine.constraints
            )
        finally:
            clk.period = saved
        return min((float(s.slack) for s in slacks), default=float("inf"))

    with span("whatif.min_period", clock=clk.name, tolerance=tolerance):
        baseline_period = float(clk.period)
        baseline_wns = wns_at(baseline_period)
        if baseline_wns >= 0.0:
            hi, hi_wns = baseline_period, baseline_wns
            lo = baseline_period
            while lo > tolerance:
                probe = lo / 2.0
                probe_wns = wns_at(probe)
                if probe_wns < 0.0:
                    lo = probe
                    break
                hi, hi_wns = probe, probe_wns
                lo = probe
            else:
                probe_wns = 0.0
            feasible_bracket = hi > lo
        else:
            lo = baseline_period
            hi, hi_wns = baseline_period, baseline_wns
            for _ in range(64):
                hi *= 2.0
                hi_wns = wns_at(hi)
                if hi_wns >= 0.0:
                    break
                lo = hi
            else:
                raise WhatIfError(
                    f"no feasible period for clock {clk.name} up to "
                    f"{hi:.1f} ps (another clock may be violating)"
                )
            feasible_bracket = True
        iterations = 0
        if feasible_bracket:
            while hi - lo > tolerance and iterations < max_iter:
                mid = 0.5 * (lo + hi)
                mid_wns = wns_at(mid)
                if mid_wns >= 0.0:
                    hi, hi_wns = mid, mid_wns
                else:
                    lo = mid
                iterations += 1
        counter("whatif.min_period.evaluations").inc(evaluations)
        histogram("whatif.min_period.iterations").observe(iterations)
    return MinPeriodResult(
        design=engine.netlist.name,
        clock=clk.name,
        period=hi,
        wns_at_period=hi_wns,
        baseline_period=baseline_period,
        baseline_wns=baseline_wns,
        bracket_low=lo,
        bracket_high=hi,
        tolerance=float(tolerance),
        iterations=iterations,
        evaluations=evaluations,
        corner=corner,
        seconds=time.perf_counter() - start,
    )
