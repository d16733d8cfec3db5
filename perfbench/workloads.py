"""The benchmark's three seeded workloads: signoff, closure and serve.

Every input is generated from the run's ``--seed``: design seeds and the
serve request sequence are drawn from a ``random.Random`` keyed by the
workload and the seed, and the program under test receives only the
generated designs, files and requests.  Each workload times its unit
operations in ``run_pass`` and verifies them, untimed, in ``check``.

Why these workloads (see also ``BENCHMARK.json``):

* ``signoff`` is the cold path a signoff user pays per new design:
  parse, graph, layout, batch delay calculation, full propagation, path
  selection, PBA and the mGBA solve.  Incremental timing, ``opt`` and
  ``service`` do almost nothing here.
* ``closure`` is the paper's Table 5 flow: edits do nearly all the work
  (``rebuild_net``, ``patch_layout``, ``propagate_incremental``, scalar
  ``compute_edge``, transform apply/revert); parsing and cold builds
  happen once per design.
* ``serve`` is one closed-loop caller of a cached ``TimingService``:
  skewed design popularity, seven query verbs, a write every tenth
  request (each toggles its design's edit, so every other write is a
  revert and old keys hit again) and a restart halfway so the second
  half hydrates from the disk tier.

Signoff and closure collect garbage before each (seconds-long) op and
clear the kernel's in-process layout cache, so every op pays the same
cold build; serve keeps both, as a long-lived server would.
"""

from __future__ import annotations

import copy
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from harness import Pass, heavy_op, op_latencies_ms, percentile, timed_op

from repro import api
from repro.aocv import table as aocv_table
from repro.context import RunContext
from repro.designs.generator import Design, DesignSpec, generate_design, scaled_spec
from repro.designs.suite import DESIGN_SPECS
from repro.liberty import parser as liberty_parser
from repro.liberty.writer import write_liberty
from repro.mgba.flow import MGBAFlow
from repro.netlist import plfile
from repro.netlist import verilog
from repro.netlist.edit import insert_buffer, remove_buffer, resize_gate
from repro.opt.eco import apply_eco, write_eco
from repro.sdc import parser as sdc_parser
from repro.sdc.writer import write_sdc
from repro.service import keys
from repro.service.engine import TimingService
from repro.timing import kernel
from repro.timing.sta import STAConfig, STAEngine

#: One closed-loop caller on a single serial worker, so timings never
#: depend on pool start-up or on how many cores the host has free.
CONTEXT = RunContext(workers=1, backend="serial", cache=False)


def derive_seeds(label: str, seed: int, count: int) -> "list[int]":
    """``count`` design seeds drawn from the run seed (same seed, same list)."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(1, 2**31 - 1) for _ in range(count)]


def _spec(shape: str, name: str, seed: int, scale: float, **overrides) \
        -> DesignSpec:
    spec = replace(DESIGN_SPECS[shape], name=name, seed=seed, **overrides)
    return scaled_spec(spec, scale) if scale != 1.0 else spec


def _timed_setup(spec: DesignSpec) -> "tuple[Design, float]":
    start = time.perf_counter()
    design = generate_design(spec)
    return design, time.perf_counter() - start


def _ok_ops(passes: "list[Pass]"):
    """(pass index, op index, op) of every successful op, in run order."""
    for p_index, one in enumerate(passes):
        for o_index, op in enumerate(one.ops):
            if op.ok:
                yield p_index, o_index, op


# ----------------------------------------------------------------------
# signoff
# ----------------------------------------------------------------------
#: The large suite shapes: D4 (wide, shallow), D8 (the paper's
#: worst-correlation shape), D9 (largest flop count) and D10 (deepest
#: cones) span the cold path's size and depth range.  Four seeded
#: designs of each, at a fifth of the suite's flop count, make a pass of
#: sixteen half-second sign-offs, so a run times some eighty ops: their
#: median moves little with one seed's design draw or with a few seconds
#: of host slow-down (a median of four multi-second full-size sign-offs
#: spread by 40% between runs).
SIGNOFF_SHAPES = ("D4", "D8", "D9", "D10") * 4
#: Flop-count scale of the signoff designs (depth ranges are kept).
SIGNOFF_SCALE = 0.2


@dataclass
class SignoffFiles:
    name: str
    lib: Path
    verilog: Path
    sdc: Path
    pl: Path
    aocv: Path
    #: Content address of the generated netlist, for the check.
    netlist_hash: str = ""


@dataclass
class SignoffOutput:
    """One signed-off design; the parsed inputs ride along for the check."""

    gba: api.STAResult
    fit: api.FitResult
    corrected: api.STAResult
    parsed: Any = field(default=None, compare=False, repr=False)


class Signoff:
    name = "signoff"

    def __init__(self, seed: int, workdir: Path,
                 shapes: "tuple[str, ...]" = SIGNOFF_SHAPES,
                 scale: float = SIGNOFF_SCALE):
        self.seed = seed
        self.workdir = workdir
        self.shapes = shapes
        self.scale = scale
        self.files: "list[SignoffFiles]" = []
        self._passes = 0

    def setup(self) -> "list[float]":
        """Generate each design and write its five text inputs."""
        seconds = []
        seeds = derive_seeds(self.name, self.seed, len(self.shapes))
        for index, (shape, design_seed) in enumerate(zip(self.shapes, seeds)):
            name = f"signoff{index}_{shape.lower()}"
            start = time.perf_counter()
            design = generate_design(
                _spec(shape, name, design_seed, self.scale)
            )
            base = self.workdir / name
            files = SignoffFiles(
                name=name,
                lib=base.with_suffix(".lib"),
                verilog=base.with_suffix(".v"),
                sdc=base.with_suffix(".sdc"),
                pl=base.with_suffix(".pl"),
                aocv=base.with_suffix(".aocv"),
            )
            files.lib.write_text(write_liberty(design.netlist.library))
            files.verilog.write_text(verilog.write_verilog(design.netlist))
            files.sdc.write_text(write_sdc(design.constraints))
            files.pl.write_text(plfile.write_placement(design.placement))
            files.aocv.write_text(aocv_table.write_aocv(design.derating_table))
            seconds.append(time.perf_counter() - start)
            files.netlist_hash = keys.netlist_hash(design.netlist)
            self.files.append(files)
        return seconds

    def sign_off(self, files: SignoffFiles) -> SignoffOutput:
        """Parse, cold GBA update, setup report, mGBA fit, corrected report."""
        library = liberty_parser.parse_liberty(
            files.lib.read_text(), str(files.lib)
        )
        netlist = verilog.parse_verilog(
            files.verilog.read_text(), library, str(files.verilog)
        )
        constraints = sdc_parser.parse_sdc(
            files.sdc.read_text(), str(files.sdc)
        )
        placement = plfile.parse_placement(files.pl.read_text(), str(files.pl))
        config = STAConfig(
            derating_table=aocv_table.parse_aocv(
                files.aocv.read_text(), str(files.aocv)
            )
        )
        engine = STAEngine(netlist, constraints, placement, config)
        engine.update_timing()
        gba = api.sta_result_from_engine(engine)
        flow = MGBAFlow(context=CONTEXT).run(engine)
        fit = api.fit_result_from_flow(netlist.name, flow)
        corrected = api.sta_result_from_engine(engine)
        return SignoffOutput(
            gba, fit, corrected,
            parsed=(netlist, constraints, placement, config),
        )

    def warm_up(self) -> None:
        kernel.clear_layout_cache()
        self.sign_off(self.files[0])

    def run_pass(self) -> Pass:
        one = Pass()
        for files in self.files:
            # Cold path: no layout survives from an earlier design or pass.
            kernel.clear_layout_cache()
            one.ops.append(heavy_op(files.name, self.sign_off, files))
        if self._passes:
            # Only the first pass's parsed inputs are checked; holding
            # every pass's would make peak RSS grow with the pass count.
            for op in one.ops:
                if op.ok:
                    op.output.parsed = None
        self._passes += 1
        return one

    def check(self, passes: "list[Pass]") -> "list[str]":
        """Parsed netlists hash like the generated ones; the vector
        kernel's slacks equal the scalar oracle's bit for bit; repeated
        passes reproduce the first."""
        wrong: "list[str]" = []
        first: "dict[str, SignoffOutput]" = {}
        by_name = {files.name: files for files in self.files}
        for p_index, _, op in _ok_ops(passes):
            if op.label in first:
                if op.output != first[op.label]:
                    wrong.append(f"{op.label} pass {p_index}: output differs")
                continue
            first[op.label] = op.output
            netlist, constraints, placement, config = op.output.parsed
            if keys.netlist_hash(netlist) != by_name[op.label].netlist_hash:
                wrong.append(f"{op.label}: parsed netlist hash differs")
                continue
            oracle = STAEngine(
                netlist, constraints, placement,
                replace(config, kernel="scalar"),
            )
            oracle_slacks = tuple(
                (s.name, float(s.slack)) for s in oracle.setup_slacks()
            )
            if oracle_slacks != op.output.gba.slacks:
                wrong.append(f"{op.label}: vector slacks != scalar oracle")
        return wrong

    def pass_ratio(self, passes: "list[Pass]") -> float:
        """Mean mGBA pass ratio over the signed-off designs."""
        return _mean([
            op.output.fit.pass_ratio_mgba for _, _, op in _ok_ops(passes[:1])
        ])

    def report(self, passes: "list[Pass]") -> "list[tuple[str, float, str]]":
        ok = [op.seconds for one in passes for op in one.ops if op.ok]
        return [
            ("signoff_design_s_p50", _median(ok), "s"),
            ("signoff_s", _median([one.seconds for one in passes]), "s"),
            ("signoff_pass_ratio", self.pass_ratio(passes), "ratio"),
        ]


# ----------------------------------------------------------------------
# closure
# ----------------------------------------------------------------------
#: D5 is the suite's mid-size, deep-cone shape (paths of 5-20 levels).
CLOSURE_SHAPE = "D5"
#: Ten designs a pass: one closure's runtime moves with its design's
#: cone structure (hopeless endpoints cost a full move scan each), and
#: a batch of ten keeps the seed-to-seed spread down.
CLOSURE_DESIGNS = 10
#: Fixing-move budget per design (``max_transforms``), small enough that
#: ten closures fit one measured window.
CLOSURE_BUDGET = 8
#: The D5 shape with its clock calibrated so 70% of endpoints violate:
#: at the suite's own 15% the mGBA-corrected view closes within any
#: budget, so TNS after closure reads 0 and the flow barely edits.
CLOSURE_VIOLATION_QUANTILE = 0.3


class Closure:
    name = "closure"

    def __init__(self, seed: int, workdir: Path,
                 designs: int = CLOSURE_DESIGNS,
                 budget: int = CLOSURE_BUDGET,
                 scale: float = 1.0):
        self.seed = seed
        self.workdir = workdir
        self.designs = designs
        self.budget = budget
        self.scale = scale
        self.pristine: "list[Design]" = []
        self._fits: "dict[str, float]" = {}

    def setup(self) -> "list[float]":
        seconds = []
        for index, design_seed in enumerate(
            derive_seeds(self.name, self.seed, self.designs)
        ):
            design, elapsed = _timed_setup(_spec(
                CLOSURE_SHAPE, f"closure{index}", design_seed, self.scale,
                violation_quantile=CLOSURE_VIOLATION_QUANTILE,
            ))
            self.pristine.append(design)
            seconds.append(elapsed)
        return seconds

    def close(self, design: Design) -> api.ClosureResult:
        return api.close_timing(
            design, use_mgba=True, max_transforms=self.budget,
            context=CONTEXT,
        )

    def warm_up(self) -> None:
        kernel.clear_layout_cache()
        self.close(copy.deepcopy(self.pristine[0]))

    def run_pass(self) -> Pass:
        one = Pass()
        for pristine in self.pristine:
            design = copy.deepcopy(pristine)
            kernel.clear_layout_cache()
            one.ops.append(heavy_op(design.name, self.close, design))
        return one

    def replay(self, name: str, result: api.ClosureResult) -> "str | None":
        """Replay the ECO on a fresh copy and re-time it from scratch.

        ``close_timing`` fits mGBA weights on the pristine design before
        any move, so the same fit on a fresh copy reproduces them; the
        replayed netlist, re-timed under those weights, must report the
        closure's own WNS and TNS.
        """
        design = copy.deepcopy(
            next(d for d in self.pristine if d.name == name)
        )
        engine = STAEngine(
            design.netlist, design.constraints, design.placement,
            design.sta_config,
        )
        fit = MGBAFlow(CONTEXT.mgba_config()).run(engine)
        self._fits[name] = fit.pass_ratio_mgba
        apply_eco(
            design.netlist, write_eco(list(result.eco_commands)),
            design.placement,
        )
        retimed = STAEngine(
            design.netlist, design.constraints, design.placement,
            design.sta_config,
        )
        retimed.set_gate_weights(fit.weights)
        summary = retimed.summary()
        if (summary.wns, summary.tns) != (result.wns_after, result.tns_after):
            return (
                f"{name}: replayed WNS/TNS {summary.wns}/{summary.tns} != "
                f"reported {result.wns_after}/{result.tns_after}"
            )
        return None

    def check(self, passes: "list[Pass]") -> "list[str]":
        wrong: "list[str]" = []
        first: "dict[str, api.ClosureResult]" = {}
        for p_index, _, op in _ok_ops(passes):
            if op.label in first:
                if op.output != first[op.label]:
                    wrong.append(f"{op.label} pass {p_index}: result differs")
                continue
            first[op.label] = op.output
            problem = self.replay(op.label, op.output)
            if problem is not None:
                wrong.append(problem)
        return wrong

    def pass_ratio(self, passes: "list[Pass]") -> float:
        """Mean pass ratio of the fits ``close_timing`` made (via ``check``)."""
        return _mean(list(self._fits.values()))

    def report(self, passes: "list[Pass]") -> "list[tuple[str, float, str]]":
        results = {op.label: op.output for _, _, op in _ok_ops(passes)}
        ok = [op.seconds for one in passes for op in one.ops if op.ok]
        return [
            ("closure_s", _median(ok), "s"),
            ("closure_area", sum(r.area_after for r in results.values()),
             "area"),
            ("closure_leakage",
             sum(r.leakage_after for r in results.values()), "leakage"),
            ("closure_buffers",
             float(sum(r.buffers_after for r in results.values())), "count"),
            ("closure_tns_ps", sum(r.tns_after for r in results.values()),
             "ps"),
        ]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
#: Four registered D1-shaped designs: every cold miss costs the same
#: order of work whichever design it lands on, so the latency mix is set
#: by the request sequence rather than by which seed drew a big design.
SERVE_SHAPES = ("D1", "D1", "D1", "D1")
#: Reads per design, most popular first (864 reads in all).
SERVE_POPULARITY = (384, 240, 144, 96)
#: Reads per verb.  With a write every tenth request the session is 960
#: requests: the 56 keys (4 designs x 2 contents x 7 verbs) miss once,
#: hydrate from disk once after the restart, and most reads hit memory,
#: so the median sits inside the hit path and p90 inside the misses.
SERVE_VERBS = (
    ("sta", 224), ("explain", 128), ("pba_slacks", 96), ("mgba_fit", 96),
    ("scenario_sweep", 96), ("what_if", 128), ("min_period", 96),
)
SERVE_WRITE_EVERY = 10
#: Candidates per what_if request.
SERVE_WHATIF_K = 16
#: PBA paths per endpoint for ``pba_slacks`` (the context default is 64).
SERVE_PBA_K = 16
SERVE_EXPLAIN_TOP_K = 5
#: A D1 design generates in a tenth of a second, so the median over one
#: round of four moved by half between runs; ``setup_s`` is the median
#: over this many rounds of the same designs.
SERVE_SETUP_ROUNDS = 5


@dataclass(frozen=True)
class Request:
    """One request of the seeded sequence.

    A read carries ``edited``: whether its design's edit is applied when
    it runs, which names the content the check recomputes it on.  A
    write toggles its design's edit: it applies it, or reverts it when
    applied, so each design alternates between two contents and the
    reverted content's keys hit again.
    """

    kind: str               # "read" | "write"
    design: str
    op: str = ""
    params: "tuple[tuple[str, Any], ...]" = ()
    edited: bool = False

    def query(self) -> "dict[str, Any]":
        return {"op": self.op, "design": self.design, **dict(self.params)}


def _allocate(total: int, weights: "tuple[int, ...]") -> "list[int]":
    """Split ``total`` in proportion to ``weights`` (largest remainder)."""
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _upsizable(design: Design) -> "list[str]":
    library = design.netlist.library
    return sorted(
        g for g, gate in design.netlist.gates.items()
        if g.startswith("g_")
        and library.next_size_up(gate.cell_name) is not None
    )


def _bufferable_nets(design: Design) -> "list[str]":
    """Data nets driven by a cone gate with two or more gate loads."""
    netlist = design.netlist
    return [
        net for net in sorted(netlist.nets)
        if (netlist.net_driver(net) is not None
            and (netlist.net_driver(net).gate or "").startswith("g_")
            and sum(1 for r in netlist.net_loads(net) if not r.is_port) >= 2)
    ]


class Serve:
    name = "serve"

    def __init__(self, seed: int, workdir: Path,
                 shapes: "tuple[str, ...]" = SERVE_SHAPES,
                 popularity: "tuple[int, ...]" = SERVE_POPULARITY,
                 verbs: "tuple[tuple[str, int], ...]" = SERVE_VERBS,
                 scale: float = 1.0):
        self.seed = seed
        self.workdir = workdir
        self.shapes = shapes
        self.popularity = popularity
        self.verbs = verbs
        self.scale = scale
        self.pristine: "dict[str, Design]" = {}
        #: The one edit each design's writes toggle: an upsize on even
        #: designs, a buffer insertion on odd ones.
        self.edits: "dict[str, tuple[str, str]]" = {}
        self.plan: "list[Request]" = []
        self._sessions = 0

    # -- inputs --------------------------------------------------------
    def setup(self) -> "list[float]":
        """Generate the designs ``SERVE_SETUP_ROUNDS`` times over (the
        last round's are kept) and plan the session."""
        seconds = []
        seeds = derive_seeds(self.name, self.seed, len(self.shapes))
        for _ in range(SERVE_SETUP_ROUNDS):
            for index, (shape, design_seed) in enumerate(
                zip(self.shapes, seeds)
            ):
                name = f"serve{index}_{shape.lower()}"
                design, elapsed = _timed_setup(
                    _spec(shape, name, design_seed, self.scale)
                )
                self.pristine[name] = design
                seconds.append(elapsed)
        self.plan = self._make_plan()
        return seconds

    def _make_plan(self) -> "list[Request]":
        rng = random.Random(f"{self.name}-plan:{self.seed}")
        names = list(self.pristine)
        candidates: "dict[str, tuple]" = {}
        for index, (name, design) in enumerate(self.pristine.items()):
            gates = _upsizable(design)
            rng.shuffle(gates)
            k = min(SERVE_WHATIF_K, len(gates) - 1)
            candidates[name] = tuple(
                ((("gate", g), ("kind", "resize"), ("up", True)),)
                for g in gates[:k]
            )
            if index % 2 == 0:
                self.edits[name] = ("resize", gates[k])
            else:
                self.edits[name] = ("insert_buffer",
                                    rng.choice(_bufferable_nets(design)))
        verbs = [op for op, count in self.verbs for _ in range(count)]
        designs = [
            name
            for name, count in zip(names, _allocate(len(verbs),
                                                    self.popularity))
            for _ in range(count)
        ]
        rng.shuffle(verbs)
        rng.shuffle(designs)
        params = {
            "explain": (("top_k", SERVE_EXPLAIN_TOP_K),),
            "pba_slacks": (("k", SERVE_PBA_K),),
        }
        edited = {name: False for name in names}
        reads = iter(zip(verbs, designs))
        plan: "list[Request]" = []
        total = len(verbs) + len(verbs) // (SERVE_WRITE_EVERY - 1)
        for position in range(total):
            if (position + 1) % SERVE_WRITE_EVERY:
                op, name = next(reads)
                extra = params.get(op, ())
                if op == "what_if":
                    extra = (("candidates", candidates[name]),)
                plan.append(Request("read", name, op=op, params=extra,
                                    edited=edited[name]))
            else:
                name = rng.choices(names, weights=self.popularity)[0]
                edited[name] = not edited[name]
                plan.append(Request("write", name))
        return plan

    # -- edits ---------------------------------------------------------
    def apply_edit(self, design: Design) -> "tuple[Any, Any]":
        """Apply the design's edit; returns (change record, undo info)."""
        kind, target = self.edits[design.name]
        netlist = design.netlist
        if kind == "resize":
            old_cell = netlist.gate(target).cell_name
            return resize_gate(netlist, target, up=True), old_cell
        loads = sorted(
            (r for r in netlist.net_loads(target) if not r.is_port), key=str
        )
        buffers = netlist.library.buffers()
        change = insert_buffer(
            netlist, target, buffers[len(buffers) // 2].name,
            loads=loads[1:], placement=design.placement,
            buffer_name=f"bbuf_{design.name}",
            new_net_name=f"bnet_{design.name}",
        )
        return change, None

    def revert_edit(self, design: Design, change, undo):
        """Undo the design's edit; returns the change record to mirror."""
        kind, target = self.edits[design.name]
        if kind == "resize":
            design.netlist.swap_cell(target, undo)
            return change
        buffer_name = change.metadata["buffer"]
        inverse = remove_buffer(design.netlist, buffer_name)
        inverse.gates.append(buffer_name)
        inverse.nets.extend(change.nets)
        design.placement.locations.pop(buffer_name, None)
        return inverse

    # -- the session ---------------------------------------------------
    def _start(self, cache_dir: Path,
               designs: "dict[str, Design]") -> TimingService:
        # A (re)start: the in-process layout LRU dies with the server,
        # the disk tier under ``cache_dir`` survives.
        kernel.clear_layout_cache()
        service = TimingService(
            context=CONTEXT.replace(cache=True, cache_dir=str(cache_dir))
        )
        for name, design in designs.items():
            service.register_design(name, design=design)
        return service

    def session(self, requests: "list[Request]") -> Pass:
        designs = {n: copy.deepcopy(d) for n, d in self.pristine.items()}
        cache_dir = self.workdir / f"session{self._sessions}"
        self._sessions += 1
        applied: "dict[str, tuple[Any, Any]]" = {}

        def write(service: TimingService, request: Request) -> None:
            design = designs[request.design]
            if request.design in applied:
                change = self.revert_edit(
                    design, *applied.pop(request.design)
                )
            else:
                applied[request.design] = self.apply_edit(design)
                change = applied[request.design][0]
            service.apply_change(change, design=request.design)

        def read(service: TimingService, request: Request) -> Any:
            (result,) = service.submit([request.query()])
            if not result.ok:
                raise RuntimeError(result.error)
            return result.result

        one = Pass()
        restart_at = len(requests) // 2
        try:
            service = self._start(cache_dir, designs)
            for index, request in enumerate(requests):
                if index == restart_at:
                    service = self._start(cache_dir, designs)
                if request.kind == "read":
                    one.ops.append(timed_op(request.op, read, service, request))
                else:
                    one.ops.append(timed_op("write", write, service, request))
        finally:
            kernel.set_layout_disk_store(None)
        return one

    def warm_up(self) -> None:
        self.session(self.plan[:SERVE_WRITE_EVERY])

    def run_pass(self) -> Pass:
        return self.session(self.plan)

    # -- verification --------------------------------------------------
    def content(self, name: str, edited: bool) -> Design:
        """A fresh copy of ``name``, with its edit applied if ``edited``."""
        design = copy.deepcopy(self.pristine[name])
        if edited:
            self.apply_edit(design)
        return design

    @staticmethod
    def direct(request: Request, design: Design, engine: STAEngine) -> Any:
        """The uncached ``repro.api`` call a read stands for."""
        params = dict(request.params)
        if request.op == "sta":
            return api.run_sta(engine, CONTEXT)
        if request.op == "explain":
            return api.explain_slack(engine, top_k=params["top_k"],
                                     context=CONTEXT)
        if request.op == "pba_slacks":
            return api.golden_slacks(engine, k=params["k"], context=CONTEXT)
        if request.op == "mgba_fit":
            return api.fit(engine, CONTEXT, apply=False)
        if request.op == "scenario_sweep":
            return api.run_scenarios(design, context=CONTEXT)
        if request.op == "what_if":
            return api.what_if(engine, list(params["candidates"]), CONTEXT)
        if request.op == "min_period":
            return api.min_period(engine, context=CONTEXT)
        raise ValueError(f"unknown op {request.op!r}")

    def check(self, passes: "list[Pass]") -> "list[str]":
        """Each response equals a direct uncached call on its content;
        every later session reproduces the first response for response."""
        wrong: "list[str]" = []
        reference = passes[0]
        reads = [
            (index, request) for index, request in enumerate(self.plan)
            if request.kind == "read" and reference.ops[index].ok
        ]
        groups: "dict[tuple, list[tuple[int, Request]]]" = {}
        for index, request in reads:
            groups.setdefault((request.design, request.edited), []).append(
                (index, request)
            )
        kernel.clear_layout_cache()
        for (name, edited), members in groups.items():
            design = self.content(name, edited)
            engine = api.make_engine(design, CONTEXT)
            answers: "dict[tuple, Any]" = {}
            for index, request in members:
                key = (request.op, request.params)
                if key not in answers:
                    answers[key] = self.direct(request, design, engine)
                if _comparable(reference.ops[index].output) \
                        != _comparable(answers[key]):
                    wrong.append(
                        f"request {index} ({request.op} on {name}): "
                        f"response != direct api call"
                    )
        for p_index, one in enumerate(passes[1:], start=1):
            for index, (op, ref) in enumerate(zip(one.ops, reference.ops)):
                if op.ok and ref.ok and op.output != ref.output:
                    wrong.append(
                        f"session {p_index} request {index}: response "
                        f"differs from session 0"
                    )
        return wrong

    def pass_ratio(self, passes: "list[Pass]") -> float:
        """Mean mGBA pass ratio over the distinct fits served."""
        fits = {
            (request.design, request.edited): op.output
            for request, op in zip(self.plan, passes[0].ops)
            if op.ok and request.op == "mgba_fit"
        }
        return _mean([fit.pass_ratio_mgba for fit in fits.values()])

    def report(self, passes: "list[Pass]") -> "list[tuple[str, float, str]]":
        latencies = op_latencies_ms(passes)
        requests = len(latencies)
        return [
            ("serve_latency_ms_p50", _median(latencies), "ms"),
            ("serve_latency_ms_p90", percentile(latencies, 90), "ms"),
            ("serve_requests_per_s",
             requests / sum(one.seconds for one in passes), "req/s"),
        ]


WORKLOADS = {cls.name: cls for cls in (Signoff, Closure, Serve)}


def _comparable(result: Any) -> Any:
    """``result`` with graph slot ids masked out of explain records.

    ``ArcRow.edge`` and ``PathExplanation.node`` are the timing graph's
    internal slot ids; an in-place buffer insert or removal renumbers
    them while a fresh graph of the same netlist numbers them in netlist
    order, so they name no design content and the check ignores them.
    """
    if not isinstance(result, api.ExplainResult):
        return result
    explanation = result.explanation
    paths = tuple(
        replace(path, node=-1,
                rows=tuple(replace(row, edge=-1) for row in path.rows))
        for path in explanation.paths
    )
    return replace(result, explanation=replace(explanation, paths=paths))


def _mean(values: "list[float]") -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0

