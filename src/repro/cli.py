"""Command-line interface: ``repro-sta <subcommand>``.

Subcommands
-----------
``sta``        report GBA timing of a suite design (or Verilog files).
``explain``    slack provenance & pessimism attribution (JSON/markdown).
``mgba``       run the mGBA flow and report correlation before/after.
``closure``    run the closure optimizer (GBA- or mGBA-driven).
``generate``   emit a suite design as Verilog + SDC + AOCV files.
``designs``    list the D1-D10 suite.
``scenarios``  multi-corner summary (default ss/tt/ff) from one
               scenario-stacked kernel pass.
``what-if``    score candidate ECO edit-lists against a design.
``min-period`` binary-search the smallest feasible clock period.
``batch``      run a JSONL query file as one coalesced service batch.
``serve``      answer JSONL queries line-by-line on stdin/stdout
               (``--expose-metrics PORT`` scrape endpoint, ``--slo``
               spec, ``--flight-dump`` post-mortem on error exits).
``obs-report`` pretty-print a captured trace as a runtime breakdown
               (``--flight`` renders a flight-recorder dump).
``metrics-export`` OpenMetrics exposition of the live metrics
               registry or of a saved ``--metrics`` snapshot.
``slo-check``  judge a flight-recorder dump against an SLO spec
               (exit 1 on violation — the advisory CI gate).
``cache``      inspect or manage the on-disk artifact store:
               ``stats`` (per-class entry/byte counts), ``warm DESIGN``
               (pre-build and persist the design's levelized layout so
               the next cold process hydrates instead of rebuilding),
               ``clear`` (drop entries, optionally one ``--class``).

Query commands route through the stable :mod:`repro.api` facade;
``batch`` / ``serve`` go through the :class:`repro.service`
:class:`~repro.service.engine.TimingService` and its content-addressed
artifact cache (``--cache-dir`` / ``--no-cache``; see
``docs/service.md``).

Global observability flags (before the subcommand):

* ``--trace FILE`` — capture every tracing span of the run as JSONL,
  **streamed durably**: each root span is flushed as it closes, so a
  crashed run still leaves a valid parseable trace (read it back with
  ``obs-report``);
* ``--chrome-trace FILE`` — same spans as a Chrome ``trace_event``
  file for ``chrome://tracing`` / Perfetto;
* ``--metrics FILE`` — dump the metrics registry (counters, gauges,
  histograms) as JSON when the command finishes;
* ``--profile FILE`` — attach cProfile to the flow's top-level spans
  (``mgba.run``, ``sta.update_timing``, ``closure.run``) and save the
  aggregated per-function stats as JSON (render with
  ``obs-report --profile FILE``).

Global parallelism flag (before the subcommand):

* ``--workers N`` — run design-suite evaluation (``designs
  --detail``, ``api.evaluate``) one design per worker over N
  workers; overrides ``REPRO_WORKERS``.  Work inside one design and
  every service query run in process.  Backend via
  ``REPRO_PARALLEL_BACKEND`` (``process`` default, or ``serial``).
  See ``docs/parallelism.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import api
from repro.aocv.table import write_aocv
from repro.designs import build_design, design_names
from repro.errors import ReproError
from repro.netlist.verilog import save_verilog
from repro.sdc.writer import save_sdc
from repro.timing.report import report_summary, report_timing
from repro.timing.sta import STAEngine
from repro.utils.log import enable_console_logging


def _engine_for(design_name: str) -> STAEngine:
    return api.make_engine(design_name)


def _cmd_designs(args) -> int:
    if not getattr(args, "detail", False):
        for name in design_names():
            print(name)
        return 0

    header = (
        f"{'design':<7} {'gates':>6} {'flops':>6} {'nets':>6} "
        f"{'endpoints':>9} {'period(ps)':>11} {'violations':>10}"
    )
    print(header)
    print("-" * len(header))
    # Fans one design per worker under --workers / REPRO_WORKERS.
    for report in api.evaluate(design_names()):
        print(
            f"{report.name:<7} {report.gates:>6} {report.flops:>6} "
            f"{report.nets:>6} {report.endpoints:>9} "
            f"{report.period:>11.1f} {report.violations:>10}"
        )
    return 0


def _cmd_sta(args) -> int:
    engine = _engine_for(args.design)
    if args.weights:
        from repro.mgba.persistence import load_weights

        engine.set_gate_weights(
            load_weights(args.weights, engine.netlist)
        )
        print(f"applied mGBA weights from {args.weights}\n")
    print(report_timing(engine, max_endpoints=args.paths))
    return 0


def _cmd_explain(args) -> int:
    import json

    from repro.timing.explain import explain_design, format_design_explanation

    engine = _engine_for(args.design)
    if args.weights:
        from repro.mgba.persistence import load_weights

        engine.set_gate_weights(
            load_weights(args.weights, engine.netlist)
        )
    explanation = explain_design(
        engine, top_k=args.top_k, endpoint=args.endpoint
    )
    if args.format == "json":
        print(json.dumps(explanation.to_dict(), indent=2))
    else:
        print(format_design_explanation(explanation))
    return 0


def _cmd_mgba(args) -> int:
    engine = _engine_for(args.design)
    context = api.RunContext.from_env(
        k_per_endpoint=args.k, solver=args.solver, seed=args.seed,
    )
    result = api.fit(engine, context)
    print(f"design:            {args.design}")
    print(f"paths fitted:      {result.num_paths}")
    print(f"gates (variables): {result.num_gates}")
    print(f"solver:            {result.solver} "
          f"({result.iterations} iters, {result.seconds:.2f}s)")
    print(f"mse   GBA -> mGBA: {result.mse_gba:.3e} -> {result.mse_mgba:.3e}")
    print(f"pass  GBA -> mGBA: {result.pass_ratio_gba:.2%} -> "
          f"{result.pass_ratio_mgba:.2%}")
    if args.save_weights:
        from repro.mgba.persistence import save_weights

        save_weights(result.weight_map(), engine.netlist, args.save_weights)
        print(f"weights saved to {args.save_weights}")
    print()
    print(report_summary(engine))
    return 0


def _cmd_obs_report(args) -> int:
    import json

    from repro.obs import (
        format_breakdown,
        format_flight,
        format_metrics,
        format_profile,
        load_flight,
        load_metrics,
        load_profile,
        load_trace,
    )

    if not args.trace_file and not args.metrics_file \
            and not args.profile_file and not args.flight_file:
        print("obs-report: give a trace file, --metrics FILE, "
              "--profile FILE, and/or --flight FILE", file=sys.stderr)
        return 2
    printed = False
    if args.trace_file:
        try:
            roots = load_trace(args.trace_file)
        except FileNotFoundError:
            print(f"obs-report: no such trace file: {args.trace_file}",
                  file=sys.stderr)
            return 2
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"obs-report: {args.trace_file} is not a span JSONL "
                  f"trace ({exc})", file=sys.stderr)
            return 2
        spans = sum(1 for root in roots for _ in root.walk())
        print(f"Trace {args.trace_file}: {len(roots)} root span(s), "
              f"{spans} total")
        print()
        print(format_breakdown(roots, sort=args.sort, top=args.top))
        printed = True
    if args.metrics_file:
        if printed:
            print()
        snapshot = load_metrics(args.metrics_file)
        if snapshot is None:
            # Tolerate a missing or empty snapshot: a run that died
            # before its --metrics dump should not break reporting.
            print(f"Metrics {args.metrics_file}: "
                  "missing or empty (nothing recorded)")
        else:
            print(f"Metrics {args.metrics_file}:")
            print()
            print(format_metrics(snapshot))
        printed = True
    if args.profile_file:
        if printed:
            print()
        data = load_profile(args.profile_file)
        if data is None:
            print(f"Profile {args.profile_file}: "
                  "missing or empty (nothing recorded)")
        else:
            print(f"Profile {args.profile_file}:")
            print()
            print(format_profile(data, top=args.top or 20))
        printed = True
    if args.flight_file:
        if printed:
            print()
        dump = load_flight(args.flight_file)
        if dump is None:
            print(f"Flight {args.flight_file}: "
                  "missing or not a flight-recorder dump")
        else:
            print(f"Flight {args.flight_file}:")
            print()
            print(format_flight(dump, top=args.top))
    return 0


def _cmd_cache(args) -> int:
    from collections import Counter as TallyCounter

    from repro.context import RunContext
    from repro.service.store import (
        ARTIFACT_CLASSES,
        SCHEMA_VERSION,
        DiskStore,
    )

    overrides = {}
    if getattr(args, "cache_dir", None):
        overrides["cache_dir"] = args.cache_dir
    context = RunContext.from_env(**overrides)
    if not context.cache or not context.cache_dir:
        print("cache: the artifact cache is disabled "
              "(REPRO_CACHE=0 or empty cache dir)", file=sys.stderr)
        return 2
    store = DiskStore(context.cache_dir,
                      max_bytes=context.cache_disk_bytes)

    if args.action == "clear":
        cls = args.artifact_class
        if cls is not None and cls not in ARTIFACT_CLASSES:
            print(f"cache: unknown class {cls!r}; choose from "
                  f"{', '.join(ARTIFACT_CLASSES)}", file=sys.stderr)
            return 2
        removed = store.invalidate(cls)
        scope = f"class {cls!r}" if cls else "all classes"
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"({scope}) from {context.cache_dir}")
        return 0

    if args.action == "warm":
        if not args.design:
            print("cache: warm needs a design name "
                  "(repro-sta cache warm D1)", file=sys.stderr)
            return 2
        from repro.obs.metrics import counter
        from repro.timing import kernel as kernel_mod

        from dataclasses import replace

        design = api.load_design(args.design)
        hits0 = counter("kernel.layout_disk_hits").value
        misses0 = counter("kernel.layout_disk_misses").value
        kernel_mod.set_layout_disk_store(store)
        try:
            # Bypass the in-process LRU: a still-cached layout from an
            # earlier in-process run would skip the disk tier entirely.
            # The kernel is pinned to vector — only it has a layout to
            # warm, whatever the design's config selects.
            kernel_mod.clear_layout_cache()
            engine = STAEngine(
                design.netlist, design.constraints, design.placement,
                replace(design.sta_config, kernel="vector"),
            )
            engine.update_timing()
        finally:
            kernel_mod.set_layout_disk_store(None)
        hits = int(counter("kernel.layout_disk_hits").value - hits0)
        misses = int(counter("kernel.layout_disk_misses").value - misses0)
        state = "already warm (hydrated from disk)" if hits else "persisted"
        print(f"{args.design}: levelized layout {state} under "
              f"{context.cache_dir} (disk hits {hits}, misses {misses})")
        return 0

    # stats
    tally: "TallyCounter[str]" = TallyCounter()
    sizes: "TallyCounter[str]" = TallyCounter()
    for path in store.entries():
        cls = path.parent.name
        tally[cls] += 1
        try:
            sizes[cls] += path.stat().st_size
        except OSError:
            pass
    total_entries = sum(tally.values())
    total_bytes = sum(sizes.values())
    print(f"artifact store {context.cache_dir} (schema v{SCHEMA_VERSION}):")
    header = f"{'class':<12} {'entries':>8} {'bytes':>12}"
    print(header)
    print("-" * len(header))
    for cls in ARTIFACT_CLASSES:
        if tally[cls]:
            print(f"{cls:<12} {tally[cls]:>8} {sizes[cls]:>12}")
    print("-" * len(header))
    print(f"{'total':<12} {total_entries:>8} {total_bytes:>12} "
          f"(budget {store.max_bytes})")
    return 0


def _service_for(args):
    from repro.context import RunContext
    from repro.service import TimingService

    overrides = {}
    if getattr(args, "cache_dir", None):
        overrides["cache_dir"] = args.cache_dir
    if getattr(args, "no_cache", False):
        overrides["cache"] = False
    slo_spec = None
    if getattr(args, "slo", None):
        from repro.obs.slo import load_slo_spec

        slo_spec = load_slo_spec(args.slo)  # raises SLOError when bad
    return TimingService(
        context=RunContext.from_env(**overrides), slo_spec=slo_spec
    )


def _cmd_batch(args) -> int:
    from repro.service import run_batch, write_responses

    service = _service_for(args)
    if args.input == "-":
        responses = run_batch(service, sys.stdin)
    else:
        try:
            with open(args.input) as fh:
                responses = run_batch(service, fh)
        except OSError as exc:
            print(f"batch: cannot read {args.input}: {exc}",
                  file=sys.stderr)
            return 2
    errors = sum(1 for r in responses if not r.get("ok"))
    if args.output == "-":
        write_responses(responses, sys.stdout)
    else:
        with open(args.output, "w") as fh:
            count = write_responses(responses, fh)
        print(f"wrote {count} response(s) ({errors} error(s)) "
              f"to {args.output}")
    return 2 if errors else 0


def _cmd_serve(args) -> int:
    from repro.obs.slo import SLOError
    from repro.service import serve

    try:
        service = _service_for(args)
    except SLOError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    server = None
    if args.expose_metrics is not None:
        from repro.obs.expo import start_metrics_server

        try:
            server = start_metrics_server(
                port=args.expose_metrics, health_fn=service.health
            )
        except OSError as exc:
            print(f"serve: cannot bind metrics endpoint on port "
                  f"{args.expose_metrics}: {exc}", file=sys.stderr)
            return 2
        print(f"serve: metrics exposition at {server.url}",
              file=sys.stderr)
    flight_dump = None if args.no_flight_dump else args.flight_dump
    try:
        stats = serve(service, sys.stdin, sys.stdout,
                      flight_dump=flight_dump)
    finally:
        if server is not None:
            server.close()
    summary = (f"served {stats.served} request(s) "
               f"({stats.errors} error(s))")
    if stats.slo_ok is not None:
        summary += f"; SLO {'ok' if stats.slo_ok else 'VIOLATED'}"
    if stats.flight_dump:
        summary += f"; flight recorder dumped to {stats.flight_dump}"
    print(summary, file=sys.stderr)
    return 2 if stats.errors else 0


def _cmd_metrics_export(args) -> int:
    from repro.obs import load_metrics, render_openmetrics

    if args.metrics_file:
        snapshot = load_metrics(args.metrics_file)
        if snapshot is None:
            print(f"metrics-export: {args.metrics_file} is missing, "
                  "empty, or not a metrics snapshot", file=sys.stderr)
            return 2
        text = render_openmetrics(snapshot)
    else:
        # The live process registry: mostly useful after another
        # subcommand ran in-process (tests) or for a quick format demo.
        text = render_openmetrics()
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        print(f"wrote OpenMetrics exposition to {args.output}")
    return 0


def _cmd_slo_check(args) -> int:
    from repro.obs import load_flight
    from repro.obs.slo import (
        SLOError,
        evaluate_slo,
        format_slo_report,
        load_slo_spec,
    )

    try:
        spec = load_slo_spec(args.spec)
    except SLOError as exc:
        print(f"slo-check: {exc}", file=sys.stderr)
        return 2
    dump = load_flight(args.flight)
    if dump is None:
        print(f"slo-check: {args.flight} is missing or not a "
              "flight-recorder dump", file=sys.stderr)
        return 2
    report = evaluate_slo(spec, dump.get("requests") or [])
    print(format_slo_report(report))
    return 0 if report.ok else 1


def _cmd_closure(args) -> int:
    name = args.design or args.design_flag
    if not name:
        print("closure: a design name is required "
              "(positional or --design)", file=sys.stderr)
        return 2
    args.design = name
    result = api.close_timing(
        args.design,
        use_mgba=args.mgba,
        max_transforms=args.max_transforms,
        acceptable_violations=args.acceptable,
    )
    if args.eco:
        from repro.opt.eco import save_eco

        save_eco(list(result.eco_commands), args.eco, args.design)
        print(f"wrote {len(result.eco_commands)} ECO command(s) "
              f"to {args.eco}")
    flavor = "mGBA" if args.mgba else "GBA"
    print(f"{flavor} closure on {args.design}:")
    print(f"  transforms: {result.transforms_applied} applied / "
          f"{result.transforms_tried} tried")
    print(f"  runtime:    {result.seconds:.2f}s")
    print(f"  before  WNS={result.wns_before:9.1f}  "
          f"TNS={result.tns_before:11.1f}  "
          f"violations={result.violations_before}")
    print(f"  after   WNS={result.wns_after:9.1f}  "
          f"TNS={result.tns_after:11.1f}  "
          f"area={result.area_after:9.1f}  "
          f"leakage={result.leakage_after:9.1f}  "
          f"buffers={result.buffers_after:4d}  "
          f"violations={result.violations_after}")
    return 0


def _cmd_generate(args) -> int:
    from repro.netlist.parasitics import extract_parasitics, write_spef
    from repro.netlist.plfile import write_placement

    design = build_design(args.design)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    save_verilog(design.netlist, out / f"{args.design}.v")
    save_sdc(design.constraints, out / f"{args.design}.sdc")
    (out / f"{args.design}.aocv").write_text(
        write_aocv(design.derating_table)
    )
    (out / f"{args.design}.pl").write_text(
        write_placement(design.placement)
    )
    parasitics = extract_parasitics(
        design.netlist, design.placement,
        design.sta_config.wire_r_per_nm, design.sta_config.wire_c_per_nm,
    )
    (out / f"{args.design}.spef").write_text(write_spef(parasitics))
    print(f"wrote {args.design}.v / .sdc / .aocv / .pl / .spef under {out}")
    return 0


def _parse_corner_spec(spec: str) -> "list[tuple[str, float]]":
    """Parse ``name:scale,name:scale,...`` into (name, scale) pairs."""
    pairs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, scale = item.partition(":")
        if not sep or not name.strip():
            raise ValueError(
                f"bad corner {item!r}; expected name:scale "
                "(e.g. ss:1.15,tt:1.0,ff:0.87)"
            )
        pairs.append((name.strip(), float(scale)))
    if not pairs:
        raise ValueError("empty corner list")
    return pairs


def _cmd_scenarios(args) -> int:
    corners = None
    if args.corners:
        try:
            corners = _parse_corner_spec(args.corners)
        except ValueError as exc:
            print(f"scenarios: {exc}", file=sys.stderr)
            return 2
    result = api.run_scenarios(args.design, corners=corners)
    mode = "stacked sweep" if result.stacked else "per-corner updates"
    print(f"{args.design} scenario sweep "
          f"({len(result.corners)} scenario(s), {mode}, "
          f"{result.seconds:.2f}s):\n")
    header = (
        f"{'corner':<8} {'scale':>6} {'setup WNS':>10} {'setup TNS':>12} "
        f"{'viol':>5} {'hold WNS':>10}"
    )
    print(header)
    print("-" * len(header))
    scales = dict(result.corners)
    hold_wns = {name: wns for name, wns, _tns, _v in result.hold}
    for name, wns, tns, violations in result.setup:
        print(
            f"{name:<8} {scales[name]:>6.2f} {wns:>10.1f} {tns:>12.1f} "
            f"{violations:>5} {hold_wns[name]:>10.1f}"
        )
    if result.dominant:
        print(f"\ndominant setup corner: {result.dominant}")
    for endpoint, slack, corner in result.merged[:args.paths]:
        print(f"  {endpoint:<24} {slack:>10.1f}  @ {corner}")
    return 0


def _cmd_what_if(args) -> int:
    import json

    from repro.opt.whatif import parse_eco_candidate

    candidates: "list" = []
    if args.candidates:
        try:
            if args.candidates == "-":
                payload = json.load(sys.stdin)
            else:
                with open(args.candidates) as fh:
                    payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"what-if: cannot read {args.candidates}: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(payload, list):
            print("what-if: candidates file must be a JSON list "
                  "(each entry an edit-spec list or ECO text)",
                  file=sys.stderr)
            return 2
        candidates.extend(payload)
    eco_texts = []
    for eco_path in args.eco or ():
        try:
            eco_texts.append((eco_path, Path(eco_path).read_text()))
        except OSError as exc:
            print(f"what-if: cannot read {eco_path}: {exc}",
                  file=sys.stderr)
            return 2
    if not candidates and not eco_texts:
        print("what-if: no candidates (give --candidates FILE "
              "and/or --eco FILE)", file=sys.stderr)
        return 2
    # Parsed here, each ECO file names itself in a bad line's error.
    candidates.extend(
        parse_eco_candidate(text, path) for path, text in eco_texts
    )
    result = api.what_if(args.design, candidates)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(f"{args.design}: {len(result.candidates)} candidate(s), "
          f"baseline WNS={result.wns_baseline:.1f} "
          f"TNS={result.tns_baseline:.1f} "
          f"violations={result.violations_baseline} "
          f"({result.seconds:.2f}s)\n")
    header = (
        f"{'#':>3} {'ok':<3} {'edits':>5} {'ΔWNS':>9} {'ΔTNS':>11} "
        f"{'viol':>5} {'touched':>7}  eco/error"
    )
    print(header)
    print("-" * len(header))
    best = result.best()
    for index, cand in enumerate(result.candidates):
        tail = "; ".join(cand.eco) if cand.ok else (cand.error or "")
        marker = "*" if index == best else " "
        print(
            f"{index:>2}{marker} {'yes' if cand.ok else 'no':<3} "
            f"{cand.edits:>5} {cand.delta_wns:>9.1f} "
            f"{cand.delta_tns:>11.1f} {cand.violations_after:>5} "
            f"{len(cand.touched):>7}  {tail}"
        )
    if best is not None:
        print(f"\nbest candidate: #{best} "
              f"(ΔWNS {result.candidates[best].delta_wns:+.1f})")
    return 0


def _cmd_min_period(args) -> int:
    import json

    corner = None
    if args.corner:
        try:
            pairs = _parse_corner_spec(args.corner)
        except ValueError as exc:
            print(f"min-period: {exc}", file=sys.stderr)
            return 2
        if len(pairs) != 1:
            print("min-period: exactly one corner (name:scale)",
                  file=sys.stderr)
            return 2
        corner = pairs[0]
    result = api.min_period(
        args.design, clock=args.clock, tolerance=args.tolerance,
        max_iter=args.max_iter, corner=corner,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    label = f" @ {result.corner}" if result.corner else ""
    print(f"{args.design}: clock {result.clock}{label}")
    print(f"  baseline period: {result.baseline_period:10.1f} ps  "
          f"(WNS {result.baseline_wns:+.1f})")
    print(f"  min period:      {result.period:10.1f} ps  "
          f"(WNS {result.wns_at_period:+.1f})")
    print(f"  bracket: ({result.bracket_low:.1f}, {result.bracket_high:.1f}] "
          f"within ±{result.tolerance:g} ps")
    print(f"  {result.iterations} bisection(s), "
          f"{result.evaluations} slack evaluation(s), "
          f"{result.seconds:.2f}s")
    if result.baseline_period > result.period:
        headroom = result.baseline_period - result.period
        print(f"  headroom: {headroom:.1f} ps "
              f"({headroom / result.baseline_period:.1%} of the period)")
    return 0


def _cmd_validate(args) -> int:
    from repro.netlist.validate import Severity, validate_netlist

    design = build_design(args.design)
    findings = validate_netlist(design.netlist)
    errors = [f for f in findings if f.severity is Severity.ERROR]
    warnings = [f for f in findings if f.severity is Severity.WARNING]
    print(f"{args.design}: {design.netlist.stats()}")
    print(f"  {len(errors)} error(s), {len(warnings)} warning(s)")
    for finding in findings[:args.rows]:
        print(f"  {finding}")
    if len(findings) > args.rows:
        print(f"  ... ({len(findings) - args.rows} more)")
    return 1 if errors else 0


def _cmd_pessimism(args) -> int:
    from repro.analysis import format_pessimism_report, pessimism_report

    engine = _engine_for(args.design)
    rows = pessimism_report(engine, k_paths=args.k_paths)
    print(f"Pessimism report for {args.design} (GBA vs golden PBA):\n")
    print(format_pessimism_report(rows, max_rows=args.rows))
    return 0


def _cmd_compare(args) -> int:
    from repro.designs.suite import design_factory
    from repro.mgba.flow import MGBAConfig
    from repro.opt.closure import ClosureConfig
    from repro.opt.compare import run_flow_comparison
    from repro.reporting import comparison_to_dict, save_json

    comparison = run_flow_comparison(
        args.design,
        design_factory(args.design),
        ClosureConfig(
            max_transforms=args.max_transforms,
            mgba=MGBAConfig(seed=0),
        ),
    )
    gains = comparison.qor_improvement()
    runtime = comparison.runtime_row()
    print(f"{args.design}: mGBA flow vs GBA flow")
    print("  QoR improvement (%):  "
          + "  ".join(f"{k}={gains[k]:+.2f}"
                      for k in ("wns", "tns", "area", "leakage", "buffer")))
    print(f"  runtime (s): GBA {runtime['gba_flow']:.2f}  "
          f"mGBA {runtime['total']:.2f} "
          f"(fit {runtime['mgba']:.2f})  speedup {runtime['speedup']:.2f}x")
    if args.json:
        save_json(comparison_to_dict(comparison), args.json)
        print(f"  wrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-sta",
        description="mGBA pessimism-reduction framework (DAC'18 repro)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument(
        "--workers", type=int, metavar="N", default=None,
        help="workers for suite evaluation, one design each "
             "(overrides REPRO_WORKERS; backend via "
             "REPRO_PARALLEL_BACKEND, default process)",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a JSONL span trace of the run (see obs-report)",
    )
    parser.add_argument(
        "--chrome-trace", metavar="FILE",
        help="write a Chrome trace_event file of the run",
    )
    parser.add_argument(
        "--metrics", metavar="FILE",
        help="write the metrics-registry snapshot as JSON",
    )
    parser.add_argument(
        "--profile", metavar="FILE",
        help="attach cProfile to top-level flow spans and write the "
             "aggregated stats as JSON (see obs-report --profile)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_designs = sub.add_parser("designs", help="list the design suite")
    p_designs.add_argument(
        "--detail", action="store_true",
        help="build each design and print size/timing statistics",
    )

    p_sta = sub.add_parser("sta", help="report GBA timing")
    p_sta.add_argument("design")
    p_sta.add_argument("--paths", type=int, default=3)
    p_sta.add_argument(
        "--weights", help="apply a saved mGBA weight file before reporting"
    )

    p_exp = sub.add_parser(
        "explain",
        help="slack provenance & pessimism attribution for a design",
    )
    p_exp.add_argument("design")
    p_exp.add_argument(
        "--endpoint", metavar="PIN", default=None,
        help="narrow the record to one endpoint's worst path "
             "(endpoint pin name, e.g. FF4/D)",
    )
    p_exp.add_argument(
        "--top-k", type=int, default=10, metavar="K",
        help="per-arc detail for the K worst endpoints (default: 10)",
    )
    p_exp.add_argument(
        "--format", choices=["markdown", "json"], default="markdown",
        help="markdown tables (default) or the docs/formats.md JSON "
             "schema",
    )
    p_exp.add_argument(
        "--weights", help="apply a saved mGBA weight file first, so the "
                          "record attributes removed pessimism",
    )

    p_mgba = sub.add_parser("mgba", help="run the mGBA flow")
    p_mgba.add_argument("design")
    p_mgba.add_argument("--k", type=int, default=20)
    p_mgba.add_argument(
        "--solver", default="scg+rs",
        choices=["gd", "scg", "scg+rs", "direct"],
    )
    p_mgba.add_argument("--seed", type=int, default=0)
    p_mgba.add_argument(
        "--save-weights", help="write the fitted weights to this JSON file"
    )

    p_clo = sub.add_parser("closure", help="run closure optimization")
    p_clo.add_argument("design", nargs="?", default=None)
    p_clo.add_argument(
        "--design", dest="design_flag", metavar="NAME",
        help="design name (alternative to the positional argument)",
    )
    p_clo.add_argument("--mgba", action="store_true")
    p_clo.add_argument("--max-transforms", type=int, default=200)
    p_clo.add_argument("--acceptable", type=int, default=0)
    p_clo.add_argument(
        "--eco", help="write accepted moves as a replayable ECO script"
    )

    p_gen = sub.add_parser("generate", help="emit design files")
    p_gen.add_argument("design")
    p_gen.add_argument("-o", "--output", default="out")

    p_cmp = sub.add_parser(
        "compare", help="A/B the GBA and mGBA closure flows"
    )
    p_cmp.add_argument("design")
    p_cmp.add_argument("--max-transforms", type=int, default=150)
    p_cmp.add_argument("--json", help="also write the record as JSON")

    p_pess = sub.add_parser(
        "pessimism", help="per-endpoint GBA-vs-golden pessimism report"
    )
    p_pess.add_argument("design")
    p_pess.add_argument("--k-paths", type=int, default=16)
    p_pess.add_argument("--rows", type=int, default=20)

    p_val = sub.add_parser("validate", help="structural netlist lint")
    p_val.add_argument("design")
    p_val.add_argument("--rows", type=int, default=25)

    p_scen = sub.add_parser(
        "scenarios",
        help="multi-corner summary (default ss/tt/ff) from one "
             "scenario-stacked kernel pass",
    )
    p_scen.add_argument("design")
    p_scen.add_argument(
        "--corners", metavar="SPEC", default=None,
        help="comma-separated name:scale list "
             "(default: ss:1.15,tt:1.0,ff:0.87)",
    )
    p_scen.add_argument(
        "--paths", type=int, default=5, metavar="N",
        help="merged worst endpoints to list (default: 5)",
    )

    p_wi = sub.add_parser(
        "what-if",
        help="score candidate ECO edit-lists (resize/VT/buffer) "
             "against a design",
    )
    p_wi.add_argument("design")
    p_wi.add_argument(
        "--candidates", metavar="FILE",
        help="JSON list of candidates ('-' for stdin); each entry an "
             "edit-spec list or ECO text (see docs/formats.md)",
    )
    p_wi.add_argument(
        "--eco", metavar="FILE", action="append",
        help="append an ECO script file as one candidate (repeatable)",
    )
    p_wi.add_argument(
        "--json", action="store_true",
        help="emit the full WhatIfResult record as JSON",
    )

    p_mp = sub.add_parser(
        "min-period",
        help="binary-search the smallest feasible clock period",
    )
    p_mp.add_argument("design")
    p_mp.add_argument(
        "--clock", metavar="NAME", default=None,
        help="clock to search (default: the primary clock)",
    )
    p_mp.add_argument(
        "--tolerance", type=float, default=1.0, metavar="PS",
        help="bracket resolution in ps (default: 1.0)",
    )
    p_mp.add_argument(
        "--max-iter", type=int, default=64, metavar="N",
        help="bisection iteration cap (default: 64)",
    )
    p_mp.add_argument(
        "--corner", metavar="SPEC", default=None,
        help="search at a scaled-delay corner (name:scale, e.g. ss:1.15)",
    )
    p_mp.add_argument(
        "--json", action="store_true",
        help="emit the full MinPeriodResult record as JSON",
    )

    p_batch = sub.add_parser(
        "batch",
        help="run a JSONL query file as one coalesced service batch",
    )
    p_batch.add_argument(
        "input", help="JSONL request file ('-' for stdin); one query "
                      "object per line (see docs/service.md)",
    )
    p_batch.add_argument(
        "-o", "--output", default="-",
        help="JSONL response file (default: stdout)",
    )
    p_serve = sub.add_parser(
        "serve",
        help="answer JSONL queries line-by-line on stdin/stdout",
    )
    for p_svc in (p_batch, p_serve):
        p_svc.add_argument(
            "--cache-dir", metavar="DIR",
            help="artifact-cache directory "
                 "(default .repro_cache, or REPRO_CACHE_DIR)",
        )
        p_svc.add_argument(
            "--no-cache", action="store_true",
            help="disable the artifact cache for this invocation",
        )
    p_serve.add_argument(
        "--expose-metrics", type=int, metavar="PORT", default=None,
        help="serve an OpenMetrics scrape endpoint on localhost:PORT "
             "for the session (0 = OS-assigned; /metrics and /health)",
    )
    p_serve.add_argument(
        "--flight-dump", metavar="FILE", default="flight_dump.json",
        help="where the flight recorder is dumped when the session "
             "exits on the error path (default: flight_dump.json)",
    )
    p_serve.add_argument(
        "--no-flight-dump", action="store_true",
        help="never dump the flight recorder, even on errors",
    )
    p_serve.add_argument(
        "--slo", metavar="FILE", default=None,
        help="SLO spec (JSON or TOML, see docs/formats.md); the "
             "health verb and exit summary then report SLO status",
    )

    p_mx = sub.add_parser(
        "metrics-export",
        help="render the metrics registry in OpenMetrics text format",
    )
    p_mx.add_argument(
        "--metrics", dest="metrics_file", metavar="FILE", default=None,
        help="render a saved --metrics JSON snapshot instead of the "
             "live process registry",
    )
    p_mx.add_argument(
        "-o", "--output", default="-",
        help="write the exposition here (default: stdout)",
    )

    p_slo = sub.add_parser(
        "slo-check",
        help="judge a flight-recorder dump against an SLO spec "
             "(exit 1 on violation)",
    )
    p_slo.add_argument(
        "--spec", metavar="FILE", default="slo/default.json",
        help="SLO spec, JSON or TOML (default: slo/default.json)",
    )
    p_slo.add_argument(
        "--flight", metavar="FILE", required=True,
        help="flight-recorder dump to evaluate (see serve "
             "--flight-dump and docs/formats.md)",
    )

    p_obs = sub.add_parser(
        "obs-report",
        help="per-stage runtime breakdown of a --trace JSONL file",
    )
    p_obs.add_argument("trace_file", nargs="?", default=None)
    p_obs.add_argument(
        "--metrics", dest="metrics_file", metavar="FILE",
        help="also summarize a --metrics JSON snapshot "
             "(missing/empty files are reported, not fatal)",
    )
    p_obs.add_argument(
        "--profile", dest="profile_file", metavar="FILE",
        help="also render a --profile JSON dump as a top-N "
             "self-time table",
    )
    p_obs.add_argument(
        "--flight", dest="flight_file", metavar="FILE",
        help="also render a flight-recorder dump (recent requests "
             "and errors; see serve --flight-dump)",
    )
    p_obs.add_argument(
        "--sort", choices=["wall", "self", "calls"], default="wall",
        help="sibling ordering of the breakdown rows (default: wall)",
    )
    p_obs.add_argument(
        "--top", type=int, metavar="N", default=None,
        help="truncate the breakdown (and profile table) to N rows",
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect or manage the on-disk artifact store",
    )
    p_cache.add_argument(
        "action", choices=["stats", "warm", "clear"],
        help="stats: per-class entry/byte counts; warm: pre-build and "
             "persist a design's levelized layout; clear: drop entries",
    )
    p_cache.add_argument(
        "design", nargs="?", default=None,
        help="design to warm (required for the warm action)",
    )
    p_cache.add_argument(
        "--cache-dir", metavar="DIR",
        help="artifact-cache directory "
             "(default .repro_cache, or REPRO_CACHE_DIR)",
    )
    p_cache.add_argument(
        "--class", dest="artifact_class", metavar="CLS", default=None,
        help="restrict clear to one artifact class (e.g. layout, sta)",
    )

    return parser


_COMMANDS = {
    "designs": _cmd_designs,
    "sta": _cmd_sta,
    "explain": _cmd_explain,
    "mgba": _cmd_mgba,
    "closure": _cmd_closure,
    "generate": _cmd_generate,
    "compare": _cmd_compare,
    "pessimism": _cmd_pessimism,
    "validate": _cmd_validate,
    "scenarios": _cmd_scenarios,
    "what-if": _cmd_what_if,
    "min-period": _cmd_min_period,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "metrics-export": _cmd_metrics_export,
    "slo-check": _cmd_slo_check,
    "obs-report": _cmd_obs_report,
    "cache": _cmd_cache,
}


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.verbose:
        enable_console_logging()
    if args.workers is not None:
        from repro.errors import ParallelError
        from repro.parallel import set_default_workers

        try:
            set_default_workers(args.workers)
        except ParallelError as exc:
            print(f"repro-sta: {exc}", file=sys.stderr)
            return 2
    for out_path in (args.trace, args.chrome_trace, args.metrics,
                     args.profile):
        if out_path:
            parent = Path(out_path).parent
            if str(parent) != "." and not parent.is_dir():
                print(f"repro-sta: output directory does not exist: "
                      f"{parent}", file=sys.stderr)
                return 2
    tracer = None
    if args.trace or args.chrome_trace:
        from repro.obs import install_tracer

        tracer = install_tracer()
        if args.trace:
            # Stream, don't buffer: every closed root span is flushed
            # to the file immediately, so a crashed run still leaves a
            # valid JSONL trace for obs-report.
            tracer.stream_jsonl(args.trace)
    profiler = None
    if args.profile:
        from repro.obs import SpanProfiler, set_span_profiler

        profiler = SpanProfiler()
        set_span_profiler(profiler)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:  # bad input, named: no traceback
        print(f"repro-sta: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.workers is not None:
            from repro.parallel import set_default_workers

            set_default_workers(None)
        if tracer is not None:
            from repro.obs import uninstall_tracer

            uninstall_tracer()
            tracer.close()
            if args.chrome_trace:
                tracer.export_chrome(args.chrome_trace)
        if profiler is not None:
            from repro.obs import set_span_profiler

            set_span_profiler(None)
            profiler.save_json(args.profile)
        if args.metrics:
            from repro.obs import default_registry

            default_registry().save_json(args.metrics)


if __name__ == "__main__":
    sys.exit(main())
