"""repro — a graph-based pessimism reduction framework for timing closure.

Python reproduction of Peng et al., "A General Graph Based Pessimism
Reduction Framework for Design Optimization of Timing Closure",
DAC 2018.

Quick start::

    from repro import build_design, STAEngine, MGBAFlow

    design = build_design("D1")
    engine = STAEngine(design.netlist, design.constraints,
                       design.placement, design.sta_config)
    print(engine.summary())            # pessimistic GBA view

    result = MGBAFlow().run(engine)    # fit + install the correction
    print(engine.summary())            # corrected (mGBA) view
    print(f"pass ratio {result.pass_ratio_gba:.1%} -> "
          f"{result.pass_ratio_mgba:.1%}")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.errors import (
    AOCVError,
    LibertyError,
    NetlistError,
    ParallelError,
    ParseError,
    ReproError,
    SDCError,
    SolverError,
    TimingError,
)
from repro.liberty import (
    Library,
    make_default_library,
    parse_liberty,
    write_liberty,
)
from repro.netlist import (
    Netlist,
    Placement,
    parse_verilog,
    validate_netlist,
    write_verilog,
)
from repro.sdc import Clock, Constraints, parse_sdc, write_sdc
from repro.aocv import DeratingTable, compute_gba_depths, paper_table_1
from repro.timing import STAConfig, STAEngine
from repro.pba import PBAEngine, TimingPath, enumerate_worst_paths
from repro.mgba import (
    MGBAConfig,
    MGBAFlow,
    MGBAProblem,
    MGBAResult,
    build_problem,
    mse,
    pass_ratio,
)
from repro.mgba.solvers import (
    solve_direct,
    solve_gd,
    solve_scg,
    solve_with_row_sampling,
)
from repro.opt import (
    ClosureConfig,
    QoRMetrics,
    TimingClosureOptimizer,
    run_flow_comparison,
)
from repro import obs
from repro import parallel
from repro.parallel import (
    Executor,
    get_executor,
    set_default_workers,
)
from repro import api
from repro.api import (
    ClosureResult,
    FitResult,
    GoldenSlacksResult,
    RunContext,
    STAResult,
)
from repro import service
from repro.service import (
    ArtifactCache,
    DesignReport,
    TimingService,
    evaluate_suite,
)
from repro.analysis import pessimism_report, summarize_pessimism
from repro.timing.corners import Corner, MultiCornerAnalysis
from repro.mgba.validation import endpoint_split_validation, holdout_validation
from repro.mgba.persistence import load_weights, save_weights
from repro.designs import Design, DesignSpec, build_design, generate_design

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "LibertyError", "NetlistError", "SDCError", "AOCVError",
    "TimingError", "SolverError", "ParseError", "ParallelError",
    # substrates
    "Library", "make_default_library", "parse_liberty", "write_liberty",
    "Netlist", "Placement", "parse_verilog", "write_verilog",
    "validate_netlist",
    "Clock", "Constraints", "parse_sdc", "write_sdc",
    "DeratingTable", "paper_table_1", "compute_gba_depths",
    # engines
    "STAConfig", "STAEngine",
    "PBAEngine", "TimingPath", "enumerate_worst_paths",
    # mGBA
    "MGBAConfig", "MGBAFlow", "MGBAProblem", "MGBAResult", "build_problem",
    "mse", "pass_ratio",
    "solve_gd", "solve_scg", "solve_with_row_sampling", "solve_direct",
    # optimization
    "ClosureConfig", "QoRMetrics", "TimingClosureOptimizer",
    "run_flow_comparison",
    # analysis & validation
    "pessimism_report", "summarize_pessimism",
    "Corner", "MultiCornerAnalysis",
    "holdout_validation", "endpoint_split_validation",
    "save_weights", "load_weights",
    # observability (tracing spans, metrics registry, solver telemetry)
    "obs",
    # parallel execution (serial/process executors)
    "parallel", "Executor", "get_executor", "set_default_workers",
    # stable facade + unified run context
    "api", "RunContext",
    "STAResult", "GoldenSlacksResult", "FitResult", "ClosureResult",
    # service layer (artifact cache, batched queries, suite fan-out)
    "service", "TimingService", "ArtifactCache",
    "DesignReport", "evaluate_suite",
    # designs
    "Design", "DesignSpec", "build_design", "generate_design",
    "__version__",
]
