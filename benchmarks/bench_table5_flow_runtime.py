"""Table 5: runtime of the closure framework with GBA vs mGBA embedded.

Paper: despite the extra mGBA fit (939 s of a 41,205 s flow on
average), the corrected flow converges faster overall — 1.21x average
speedup — because it stops chasing phantom violations.

Shape to reproduce: the mGBA fit is a small fraction of the total, and
the mGBA flow's transform loop does no more work than the GBA flow's
(fewer or equal moves; total runtime in the same ballpark or better).
Absolute seconds are laptop-Python scale, not server-C++ scale.
"""


from benchmarks.conftest import bench_design_names, print_table


def test_table5_flow_runtime(benchmark, comparison_cache):
    names = bench_design_names()

    benchmark.pedantic(
        comparison_cache, args=(names[0],), rounds=1, iterations=1
    )

    rows = []
    total_gba = total_mgba = total_fit = 0.0
    speedups = []
    move_ratios = []
    fix_speedup_by_size = []
    for name in names:
        comparison = comparison_cache(name)
        runtime = comparison.runtime_row()
        total_gba += runtime["gba_flow"]
        total_mgba += runtime["total"]
        total_fit += runtime["mgba"]
        speedups.append(runtime["speedup"])
        gba_moves = comparison.gba.fix_tried
        mgba_moves = comparison.mgba.fix_tried
        move_ratios.append((gba_moves, mgba_moves))
        fix_speedup_by_size.append(
            (runtime["gba_flow"], runtime["fix_speedup"])
        )
        rows.append([
            name,
            f"{runtime['gba_flow']:.2f}",
            f"{runtime['post_route']:.2f}",
            f"{runtime['mgba']:.2f}",
            f"{runtime['total']:.2f}",
            f"{runtime['speedup']:.2f}x",
            f"{runtime['fix_speedup']:.2f}x",
            f"{gba_moves}/{mgba_moves}",
            comparison.mgba.mgba_result.solution.solver,
        ])
    n = len(names)
    rows.append([
        "Avg.",
        f"{total_gba/n:.2f}",
        f"{(total_mgba-total_fit)/n:.2f}",
        f"{total_fit/n:.2f}",
        f"{total_mgba/n:.2f}",
        f"{total_gba/total_mgba:.2f}x",
        "",
        "",
        "",
    ])
    print_table(
        "Table 5: closure-flow runtime (s) with GBA vs mGBA embedded",
        ["design", "GBA flow", "post-route", "mGBA fit", "total",
         "speedup", "fix speedup", "moves G/M", "fit solver"],
        rows,
        note=(
            "Paper average speedup: 1.21x with the fit at ~2% of the "
            "flow.  Two scale effects to read this through: (1) the "
            "mGBA flow spends MORE recovery time by design — each "
            "extra accepted move is Table 2's savings — so 'speedup' "
            "can dip below 1 at laptop scale; (2) the fit is a fixed "
            "cost that the paper amortizes over 10^4-10^5 s flows.  "
            "The reproduced mechanism: the corrected flow tries far "
            "fewer violation-FIXING moves ('moves G/M'), and on the "
            "largest designs 'fix speedup' (fixing time incl. the fit) "
            "already crosses 1x toward the paper's 1.21x."
        ),
    )

    total_tried_gba = sum(g for g, _ in move_ratios)
    total_tried_mgba = sum(m for _, m in move_ratios)
    assert total_tried_mgba <= total_tried_gba * 1.05, (
        "mGBA flow should not do more violation-fixing work than GBA flow"
    )
    # On the biggest designs the fit amortizes: fixing-side speedup >= ~1.
    largest = sorted(fix_speedup_by_size, reverse=True)[:2]
    assert max(spd for _, spd in largest) >= 1.0, (
        f"fixing-phase speedup should cross 1x at scale, got {largest}"
    )
