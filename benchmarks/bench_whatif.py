"""What-if bench: candidates scored in sequence must match each alone.

The what-if API scores K candidate edit-lists in sequence on one live
engine: apply → incremental update → measure → revert.  The service
caches each candidate's result under its own key
(``repro.service.keys.what_if_key``), so a result must not depend on
which candidates ran before it.  This bench builds a deterministic
candidate list per design (resizes, VT swaps, and a buffer insertion
over the first few combinational gates/nets), scores it once through
:func:`repro.opt.whatif.evaluate_what_if`, then scores each candidate
alone on a fresh engine, and hard-checks:

* every frozen :class:`~repro.opt.whatif.CandidateResult` is equal
  (``==`` excludes wall time) between the sequence and the lone run;
* the min-period search returns the identical
  :class:`~repro.opt.whatif.MinPeriodResult` on two fresh engines.

Also runnable as a script for the ``bench-smoke`` CI gate::

    python benchmarks/bench_whatif.py --check --designs D1
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import api
from repro.opt.whatif import evaluate_what_if, min_period_on_engine

from benchmarks.conftest import bench_design_names, print_table

#: Candidates generated per design (kept small: the bench gates
#: equivalence, not throughput).
CANDIDATES_PER_DESIGN = 12


def build_candidates(design_name: str) -> "list[list[dict]]":
    """A deterministic candidate list over one design's content.

    Derived entirely from the design (gate/net iteration order is
    insertion order, which is deterministic per seed), never from
    randomness or wall clock — the same list on every run.
    """
    engine = api.make_engine(design_name)
    netlist = engine.netlist
    gates = [
        g for g in netlist.gates
        if not netlist.cell_of(g).is_buffer
    ]
    nets = [
        n for n in netlist.nets
        if netlist.net_driver(n) is not None
        and netlist.net_loads(n)
        and not any(r.is_port for r in netlist.net_loads(n))
    ]
    candidates: "list[list[dict]]" = []
    for index in range(CANDIDATES_PER_DESIGN):
        gate = gates[index % len(gates)]
        if index % 4 == 3 and nets:
            candidates.append([{
                "kind": "insert_buffer",
                "net": nets[index % len(nets)],
                "buffer_cell": "BUF_X2",
            }])
        elif index % 4 == 2:
            candidates.append([
                {"kind": "resize", "gate": gate, "up": True},
                {"kind": "resize",
                 "gate": gates[(index + 1) % len(gates)], "up": False},
            ])
        else:
            candidates.append(
                [{"kind": "resize", "gate": gate, "up": index % 2 == 0}]
            )
    return candidates


def run_design(design_name: str):
    """(sequence result, lone results, sequence s, lone s)."""
    candidates = build_candidates(design_name)
    start = time.perf_counter()
    sequence = evaluate_what_if(design_name, candidates)
    sequence_wall = time.perf_counter() - start
    start = time.perf_counter()
    alone = [
        evaluate_what_if(design_name, [candidate]).candidates[0]
        for candidate in candidates
    ]
    alone_wall = time.perf_counter() - start
    return sequence, alone, sequence_wall, alone_wall


def equivalence_failures(design_name: str, sequence, alone) -> "list[str]":
    """Human-readable divergences between the two evaluation modes."""
    failures = [
        f"{design_name} candidate {index}: the sequence and the lone "
        f"run differ"
        for index, (s, a) in enumerate(zip(sequence.candidates, alone))
        if s != a  # frozen dataclasses; seconds excluded
    ]
    mp_a = min_period_on_engine(api.make_engine(design_name))
    mp_b = min_period_on_engine(api.make_engine(design_name))
    if mp_a != mp_b:
        failures.append(f"{design_name}: min_period is not deterministic")
    return failures


def _row(name, sequence, alone, sequence_wall, alone_wall) -> list:
    equal = sum(s == a for s, a in zip(sequence.candidates, alone))
    return [
        name, len(alone), f"{sequence_wall:.3f}", f"{alone_wall:.3f}",
        f"{equal}/{len(alone)}",
    ]


HEADERS = ["design", "cands", "sequence s", "alone s", "equal"]


def test_whatif_parallel_vs_sequential():
    """Candidates scored in sequence equal each candidate scored alone."""
    failures = []
    rows = []
    for name in bench_design_names()[:1]:
        sequence, alone, sequence_wall, alone_wall = run_design(name)
        failures += equivalence_failures(name, sequence, alone)
        rows.append(_row(name, sequence, alone, sequence_wall, alone_wall))
    print_table("what-if: sequence vs each candidate alone", HEADERS, rows)
    assert not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="what-if equivalence: candidates scored in sequence "
                    "vs each scored alone on a fresh engine",
    )
    parser.add_argument(
        "--designs", default="",
        help="comma-separated subset (default: REPRO_BENCH_DESIGNS or all)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 on any sequence/alone divergence or a "
             "non-deterministic min-period search",
    )
    args = parser.parse_args(argv)
    names = (
        [n.strip() for n in args.designs.split(",") if n.strip()]
        or bench_design_names()
    )
    failures: "list[str]" = []
    rows = []
    for name in names:
        sequence, alone, sequence_wall, alone_wall = run_design(name)
        failures += equivalence_failures(name, sequence, alone)
        rows.append(_row(name, sequence, alone, sequence_wall, alone_wall))
    print_table(
        f"what-if: sequence vs each candidate alone over "
        f"{len(names)} design(s)",
        HEADERS, rows,
        note=f"{CANDIDATES_PER_DESIGN} candidates/design; the lone runs "
             f"each build a fresh engine",
    )
    if failures and args.check:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if failures:
        for failure in failures:
            print(f"warn: {failure}", file=sys.stderr)
    else:
        print("what-if sequence-vs-alone equivalence: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
