"""Path records shared by the PBA engine and the mGBA problem builder.

:class:`PathSet` holds many paths as CSR arrays — what the batch
analysis in :class:`~repro.pba.engine.PBAEngine` reads — and
:class:`PathBatch` holds that analysis, one entry per path, with each
path's data cells as a CSR row: what the matrix build in
:func:`~repro.mgba.problem.build_problem` reads.  :class:`TimingPath` is
the per-path record the API, explain and reports use; the batch fills
it, and its ``contributions`` then view the batch's arrays instead of
holding a list of their own.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.timing.kernel import segment_entries


@dataclass
class TimingPath:
    """One launch-to-endpoint data path.

    Structure (filled by enumeration)
    ---------------------------------
    endpoint / launch:
        Timing-node ids of the capture pin and the launch pin (a flop Q
        output or an input port).
    edges:
        Edge ids from launch to endpoint, in path order.
    endpoint_name / launch_name:
        Printable pin names.

    Analysis (filled by :class:`~repro.pba.engine.PBAEngine`)
    ---------------------------------------------------------
    gba_slack / pba_slack:
        Slack of this path under graph-based and path-based derating.
        ``gba_slack <= pba_slack`` always (property-tested).
    depth:
        PBA cell depth (number of combinational data cells on the path).
    distance:
        AOCV bounding-box half-perimeter of the path (nm).
    crpr_credit:
        Exact launch/capture common-clock-path credit (PBA only).
    contributions:
        ``(gate, base_delay, gba_derate)`` per data cell, in path order —
        the raw material of one row of the mGBA matrix ``A``.  After a
        batch analysis this is a :class:`PathContributions` view of the
        batch's arrays; hand-built records may hold a plain list.
    """

    endpoint: int
    launch: int
    edges: tuple[int, ...]
    endpoint_name: str = ""
    launch_name: str = ""
    analyzed: bool = False
    is_false: bool = False
    gba_arrival: float = 0.0
    gba_slack: float = 0.0
    pba_slack: float = 0.0
    depth: int = 0
    distance: float = 0.0
    crpr_credit: float = 0.0
    contributions: "Sequence[tuple[str, float, float]]" = field(
        default_factory=list
    )

    @property
    def pessimism(self) -> float:
        """GBA pessimism on this path: ``pba_slack - gba_slack`` (>= 0)."""
        return self.pba_slack - self.gba_slack

    def gates(self) -> list[str]:
        """Data cells on the path, in path order."""
        return [gate for gate, _, _ in self.contributions]

    def key(self) -> tuple[int, tuple[int, ...]]:
        """Hashable identity of the path (endpoint + edge sequence)."""
        return (self.endpoint, self.edges)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class PathSet:
    """Paths as CSR arrays: path ``i`` runs through
    ``edge_ids[path_ptr[i]:path_ptr[i + 1]]``, launch to endpoint."""

    path_ptr: np.ndarray   # int64, len m + 1
    edge_ids: np.ndarray   # int64
    launch: np.ndarray     # int64 node ids, len m
    endpoint: np.ndarray   # int64 node ids, len m

    @classmethod
    def from_paths(cls, paths: "Sequence[TimingPath]") -> "PathSet":
        """The CSR form of path records, in record order."""
        lengths = np.fromiter(
            (len(p.edges) for p in paths), dtype=np.int64, count=len(paths)
        )
        path_ptr = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=path_ptr[1:])
        edge_ids = np.fromiter(
            itertools.chain.from_iterable(p.edges for p in paths),
            dtype=np.int64, count=int(path_ptr[-1]),
        )
        return cls(
            path_ptr=path_ptr,
            edge_ids=edge_ids,
            launch=np.fromiter((p.launch for p in paths), dtype=np.int64,
                               count=len(paths)),
            endpoint=np.fromiter((p.endpoint for p in paths), dtype=np.int64,
                                 count=len(paths)),
        )

    def __len__(self) -> int:
        return len(self.launch)

    def lengths(self) -> np.ndarray:
        """Edge count per path."""
        return np.diff(self.path_ptr)

    def row_of_edge(self) -> np.ndarray:
        """The path index of every ``edge_ids`` entry."""
        return np.repeat(np.arange(len(self)), self.lengths())

    def nodes(self, edge_dst: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(node_ptr, node_ids)``: each path's launch, then the
        destination of each edge (``edge_dst`` is id-indexed)."""
        node_ptr = self.path_ptr + np.arange(len(self) + 1)
        node_ids = np.insert(
            edge_dst[self.edge_ids], self.path_ptr[:-1], self.launch
        )
        return node_ptr, node_ids


def row_sums(path_ptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-path sums ``0.0 + v_0 + v_1 + ...``, left to right.

    The order of the per-path loop ``total += value``: one column of the
    path axis at a time, so every path adds its values in path order.
    (``np.add.reduceat`` sums pairwise and would not be bit-identical.)
    Paths run longest first, so the paths still adding at column ``c``
    are a prefix.
    """
    lengths = np.diff(path_ptr)
    order = np.argsort(-lengths, kind="stable")
    starts = path_ptr[:-1][order]
    # alive[c]: how many paths are longer than c (a prefix of `order`).
    alive = len(lengths) - np.cumsum(np.bincount(lengths))
    totals = np.zeros(len(lengths))
    for column, count in enumerate(alive[:-1].tolist()):
        totals[:count] += values[starts[:count] + column]
    out = np.empty_like(totals)
    out[order] = totals
    return out


@dataclass(frozen=True, eq=False)
class PathBatch:
    """The analysis of one :class:`PathSet`, one array entry per path.

    The data-cell arcs of path ``i`` are entries
    ``data_ptr[i]:data_ptr[i + 1]`` of ``data_gate`` (an index into
    ``gates``), ``data_delay`` (the GBA base delay) and ``data_derate``
    (the GBA late derate) — a row of the mGBA matrix.  :meth:`entries`
    is the one reader of that layout.
    """

    gba_arrival: np.ndarray
    gba_slack: np.ndarray
    pba_slack: np.ndarray
    depth: np.ndarray
    distance: np.ndarray
    crpr_credit: np.ndarray
    is_false: np.ndarray
    data_ptr: np.ndarray
    data_gate: np.ndarray
    data_delay: np.ndarray
    data_derate: np.ndarray
    gates: "tuple[str, ...]"

    def entries(self, rows: np.ndarray) \
            -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """``(counts, codes, delays, derates)`` of the given paths.

        ``counts[i]`` data cells belong to ``rows[i]``; the others hold
        one entry per cell, row after row in path order, with ``codes``
        indexing ``gates``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.data_ptr[rows]
        counts = self.data_ptr[rows + 1] - starts
        flat, _ = segment_entries(starts, counts)
        return (
            counts, self.data_gate[flat], self.data_delay[flat],
            self.data_derate[flat],
        )

    def fill(self, records: "list[TimingPath]") -> None:
        """Write row ``i`` into ``records[i]`` (the set's own order)."""
        columns = zip(
            records,
            self.gba_arrival.tolist(), self.gba_slack.tolist(),
            self.pba_slack.tolist(), self.depth.tolist(),
            self.distance.tolist(), self.crpr_credit.tolist(),
            self.is_false.tolist(),
        )
        for row, (path, arrival, gba, pba, depth, distance, credit,
                  false) in enumerate(columns):
            path.gba_arrival = arrival
            path.gba_slack = gba
            path.pba_slack = pba
            path.depth = depth
            path.distance = distance
            path.crpr_credit = credit
            path.is_false = false
            path.contributions = PathContributions(self, row)
            path.analyzed = True


class PathContributions(Sequence):
    """One analyzed path's ``(gate, base_delay, gba_derate)`` rows.

    A read-only view of row ``row`` of a :class:`PathBatch`, so the
    batch builds no per-path list.  Compares equal to the list it
    stands for.
    """

    __slots__ = ("batch", "row")

    def __init__(self, batch: PathBatch, row: int):
        self.batch = batch
        self.row = row

    def _rows(self) -> "list[tuple[str, float, float]]":
        _, codes, delays, derates = self.batch.entries([self.row])
        gates = self.batch.gates
        return [
            (gates[code], delay, derate)
            for code, delay, derate in zip(
                codes.tolist(), delays.tolist(), derates.tolist()
            )
        ]

    def __len__(self) -> int:
        ptr = self.batch.data_ptr
        return int(ptr[self.row + 1] - ptr[self.row])

    def __getitem__(self, index):
        return self._rows()[index]

    def __iter__(self):
        return iter(self._rows())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, PathContributions)):
            return self._rows() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._rows())
