"""Two-dimensional lookup tables with bilinear interpolation.

NLDM characterizes each timing arc by a table of values over
(input slew, output load).  Queries between grid points are bilinearly
interpolated; queries outside the characterized window are clamped to
the nearest edge, which is the conservative choice industrial tools
default to when extrapolation is disabled.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import LibertyError


def _as_axis(values, name: str) -> "tuple[np.ndarray, list]":
    """The axis as an array and as its plain-list mirror, checked.

    The check runs on the list: a float compare per pair is cheaper
    than ``np.diff`` on these tiny axes, and ``a < b`` is false for NaN
    just as ``b - a > 0`` is.
    """
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise LibertyError(f"{name} axis must be a non-empty 1-D sequence")
    points = axis.tolist()
    for a, b in zip(points, points[1:]):
        if not a < b:
            raise LibertyError(
                f"{name} axis must be strictly increasing: {points}"
            )
    return axis, points


def _bilinear(u, t, v00, v01, v10, v11):
    """The bilinear blend of one grid cell's corners at weights (u, t).

    The one expression tree every batched lookup evaluates; it is the
    scalar :meth:`LookupTable2D.lookup`'s, operation for operation.
    """
    return (1 - u) * ((1 - t) * v00 + t * v01) + u * ((1 - t) * v10 + t * v11)


@dataclass(frozen=True)
class LookupTable2D:
    """A value grid over (row axis = input slew, column axis = load).

    Parameters
    ----------
    rows:
        Strictly increasing input-slew breakpoints (ps).
    cols:
        Strictly increasing output-load breakpoints (fF).
    values:
        ``len(rows) x len(cols)`` grid of table values (ps).
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    # Plain-Python mirrors: lookup() runs millions of times per closure
    # run, and scalar numpy indexing/clipping costs ~10x a float
    # compare + bisect on these tiny (<=8 entry) axes.
    _rows_list: list = field(init=False, repr=False)
    _cols_list: list = field(init=False, repr=False)
    _values_list: list = field(init=False, repr=False)

    def __post_init__(self):
        rows, rows_list = _as_axis(self.rows, "row")
        cols, cols_list = _as_axis(self.cols, "column")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (rows.size, cols.size):
            raise LibertyError(
                f"table shape {values.shape} does not match axes "
                f"({rows.size}, {cols.size})"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_rows_list", rows_list)
        object.__setattr__(self, "_cols_list", cols_list)
        object.__setattr__(self, "_values_list", values.tolist())

    @classmethod
    def constant(cls, value: float) -> "LookupTable2D":
        """A 1x1 table returning ``value`` for every query."""
        return cls(np.array([0.0]), np.array([0.0]), np.array([[value]]))

    def lookup(self, slew: float, load: float) -> float:
        """Bilinearly interpolate the table at (slew, load), clamped."""
        rows = self._rows_list
        cols = self._cols_list
        values = self._values_list
        n_rows = len(rows)
        n_cols = len(cols)
        r = rows[0] if slew < rows[0] else (
            rows[-1] if slew > rows[-1] else slew
        )
        c = cols[0] if load < cols[0] else (
            cols[-1] if load > cols[-1] else load
        )
        if n_rows == 1 and n_cols == 1:
            return values[0][0]
        if n_rows == 1:
            j = bisect_right(cols, c) - 1
            j = 0 if j < 0 else (n_cols - 2 if j > n_cols - 2 else j)
            t = (c - cols[j]) / (cols[j + 1] - cols[j])
            row0 = values[0]
            return (1 - t) * row0[j] + t * row0[j + 1]
        if n_cols == 1:
            i = bisect_right(rows, r) - 1
            i = 0 if i < 0 else (n_rows - 2 if i > n_rows - 2 else i)
            u = (r - rows[i]) / (rows[i + 1] - rows[i])
            return (1 - u) * values[i][0] + u * values[i + 1][0]
        i = bisect_right(rows, r) - 1
        i = 0 if i < 0 else (n_rows - 2 if i > n_rows - 2 else i)
        j = bisect_right(cols, c) - 1
        j = 0 if j < 0 else (n_cols - 2 if j > n_cols - 2 else j)
        u = (r - rows[i]) / (rows[i + 1] - rows[i])
        t = (c - cols[j]) / (cols[j + 1] - cols[j])
        row_i = values[i]
        row_i1 = values[i + 1]
        return (
            (1 - u) * ((1 - t) * row_i[j] + t * row_i[j + 1])
            + u * ((1 - t) * row_i1[j] + t * row_i1[j + 1])
        )

    def _grid_coords(self, slews, loads):
        """Clamped query points and cell indices for a batched lookup.

        ``np.minimum(np.maximum(...))`` and the bound ``searchsorted``
        method compute exactly what ``np.clip``/``np.searchsorted``
        would, without the wrapper dispatch that dominates small-batch
        lookups (the vector kernel issues one batch per level x table).
        """
        rows = self.rows
        cols = self.cols
        r = np.minimum(
            np.maximum(np.asarray(slews, dtype=float), rows[0]), rows[-1]
        )
        c = np.minimum(
            np.maximum(np.asarray(loads, dtype=float), cols[0]), cols[-1]
        )
        i = np.minimum(
            np.maximum(rows.searchsorted(r, side="right") - 1, 0),
            max(rows.size - 2, 0),
        )
        j = np.minimum(
            np.maximum(cols.searchsorted(c, side="right") - 1, 0),
            max(cols.size - 2, 0),
        )
        return r, c, i, j

    def lookup_many(self, slews, loads) -> np.ndarray:
        """Vectorized :meth:`lookup` over equal-length arrays."""
        if self.rows.size == 1 and self.cols.size == 1:
            r = np.asarray(slews, dtype=float)
            return np.full(r.shape, self.values[0, 0])
        r, c, i, j = self._grid_coords(slews, loads)
        return self._interpolate_at(r, c, i, j)

    def _interpolate_at(self, r, c, i, j) -> np.ndarray:
        """Bilinear interpolation at precomputed grid coordinates.

        The expression tree is the same as :meth:`lookup_many`'s, so a
        caller that shares (r, c, i, j) between two tables with equal
        axes gets bit-identical values at half the coordinate cost.
        """
        if self.rows.size == 1:
            t = (c - self.cols[j]) / (self.cols[j + 1] - self.cols[j])
            return (1 - t) * self.values[0, j] + t * self.values[0, j + 1]
        if self.cols.size == 1:
            u = (r - self.rows[i]) / (self.rows[i + 1] - self.rows[i])
            return (1 - u) * self.values[i, 0] + u * self.values[i + 1, 0]
        u = (r - self.rows[i]) / (self.rows[i + 1] - self.rows[i])
        t = (c - self.cols[j]) / (self.cols[j + 1] - self.cols[j])
        return _bilinear(
            u, t, self.values[i, j], self.values[i, j + 1],
            self.values[i + 1, j], self.values[i + 1, j + 1],
        )

    def scaled(self, factor: float) -> "LookupTable2D":
        """Return a copy with every value multiplied by ``factor``."""
        return LookupTable2D(self.rows.copy(), self.cols.copy(), self.values * factor)

    def min_value(self) -> float:
        """Smallest value in the grid."""
        return float(self.values.min())

    def max_value(self) -> float:
        """Largest value in the grid."""
        return float(self.values.max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LookupTable2D):
            return NotImplemented
        return (
            np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.allclose(self.values, other.values)
        )

    def __hash__(self):  # frozen dataclass with arrays: identity hash
        return id(self)


def _same_axes(a: LookupTable2D, b: LookupTable2D) -> bool:
    """True when two tables index their grids by identical breakpoints."""
    rows_equal = a.rows is b.rows or (
        a.rows.size == b.rows.size and bool((a.rows == b.rows).all())
    )
    if not rows_equal:
        return False
    return a.cols is b.cols or (
        a.cols.size == b.cols.size and bool((a.cols == b.cols).all())
    )


def lookup_pair_many(
    first: LookupTable2D, second: LookupTable2D, slews, loads,
) -> "tuple[np.ndarray, np.ndarray]":
    """Batched lookups of two tables at the same (slew, load) points.

    An arc's delay and output-slew grids are characterized over the same
    breakpoints, so the clamp / cell-index / interpolation-weight work
    can be shared; the returned values are bit-identical to two
    :meth:`LookupTable2D.lookup_many` calls because both paths evaluate
    the same expression trees.  Tables with differing axes (or the 1x1
    constant special case) fall back to independent lookups.
    """
    if (
        not (first.rows.size == 1 and first.cols.size == 1)
        and _same_axes(first, second)
    ):
        r, c, i, j = first._grid_coords(slews, loads)
        return first._interpolate_at(r, c, i, j), second._interpolate_at(
            r, c, i, j
        )
    return first.lookup_many(slews, loads), second.lookup_many(slews, loads)


class TableStack:
    """(delay, output-slew) table pairs on one axis pair, stacked.

    A batch of arcs whose tables share the stack's breakpoints (at
    least two on each axis) is looked up with one clamp, one cell-index
    search and one interpolation-weight computation, whichever pair
    each arc uses.  The pairs' value grids are stacked and stored per
    grid cell: ``_cells[(pair * rows_cells + i) * cols_cells + j]``
    holds the delay and slew values at the cell's four corners, so one
    gather fetches all eight.  Each value then evaluates
    :func:`_bilinear` on the operands :meth:`LookupTable2D.lookup_many`
    uses, so the results are bit-identical to it.
    """

    def __init__(self, pairs: "list[tuple[LookupTable2D, LookupTable2D]]"):
        rows, cols = pairs[0][0].rows, pairs[0][0].cols
        self.rows = rows
        self.cols = cols
        # Searching the inner breakpoints of a clamped query gives the
        # clamped cell index ``min(max(searchsorted - 1, 0), n - 2)``.
        self._rows_inner = rows[1:-1]
        self._cols_inner = cols[1:-1]
        self._rows_step = rows[1:] - rows[:-1]
        self._cols_step = cols[1:] - cols[:-1]
        #: Grid cells per pair: the offset of pair p is p * pair_cells.
        self.pair_cells = (rows.size - 1) * (cols.size - 1)
        self._cols_cells = cols.size - 1
        delay = np.stack([first.values for first, _ in pairs])
        slew = np.stack([second.values for _, second in pairs])
        corners = np.stack([
            delay[:, :-1, :-1], slew[:, :-1, :-1],
            delay[:, :-1, 1:], slew[:, :-1, 1:],
            delay[:, 1:, :-1], slew[:, 1:, :-1],
            delay[:, 1:, 1:], slew[:, 1:, 1:],
        ], axis=-1)
        self._cells = corners.reshape(-1, 4, 2)

    @staticmethod
    def fits(first: LookupTable2D, second: LookupTable2D) -> bool:
        """Whether a pair can be stacked: shared axes, no 1-point axis.

        Compares the axes' list mirrors: per pair, a list compare is
        cheaper than numpy's on these tiny axes.
        """
        rows, cols = first._rows_list, first._cols_list
        return (
            len(rows) > 1 and len(cols) > 1
            and rows == second._rows_list and cols == second._cols_list
        )

    def lookup(self, offsets, slews, loads):
        """(delays, slews) of pairs ``offsets // pair_cells`` at (slew, load).

        ``slews`` is ``(k,)`` or ``(k, S)``, ``loads`` ``(k,)`` or
        ``(k, 1)``, and ``offsets`` ``(k,)``: the usual broadcast.
        """
        rows = self.rows
        cols = self.cols
        r = np.minimum(np.maximum(slews, rows[0]), rows[-1])
        c = np.minimum(np.maximum(loads, cols[0]), cols[-1])
        i = self._rows_inner.searchsorted(r, side="right")
        j = self._cols_inner.searchsorted(c, side="right")
        u = (r - rows[i]) / self._rows_step[i]
        t = (c - cols[j]) / self._cols_step[j]
        if r.ndim > offsets.ndim:
            offsets = offsets[:, None]
        v = self._cells[offsets + i * self._cols_cells + j]
        values = _bilinear(
            u[..., None], t[..., None],
            v[..., 0, :], v[..., 1, :], v[..., 2, :], v[..., 3, :],
        )
        return values[..., 0], values[..., 1]


class ArcTables:
    """The (delay, output-slew) tables of a batch of arcs, by axes.

    ``segments`` cover the batch in order as ``(start, stop, tables,
    offsets)``: arcs ``start:stop`` use a :class:`TableStack` at
    ``offsets``, or one table pair that cannot be stacked, looked up by
    :func:`lookup_pair_many`.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: "list[tuple[int, int, Any, Any]]"):
        self.segments = segments

    def lookup(self, slews, loads) -> "tuple[np.ndarray, np.ndarray]":
        """(delays, output slews) of every arc of the batch."""
        if len(self.segments) == 1:
            return _segment_lookup(self.segments[0], slews, loads)
        shape = np.broadcast_shapes(slews.shape, loads.shape)
        delays = np.empty(shape)
        out_slews = np.empty(shape)
        for segment in self.segments:
            start, stop = segment[0], segment[1]
            delays[start:stop], out_slews[start:stop] = _segment_lookup(
                segment, slews[start:stop], loads[start:stop]
            )
        return delays, out_slews


def _segment_lookup(segment, slews, loads):
    _, _, tables, offsets = segment
    if isinstance(tables, TableStack):
        return tables.lookup(offsets, slews, loads)
    return lookup_pair_many(tables[0], tables[1], slews, loads)


def group_table_pairs(
    pairs: "list[tuple[LookupTable2D, LookupTable2D]]",
) -> "tuple[list[Any], np.ndarray, np.ndarray]":
    """Group table pairs by axes: ``(tables, group, offset)``.

    ``tables[group[p]]`` serves pair ``p``: a :class:`TableStack` of
    every stackable pair with its axes (``offset[p]`` its offset there),
    or, for a pair :meth:`TableStack.fits` rejects, the pair itself
    (``offset[p]`` is -1).
    """
    by_axes: "dict[tuple, list[int]]" = {}
    tables: "list[Any]" = []
    group = np.empty(len(pairs), dtype=np.int64)
    offset = np.full(len(pairs), -1, dtype=np.int64)
    for p, (first, second) in enumerate(pairs):
        if TableStack.fits(first, second):
            key = (tuple(first._rows_list), tuple(first._cols_list))
            by_axes.setdefault(key, []).append(p)
        else:
            group[p] = len(tables)
            tables.append((first, second))
    for members in by_axes.values():
        stack = TableStack([pairs[p] for p in members])
        group[members] = len(tables)
        offset[members] = np.arange(len(members)) * stack.pair_cells
        tables.append(stack)
    return tables, group, offset


def batch_tables(
    tables: "list[Any]", group: np.ndarray, offset: np.ndarray,
    bounds: np.ndarray,
) -> "list[ArcTables | None]":
    """The :class:`ArcTables` of each batch ``bounds[b]:bounds[b + 1]``.

    ``group`` and ``offset`` are per arc, as :func:`group_table_pairs`
    returns them per pair, with each batch's arcs sorted by group; an
    empty batch gets None.
    """
    # Segments run between batch starts and group changes; each lies
    # in one batch.
    cuts = np.union1d(bounds, np.flatnonzero(np.diff(group)) + 1)
    starts = cuts[:-1]
    segments: "list[list[tuple]]" = [[] for _ in range(len(bounds) - 1)]
    for lo, hi, b, g in zip(
        starts.tolist(), cuts[1:].tolist(),
        (bounds.searchsorted(starts, side="right") - 1).tolist(),
        group[starts].tolist(),
    ):
        base = int(bounds[b])
        segments[b].append((lo - base, hi - base, tables[g], offset[lo:hi]))
    return [ArcTables(batch) if batch else None for batch in segments]
