"""Sparse least-squares formulation of the mGBA fitting problem.

The paper's Eq. (5)-(9) with the correction-form interpretation
documented in DESIGN.md: per-gate weighting ``lambda_j (1 + x_j)``
makes the corrected slack of path i::

    s_mgba,i(x) = s_gba,i - (A x)_i ,   A_ij = d_ij * lambda_j

where ``d_ij`` is the base delay of the arc path i takes through gate j
and ``lambda_j`` the GBA derate.  Matching PBA means ``A x ~ b`` with
``b_i = s_gba,i - s_pba,i <= 0`` (the pessimism, negated), and the
"never more than epsilon optimistic" constraint of Eq. (5) becomes the
one-sided bound ``(A x)_i >= b_i - epsilon |s_pba,i|``, handled by the
quadratic penalty of Eq. (6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.errors import SolverError
from repro.pba.paths import PathContributions, TimingPath
from repro.timing.kernel import segment_entries


@dataclass
class MGBAProblem:
    """One instance of the mGBA quadratic program.

    Attributes
    ----------
    matrix:
        ``m x n`` CSR matrix A (path x gate, entries ``d * lambda``).
    rhs:
        ``b = s_gba - s_pba`` per path (<= 0 entries are pessimism).
    s_gba / s_pba:
        The original slack vectors (for metrics).
    gates:
        Column order: ``gates[j]`` is the gate of column j.
    epsilon:
        Relative optimism tolerance of Eq. (5).
    penalty:
        Quadratic penalty weight w of Eq. (6).
    """

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    s_gba: np.ndarray
    s_pba: np.ndarray
    gates: list[str]
    epsilon: float = 0.05
    penalty: float = 10.0
    _lower: np.ndarray = field(init=False, repr=False)
    _row_nnz: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, n = self.matrix.shape
        if self.rhs.shape != (m,):
            raise SolverError(
                f"rhs shape {self.rhs.shape} does not match m={m}"
            )
        if len(self.gates) != n:
            raise SolverError(
                f"{len(self.gates)} gates do not match n={n} columns"
            )
        self._lower = self.rhs - self.epsilon * np.abs(self.s_pba)
        self._row_nnz = np.diff(self.matrix.indptr).astype(np.int64)

    @property
    def num_paths(self) -> int:
        """m, the number of fitted paths (rows)."""
        return self.matrix.shape[0]

    @property
    def num_gates(self) -> int:
        """n, the number of correction variables (columns)."""
        return self.matrix.shape[1]

    @property
    def gram_multiplies(self) -> int:
        """Multiplies in the sparse product ``A^T A``: the sum over rows
        of ``nnz(row)^2`` (the size ``solver="auto"`` reads)."""
        return int(self._row_nnz @ self._row_nnz)

    @property
    def lower_bound(self) -> np.ndarray:
        """Per-row lower bound on (A x) enforcing the epsilon constraint."""
        return self._lower

    # ------------------------------------------------------------------
    # Objective / gradient (penalty form, Eq. 6)
    # ------------------------------------------------------------------
    def residual(self, x: np.ndarray) -> np.ndarray:
        """A x - b."""
        return self.matrix @ x - self.rhs

    def violation(self, x: np.ndarray) -> np.ndarray:
        """Positive part of (lower - A x): how optimistic each row is."""
        return np.maximum(self._lower - self.matrix @ x, 0.0)

    def objective(self, x: np.ndarray) -> float:
        """Penalized objective f(x) = ||Ax-b||^2 + w * ||violation||^2."""
        ax = self.matrix @ x
        res = ax - self.rhs
        vio = np.maximum(self._lower - ax, 0.0)
        return float(res @ res + self.penalty * (vio @ vio))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the penalized objective."""
        ax = self.matrix @ x
        grad = 2.0 * (self.matrix.T @ (ax - self.rhs))
        vio_mask = ax < self._lower
        if np.any(vio_mask):
            vio = ax[vio_mask] - self._lower[vio_mask]  # negative values
            grad += 2.0 * self.penalty * (
                self.matrix[vio_mask].T @ vio
            )
        return np.asarray(grad).ravel()

    def row_gradient(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Gradient restricted to a row subset (stochastic solvers).

        Scaled by m/len(rows) so it is an unbiased estimate of the full
        gradient under uniform sampling (probability-weighted sampling
        applies its own importance correction upstream).  The one-sample
        case of :meth:`gather_rows` + :meth:`sample_gradient`.
        """
        return self.sample_gradient(x, *self.gather_rows(rows))

    def gather_rows(self, rows: np.ndarray) -> "tuple[np.ndarray, ...]":
        """``(cols, vals, entry_row, rhs, lower)`` of a row sample.

        The x-independent part of :meth:`sample_gradient`: the selected
        rows' entries, gathered via indptr/indices slices (CSR
        fancy-indexing, ``self.matrix[rows]``, would reallocate a
        submatrix), with ``entry_row[e]`` the position in ``rows`` of
        entry ``e``'s row, and the rows' ``rhs`` and lower bounds.
        """
        rows = np.asarray(rows)
        flat, entry_row = segment_entries(
            self.matrix.indptr[rows], self._row_nnz[rows]
        )
        return (
            self.matrix.indices[flat], self.matrix.data[flat], entry_row,
            self.rhs[rows], self._lower[rows],
        )

    def sample_gradient(
        self, x: np.ndarray, cols: np.ndarray, vals: np.ndarray,
        entry_row: np.ndarray, rhs: np.ndarray, lower: np.ndarray,
    ) -> np.ndarray:
        """The gradient over a row sample gathered by :meth:`gather_rows`.

        Sums go through ``np.bincount``, whose weighted loop adds each
        entry into its bin in element order: the same in-order sums as
        ``np.add.at`` and as scipy's sequential matvec loops
        (``np.add.reduceat`` would not match: it sums pairwise), so the
        result is bit-identical to the submatrix formulation (covered by
        the seeded solver tests and ``tests/mgba/test_scg_oracle.py``).
        """
        n_rows = len(rhs)
        # ax = (sub @ x): per-row sequential sum in storage order (rows
        # with no entries stay exactly 0.0).
        ax = np.bincount(entry_row, vals * x[cols], n_rows)
        # grad = 2 (sub^T r): scatter in data order, like csc_matvec.
        residual = ax - rhs
        grad = 2.0 * np.bincount(
            cols, vals * residual[entry_row], self.num_gates
        )
        vio_mask = ax < lower
        if np.count_nonzero(vio_mask):
            keep = vio_mask[entry_row]
            vio = ax - lower
            grad += 2.0 * self.penalty * np.bincount(
                cols[keep], vals[keep] * vio[entry_row[keep]],
                self.num_gates,
            )
        return grad * (self.num_paths / max(n_rows, 1))

    def row_norms_squared(self) -> np.ndarray:
        """||a_i||^2 per row — the Kaczmarz sampling distribution (Eq. 11)."""
        return np.asarray(
            self.matrix.multiply(self.matrix).sum(axis=1)
        ).ravel()

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def corrected_slacks(self, x: np.ndarray) -> np.ndarray:
        """s_mgba(x) = s_gba - A x on the fitted paths."""
        return self.s_gba - self.matrix @ x

    def subproblem(self, rows: np.ndarray) -> "MGBAProblem":
        """The problem restricted to a row subset (Algorithm 1 sampling)."""
        rows = np.asarray(rows)
        return MGBAProblem(
            matrix=self.matrix[rows].tocsr(),
            rhs=self.rhs[rows],
            s_gba=self.s_gba[rows],
            s_pba=self.s_pba[rows],
            gates=self.gates,
            epsilon=self.epsilon,
            penalty=self.penalty,
        )


def build_problem(
    paths: "list[TimingPath]",
    epsilon: float = 0.05,
    penalty: float = 10.0,
) -> MGBAProblem:
    """Assemble the sparse system from analyzed paths.

    Every path must have been through
    :meth:`repro.pba.engine.PBAEngine.analyze` (it needs
    ``contributions`` and both slacks).  Columns are created for every
    gate that appears on at least one fitted path, in first-seen order
    (deterministic given the path list).  Paths analyzed as one batch
    are read from the batch's arrays; hand-built contributions lists
    take the same assembly.
    """
    if not paths:
        raise SolverError("cannot build an mGBA problem from zero paths")
    for path in paths:
        if not path.analyzed and not path.contributions:
            raise SolverError(
                f"path to {path.endpoint_name} is unanalyzed; "
                "run PBAEngine.analyze first"
            )
    m = len(paths)
    s_gba = np.fromiter((p.gba_slack for p in paths), np.float64, count=m)
    s_pba = np.fromiter((p.pba_slack for p in paths), np.float64, count=m)
    counts, codes, names, delays, derates = _contribution_arrays(paths)
    # Columns in first-seen order of the entries (row-major).
    unique, first, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(unique), dtype=np.int64)
    rank[order] = np.arange(len(unique), dtype=np.int64)
    gates = [names[code] for code in unique[order].tolist()]
    matrix = sparse.coo_matrix(
        (delays * derates, (np.repeat(np.arange(m), counts), rank[inverse])),
        shape=(m, len(gates)),
    ).tocsr()
    matrix.sum_duplicates()
    return MGBAProblem(
        matrix=matrix,
        rhs=s_gba - s_pba,
        s_gba=s_gba,
        s_pba=s_pba,
        gates=gates,
        epsilon=epsilon,
        penalty=penalty,
    )


def _contribution_arrays(paths: "list[TimingPath]"):
    """``(counts, codes, names, delays, derates)`` of the paths' rows.

    ``counts[i]`` entries per path, each a gate code (indexing
    ``names``), a base delay and a GBA derate, in path order.
    """
    views = [p.contributions for p in paths]
    batch = getattr(views[0], "batch", None)
    if batch is not None and all(
        type(v) is PathContributions and v.batch is batch for v in views
    ):
        rows = np.fromiter((v.row for v in views), np.int64, count=len(views))
        counts, codes, delays, derates = batch.entries(rows)
        return counts, codes, batch.gates, delays, derates
    code_of: "dict[str, int]" = {}
    counts = np.zeros(len(views), dtype=np.int64)
    codes: "list[int]" = []
    delays: "list[float]" = []
    derates: "list[float]" = []
    for i, rows_of_path in enumerate(views):
        for gate, base_delay, gba_derate in rows_of_path:
            codes.append(code_of.setdefault(gate, len(code_of)))
            delays.append(base_delay)
            derates.append(gba_derate)
        counts[i] = len(rows_of_path)
    return (
        counts, np.asarray(codes, dtype=np.int64), list(code_of),
        np.asarray(delays, dtype=np.float64),
        np.asarray(derates, dtype=np.float64),
    )
