"""Sparsity-structure heuristics for the factor subspaces.

Two constructions produce the pattern of the W subspace: truncated
sparsified powers of S = V0^{-1}(I - P_{V0})A, and the structural row-union
driven by an initial subspace V0.  Given W, the pattern of the V subspace
is then selected greedily per column by scoring admissible positions with
the norms of the corresponding columns of Q_j^T.

Columnwise loops are independent; inputs are read-only and outputs are
assembled by column index, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import pad_tall, qr_householder, rank_by_qt_norm
from .krylov import SingularBlockError, factor_v
from .sparse import (
    SparseMatrix,
    SparseVector,
    SubspacePattern,
    extract_columns,
    gather_columns,
    merge_sum,
    pattern_subtract_offdiag,
    sorted_lookup,
)

__all__ = [
    "DropRule",
    "NeumannConfig",
    "numerical_drop",
    "neumann_pattern",
    "adjoint_pattern",
    "select_v_pattern",
]


@dataclass(frozen=True)
class DropRule:
    """Numerical dropping by relative tolerance and by count.

    Entries below ``tau`` times the largest magnitude are dropped, and at
    most ``p`` entries are retained.  A zero parameter means that rule is
    not used.
    """

    tau: float = 0.0
    p: int = 0

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if self.p < 0:
            raise ValueError("p must be nonnegative")

    @property
    def unused(self):
        return self.tau == 0.0 and self.p == 0


@dataclass(frozen=True)
class NeumannConfig:
    """Truncation depth and drop rules for the sparsified-powers pattern."""

    k: int = 3
    initial_drop: DropRule = field(default_factory=lambda: DropRule(0.1, 0))
    level_drop: DropRule = field(default_factory=DropRule)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("truncation depth must be nonnegative")


def numerical_drop(v, rule, protect=None):
    """Apply a :class:`DropRule` to a sparse vector.

    The protected index (the diagonal, in the pattern constructions) is
    kept regardless of the rule whenever it is present in the input.
    """
    if v.nnz == 0 or rule.unused:
        return v
    mag = np.abs(v.val)
    keep = np.ones(v.nnz, dtype=bool)
    if rule.tau > 0.0:
        keep = mag >= rule.tau * mag.max()
    if rule.p > 0 and keep.sum() > rule.p:
        cand = np.nonzero(keep)[0]
        ranked = cand[np.lexsort((v.idx[cand], -mag[cand]))]
        keep = np.zeros(v.nnz, dtype=bool)
        keep[ranked[: rule.p]] = True
    if protect is not None:
        pos, found = sorted_lookup(v.idx, protect)
        if found:
            keep[pos] = True
    return SparseVector(v.n, v.idx[keep], v.val[keep])


def _project_to_pattern(a, pattern):
    """Entries of ``a`` inside ``pattern``, as a sparse matrix."""
    cols = []
    for j in range(a.n_cols):
        idx, val = a.column(j)
        _, inside = sorted_lookup(pattern.cols[j], idx)
        cols.append((idx[inside], val[inside]))
    return SparseMatrix.from_columns(a.n_rows, cols)


class _V0Solver:
    """Solves with V0 = P_{V0}A.

    A diagonal V0 divides by its diagonal.  Any other V0 is factored by
    :func:`factor_v` under the given blocks and shape, and each sparse
    right-hand side goes through the block back-substitution of
    :meth:`VFactorization.solve`, which solves only the blocks it reaches.
    """

    def __init__(self, a, v0_pattern, blocks, v0_shape):
        n = a.n_cols
        for j in range(n):
            if not sorted_lookup(v0_pattern.cols[j], j)[1]:
                raise ValueError(f"V0 pattern must contain the diagonal (column {j})")
        v0 = _project_to_pattern(a, v0_pattern)
        diag_only = all(len(c) == 1 for c in v0_pattern.cols)
        if diag_only:
            d = v0.diagonal()
            bad = np.nonzero(d == 0.0)[0]
            if len(bad):
                raise SingularBlockError(int(bad[0]))
            self._diag = d
            self._vf = None
            return
        self._diag = None
        if blocks is None:
            raise ValueError("a non-diagonal V0 pattern needs its blocks")
        self._vf = factor_v(v0, blocks, v0_shape)

    def solve_sparse(self, n, idx, val):
        """Solve V0 z = c for a sparse right-hand side; returns sorted (idx, val)."""
        if len(idx) == 0:
            return idx, val
        if self._diag is not None:
            return idx, val / self._diag[idx]
        dense = np.zeros(n)
        dense[idx] = val
        z = self._vf.solve(dense)
        nz = np.nonzero(z)[0]
        return nz, z[nz]


def neumann_pattern(a, v0_pattern, cfg, blocks=None, v0_shape="block-diagonal"):
    """Pattern of W from sparsified truncated powers of S = V0^{-1}(I - P_{V0})A.

    Per column j the vector t is repeatedly multiplied by S (``cfg.k``
    times), dropped with the level rule after each product and accumulated
    onto s starting from e_j; the support of s becomes the column's allowed
    set.  The columns of S itself are sparsified once with the initial rule
    beforehand.  Finally the off-diagonal part of the V0 pattern is removed
    so the two subspaces only share the diagonal.

    ``blocks``/``v0_shape`` give the block shape V0 is factored under;
    ``blocks`` may be omitted only for a diagonal V0 pattern, and any
    other pattern without them raises ``ValueError``.
    """
    n = a.n_cols
    if a.n_rows != n or v0_pattern.n != n:
        raise ValueError("square matrix and matching pattern required")
    solver = _V0Solver(a, v0_pattern, blocks, v0_shape)

    s_cols = []
    for j in range(n):
        idx, val = a.column(j)
        _, inside = sorted_lookup(v0_pattern.cols[j], idx)
        si, sv = solver.solve_sparse(n, idx[~inside], val[~inside])
        dropped = numerical_drop(SparseVector(n, si, sv), cfg.initial_drop, protect=j)
        s_cols.append((dropped.idx, dropped.val))
    s = SparseMatrix.from_columns(n, s_cols)

    cols = []
    for j in range(n):
        acc_i = np.array([j], dtype=np.int64)
        acc_v = np.array([1.0])
        t_i, t_v = acc_i, acc_v
        for _ in range(cfg.k):
            t_i, t_v = gather_columns(s, t_i, t_v)
            t = numerical_drop(SparseVector(n, t_i, t_v), cfg.level_drop, protect=j)
            t_i, t_v = t.idx, t.val
            if len(t_i) == 0:
                break
            acc_i, acc_v = merge_sum(
                np.concatenate([acc_i, t_i]), np.concatenate([acc_v, t_v])
            )
        cols.append(acc_i if len(acc_i) else np.array([j], dtype=np.int64))
    return pattern_subtract_offdiag(SubspacePattern(n, cols), v0_pattern)


def adjoint_pattern(a, v0_pattern, rule=DropRule()):
    """Pattern of W as the structure of A^T applied to the V0 pattern.

    Column j allows exactly the union of the row structures of A indexed by
    the V0 pattern of column j (plus the diagonal).  Row magnitudes summed
    through |A^T| stand in for the random-probe values when the rule asks
    for sparsification, keeping the construction deterministic.
    """
    n = a.n_cols
    if a.n_rows != n or v0_pattern.n != n:
        raise ValueError("square matrix and matching pattern required")
    at = a.transpose()
    cols = []
    for j in range(n):
        # |A^T| applied to the column indicator: positive wherever any of
        # the selected rows of A has an entry, so nothing can cancel away
        parts_i = [at.column(r)[0] for r in v0_pattern.cols[j]]
        parts_v = [np.abs(at.column(r)[1]) for r in v0_pattern.cols[j]]
        wi, wmag = merge_sum(np.concatenate(parts_i), np.concatenate(parts_v))
        if not rule.unused:
            probe = numerical_drop(SparseVector(n, wi, wmag), rule, protect=j)
            wi = probe.idx
        cols.append(np.union1d(wi, [j]))
    return SubspacePattern(n, cols)


def select_v_pattern(a, w_pattern, v_candidate, k_v):
    """Choose the V pattern greedily from admissible candidate positions.

    Per column j the columns of A allowed by ``w_pattern`` are extracted
    and factored; each admissible position scores the Euclidean norm of the
    corresponding column of Q_j^T (zero outside the active rows).  The
    ``k_v`` best positions are kept, the diagonal always included, with
    ties resolved toward smaller indices so selections nest as ``k_v``
    grows.
    """
    n = a.n_cols
    if a.n_rows != n or w_pattern.n != n or v_candidate.n != n:
        raise ValueError("square matrix and matching patterns required")
    if k_v < 1:
        raise ValueError("k_v must be at least 1")
    cols = []
    for j in range(n):
        cand = v_candidate.cols[j]
        if len(cand) <= k_v:
            chosen = cand
        else:
            sub = extract_columns(a, w_pattern.cols[j])
            q = qr_householder(pad_tall(sub.dense_block)).q_thin
            chosen = cand[rank_by_qt_norm(q, sub.active_rows, cand)[:k_v]]
        cols.append(np.union1d(chosen, [j]))
    return SubspacePattern(n, cols)
