"""Sparsity-structure heuristics for the factor subspaces.

Two constructions produce the pattern of the W subspace: truncated
sparsified powers of S = V0^{-1}(I - P_{V0})A, and the structural row-union
driven by an initial subspace V0.  Given W, the pattern of the V subspace
is then selected greedily per column by scoring admissible positions with
the norms of the corresponding columns of Q_j^T.

Both W constructions run as index passes over whole sparse matrices,
summing in the order a per-column loop would.  The V0 solves of S take a
dense batch of columns through one walk of
:meth:`~diafact.krylov.VFactorization.solve` each, and a column's
solution does not depend on its batch.  The V selection reads the blocks
A_j from the chunked column sweep of
:func:`~diafact.sparse.column_chunks`, in width order like the factor
sweeps.  A chunk holds only the candidates on its blocks' active rows,
plus the diagonal: no other position can score above zero or carry a
value of V.  The selection factors one block per call, takes the scores
stacked over the columns of one width and ranks each chunk's positions
per column.  Inputs are read-only, so results are deterministic, and
they do not depend on the order of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import qr_householder
from .krylov import SingularBlockError, factor_v
from .sparse import (
    SparseMatrix,
    SparseVector,
    SubspacePattern,
    column_chunks,
    merge_sum,
    pattern_subtract_offdiag,
    sparse_product,
    width_order,
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


def _top_per_column(col, idx, score, p):
    """Positions of the at most ``p`` largest-``score`` entries of each
    column ``col`` groups, with ties to the smaller ``idx``."""
    order = np.lexsort((idx, -score, col))
    c = col[order]
    return order[np.arange(len(order)) - np.searchsorted(c, c) < p]


def _drop_mask(col, idx, val, rule, protect):
    """Entries of column segments that a :class:`DropRule` keeps.

    ``col`` is nondecreasing and groups the entries into columns, ``idx``
    holds their indices.  Per column, entries below ``tau`` times the
    column's largest magnitude go, and of the rest at most ``p`` stay,
    ranked by magnitude with ties to the smaller index.  An entry whose
    index equals ``protect`` (a scalar, or one value per entry) is kept
    regardless; ``None`` protects nothing.
    """
    mag = np.abs(val)
    keep = np.ones(len(val), dtype=bool)
    if rule.tau > 0.0:
        starts = np.flatnonzero(np.diff(col, prepend=-1))
        col_max = np.maximum.reduceat(mag, starts)
        keep = mag >= rule.tau * np.repeat(col_max, np.diff(starts, append=len(mag)))
    if rule.p > 0:
        cand = np.flatnonzero(keep)
        keep = np.zeros(len(val), dtype=bool)
        keep[cand[_top_per_column(col[cand], idx[cand], mag[cand], rule.p)]] = True
    if protect is not None:
        keep |= idx == protect
    return keep


def numerical_drop(v, rule, protect=None):
    """Apply a :class:`DropRule` to a sparse vector.

    The protected index (the diagonal, in the pattern constructions) is
    kept regardless of the rule whenever it is present in the input.
    """
    if v.nnz == 0 or rule.unused:
        return v
    keep = _drop_mask(np.zeros(v.nnz, dtype=np.int64), v.idx, v.val, rule, protect)
    return SparseVector(v.n, v.idx[keep], v.val[keep])


def _drop_columns(m, rule):
    """:func:`numerical_drop` on every column of ``m``, protecting the diagonal."""
    if m.nnz == 0 or rule.unused:
        return m
    col = m._entry_columns()
    return m.masked(_drop_mask(col, m.row_idx, m.values, rule, col))


class _V0Solver:
    """Solves with V0 = P_{V0}A.

    A diagonal V0 divides by its diagonal.  Any other V0 is factored by
    :func:`factor_v` under the given blocks and shape, and a batch of
    right-hand sides goes through one walk of :meth:`VFactorization.solve`
    as dense columns.  A zero on the diagonal of a diagonal V0 raises one
    :class:`SingularBlockError` naming all such positions, as
    :func:`factor_v` does for singular blocks.
    """

    def __init__(self, a, v0_pattern, blocks, v0_shape):
        n = a.n_cols
        diag = np.arange(n, dtype=np.int64) * (n + 1)
        missing = np.flatnonzero(~v0_pattern.contains(diag))
        if len(missing):
            raise ValueError(f"V0 pattern must contain the diagonal (column {missing[0]})")
        v0 = a.masked(v0_pattern.contains(a.entry_keys()))
        if v0_pattern.nnz == n:  # the diagonal alone
            d = v0.diagonal()
            bad = np.flatnonzero(d == 0.0)
            if len(bad):
                raise SingularBlockError(bad)
            self._diag = d
            self._vf = None
            return
        self._diag = None
        if blocks is None:
            raise ValueError("a non-diagonal V0 pattern needs its blocks")
        self._vf = factor_v(v0, blocks, v0_shape)

    def solve_sparse(self, c):
        """``V0^{-1} c`` for a sparse matrix ``c`` of right-hand sides, as a
        sparse matrix of the same shape without exact zeros."""
        n, width = c.shape
        if self._diag is not None:
            z = SparseMatrix(n, width, c.col_ptr, c.row_idx, c.values / self._diag[c.row_idx],
                             validate=False)
            return z.masked(z.values != 0.0)
        dense = np.zeros((width, n))
        dense[c._entry_columns(), c.row_idx] = c.values
        z = self._vf.solve(dense.T).T.ravel()  # C order: index col * n + row
        keys = np.flatnonzero(z)
        return SparseMatrix.from_keys(n, width, keys, z[keys])


# S is solved this many columns at a time, as dense n-vectors.  The batch
# bounds the memory the V0 solves take: with 24 columns the peak RSS of a
# run stays within 1% of solving one column at a time at n = 636
# (flowsheet-q-upper) and at n = 3,600 (cd2d-60: 75.3 against 75.5 MB).
# Wider batches spread the walk's fixed cost over more columns: at
# n = 3,600, batches of 2^14 values (4 columns) made S 2.4 times slower.
_V0_BATCH_COLUMNS = 24


def _sparsified_s(a, v0_pattern, solver, rule):
    """S = V0^{-1}(I - P_{V0})A with ``rule`` applied, one batch of columns at a time."""
    n = a.n_cols
    rhs = a.masked(~v0_pattern.contains(a.entry_keys()))
    keys, vals = [np.empty(0, np.int64)], [np.empty(0)]
    for first in range(0, n, _V0_BATCH_COLUMNS):
        last = min(first + _V0_BATCH_COLUMNS, n)
        lo, hi = rhs.col_ptr[first], rhs.col_ptr[last]
        part = solver.solve_sparse(SparseMatrix(
            n, last - first, rhs.col_ptr[first:last + 1] - lo, rhs.row_idx[lo:hi],
            rhs.values[lo:hi], validate=False))
        part = _drop_columns(
            SparseMatrix.from_keys(n, n, part.entry_keys() + first * n, part.values), rule)
        keys.append(part.entry_keys())
        vals.append(part.values)
    return SparseMatrix.from_keys(n, n, np.concatenate(keys), np.concatenate(vals))


def neumann_pattern(a, v0_pattern, cfg, blocks=None, v0_shape="block-diagonal"):
    """Pattern of W from sparsified truncated powers of S = V0^{-1}(I - P_{V0})A.

    S is formed a batch of columns at a time: each batch takes one V0 solve
    of its dense columns and is sparsified with the initial rule before the
    next.  Then, on whole matrices, T starts at the identity, is multiplied
    by S (``cfg.k`` times) and dropped with the level rule after each
    product, and each T is accumulated onto the identity; the support of
    each column of the sum becomes that column's allowed set (the diagonal
    if it cancels to nothing).  Finally the off-diagonal part of the V0
    pattern is removed so the two subspaces only share the diagonal.

    ``blocks``/``v0_shape`` give the block shape V0 is factored under;
    ``blocks`` may be omitted only for a diagonal V0 pattern, and any
    other pattern without them raises ``ValueError``.
    """
    n = a.n_cols
    if a.n_rows != n or v0_pattern.n != n:
        raise ValueError("square matrix and matching pattern required")
    solver = _V0Solver(a, v0_pattern, blocks, v0_shape)

    s = _sparsified_s(a, v0_pattern, solver, cfg.initial_drop)
    t = SparseMatrix.identity(n)
    acc_keys, acc_vals = t.entry_keys(), t.values
    for _ in range(cfg.k):
        t = _drop_columns(sparse_product(s, t), cfg.level_drop)
        if t.nnz == 0:
            break
        acc_keys, acc_vals = merge_sum(
            np.concatenate([acc_keys, t.entry_keys()]), np.concatenate([acc_vals, t.values])
        )
    w = SubspacePattern.from_keys_or_diagonal(n, acc_keys)
    return pattern_subtract_offdiag(w, v0_pattern)


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
    # |A^T| times the indicator of the V0 pattern: positive wherever any of
    # the selected rows of A has an entry, so nothing can cancel away
    abs_at = SparseMatrix(n, n, at.col_ptr, at.row_idx, np.abs(at.values), validate=False)
    keys = v0_pattern.keys()
    probe = _drop_columns(
        sparse_product(abs_at, SparseMatrix.from_keys(n, n, keys, np.ones(len(keys)))), rule
    )
    return SubspacePattern.from_keys_or_diagonal(n, probe.entry_keys()).with_diagonal()


def select_v_pattern(a, w_pattern, v_candidate, k_v):
    """Choose the V pattern greedily from admissible candidate positions.

    A column with at most ``k_v`` candidates keeps them all, unscored.
    Any other column j takes the columns of A allowed by ``w_pattern`` as
    its block A_j, factored by one :func:`qr_householder` call.  Its
    candidates on the active rows of A_j (stored zeros count) score the
    Euclidean norm of the corresponding column of Q_j^T, and the diagonal,
    when a candidate, scores it too (zero off the active rows).  Of these
    the ``k_v`` best are kept, the diagonal always included, with ties
    resolved toward smaller indices so selections nest as ``k_v`` grows.

    No other candidate is kept: off the active rows of A_j neither
    factorization can give V a value.  A chunk of
    :func:`~diafact.sparse.column_chunks` holds just the scored positions,
    never the whole candidate (for a block-upper shape, every row above
    the end of the column's block), and a column never spans two chunks,
    so each chunk is ranked on its own.
    """
    n = a.n_cols
    if a.n_rows != n or w_pattern.n != n or v_candidate.n != n:
        raise ValueError("square matrix and matching patterns required")
    if k_v < 1:
        raise ValueError("k_v must be at least 1")
    counts = v_candidate.counts()
    kept, ranked = np.flatnonzero(counts <= k_v), np.flatnonzero(counts > k_v)
    _, owner, rows = v_candidate.gather(kept)
    keys = [kept[owner] * n + rows, np.arange(n, dtype=np.int64) * (n + 1)]
    for ch in column_chunks(a, w_pattern, v_candidate, width_order(w_pattern, ranked)):
        q, start, _, _ = ch.visible_q(qr_householder)
        k = ch.k[ch.v_col]
        scores = np.zeros(len(ch.v_rows))
        for kk in np.unique(k[ch.v_seen]).tolist():
            e = np.flatnonzero(ch.v_seen & (k == kk))
            qt = q[start[e][:, None] + np.arange(kk)]
            scores[e] = np.sqrt((qt * qt).sum(axis=1))
        best = _top_per_column(ch.v_col, ch.v_rows, scores, k_v)
        keys.append(ch.cols[ch.v_col[best]] * n + ch.v_rows[best])
    return SubspacePattern.from_keys(n, np.unique(np.concatenate(keys)))
