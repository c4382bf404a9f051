"""The two direct columnwise factorization algorithms and stabilization.

Both algorithms minimize ||A W - V||_F over standard subspaces, column by
column.  The QR variant fixes the norm of each column of V: it extracts the
columns of A allowed for w_j, factors them, picks v_j as the leading right
singular direction of the admissible part of Q_j^T, and solves a small
least squares problem for w_j.  The SVD variant fixes the norm of each
column of W instead: w_j is the right singular vector of the smallest
singular value of A_j with the rows admissible for v_j removed, and V is
assembled afterwards as the pattern projection of A W.

The column problems are independent, and each algorithm solves them in
one sweep.  The sweep visits the columns in order of block width
(:func:`~diafact.sparse.width_order`), gathers the blocks A_j of a chunk
of them in one index pass (:func:`~diafact.sparse.column_chunks`), runs
the dense kernels as stacked LAPACK calls over the columns whose kernel
inputs share a shape, and does the rest in array passes over the chunk;
diaf-q keeps one :func:`qr_householder` call per column.  In width order
a chunk holds few widths, so it makes few stacked calls.  Every diaf-q
column, stabilized or rank-deficient ones too, goes through the same
stacked passes.  The one-column functions are the sweep over a single
column, and a column's result depends neither on the chunk it is solved
in nor on the order of the sweep.

Columns whose leading direction leaves a tiny diagonal in V can be
stabilized: the diagonal component is pinned to a constant r and the
remaining weight goes to the best unit combination of the earlier
admissible positions that A_j can see, found from the SVD of those
columns of Q_j^T; with no such position, v_j = r e_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import RANK_TOL, _r_signed, _svd_signed, qr_householder
from .sparse import (
    SparseMatrix,
    SparseVector,
    _span_gather,
    column_chunks,
    sorted_lookup,
    sparse_product,
    width_order,
)

__all__ = [
    "StabilizationPolicy",
    "ColumnReport",
    "FactorPair",
    "diaf_q_column",
    "diaf_s_column",
    "diaf_q",
    "diaf_s",
]


@dataclass(frozen=True)
class StabilizationPolicy:
    """When and how to constrain a column's diagonal entry.

    A column is recomputed when the magnitude of its diagonal component
    falls below ``threshold``; the imposed diagonal weight is ``r``.  The
    default threshold 0 never fires, so stabilization is off unless a
    positive threshold is given.  The recomputed direction does not depend
    on the value of ``r``.
    """

    threshold: float = 0.0
    r: float = 2.0

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")
        if self.r <= 0:
            raise ValueError("r must be positive")


@dataclass(frozen=True)
class ColumnReport:
    residual: float
    stabilized: bool = False
    rank_deficient: bool = False
    fallback: bool = False


@dataclass
class FactorPair:
    """Computed factors with per-column diagnostics.

    ``column_residuals[j]`` is ``||A w_j - v_j||_2`` and ``nrm`` is
    ``||A W - V||_F``, the root of their sum of squares.
    """

    w: SparseMatrix
    v: SparseMatrix
    column_residuals: np.ndarray
    stab_count: int
    nrm: float
    flagged_columns: dict


# unit roundoff of float64
_U = np.finfo(np.float64).eps / 2


@dataclass
class _Sweep:
    """What a sweep computed for its columns.

    ``w`` and ``v`` hold values on the positions of the W and V patterns'
    :meth:`~diafact.sparse.SubspacePattern.keys` (0.0: nothing stored); the
    per-column arrays follow the order of the swept columns.
    """

    w: np.ndarray
    v: np.ndarray
    residuals: np.ndarray
    stabilized: np.ndarray
    rank_deficient: np.ndarray
    fallback: np.ndarray

    @classmethod
    def empty(cls, w_pattern, v_pattern, n_columns):
        flags = (np.zeros(n_columns, dtype=bool) for _ in range(3))
        return cls(np.zeros(w_pattern.nnz), np.zeros(v_pattern.nnz), np.zeros(n_columns), *flags)

    def report(self, i):
        return ColumnReport(float(self.residuals[i]), bool(self.stabilized[i]),
                            bool(self.rank_deficient[i]), bool(self.fallback[i]))

    def flagged(self, columns):
        """Flag reasons of the flagged columns, keyed by column."""
        out = {}
        for i in np.flatnonzero(self.rank_deficient | self.fallback).tolist():
            reasons = [name for name, hit in (("rank-deficient", self.rank_deficient[i]),
                                              ("zero-candidate-fallback", self.fallback[i])) if hit]
            out[int(columns[i])] = ",".join(reasons)
        return out


def _require_diagonal(v_pattern, columns):
    missing = columns[~v_pattern.contains(columns * (v_pattern.n + 1))]
    if len(missing):
        raise ValueError(f"V pattern must contain the diagonal index (column {missing[0]})")


def _positions(n, columns):
    """Index of each column among ``columns``."""
    where = np.zeros(n, dtype=np.int64)
    where[columns] = np.arange(len(columns))
    return where


def _leading_directions(ch, q, start, mask):
    """Leading singular triplet of each column's ``m_j``.

    ``m_j`` is Q_j^T at the visible V positions where ``mask`` is true.
    Its SVD runs over the nonzero columns only, stacked over the columns
    whose ``m_j`` has one shape, so a position that A_j cannot see gets an
    exact zero, never roundoff.  Returns ``(lead, sigma, u1)``: the right
    vector on the V positions of the chunk, the value per column (0 where
    ``m_j`` has no nonzero column) and the left vector on the column's
    W slots, laid out like ``ch.sets``.
    """
    col, k = ch.v_col, ch.k
    live = np.zeros(len(col), dtype=bool)
    vis = np.flatnonzero(mask)
    for kk in np.unique(k[col[vis]]).tolist():
        e = vis[k[col[vis]] == kk]
        live[e] = q[start[e][:, None] + np.arange(kk)].any(axis=1)
    live = np.flatnonzero(live)
    n_live = np.bincount(col[live], minlength=len(ch.cols))
    first = np.cumsum(n_live) - n_live
    lead, sigma, u1 = np.zeros(len(col)), np.zeros(len(ch.cols)), np.zeros(ch.set_ptr[-1])
    shape = k * (n_live.max() + 1) + n_live
    for key in np.unique(shape[n_live > 0]).tolist():
        cols = np.flatnonzero(shape == key)
        width, kk = int(n_live[cols[0]]), int(k[cols[0]])
        e = live[first[cols][:, None] + np.arange(width)]
        u, sig, v = _svd_signed(np.swapaxes(q[start[e][..., None] + np.arange(kk)], 1, 2))
        lead[e], sigma[cols] = v[:, :, 0], sig[:, 0]
        u1[ch.set_ptr[cols][:, None] + np.arange(kk)] = u[:, :, 0]
    return lead, sigma, u1


def _solves(ch, q, start, r, rank, val):
    """``w_j = R_j^+ Q_j^T v_j`` for the columns of the chunk, stacked by k.

    ``Q_j^T v_j`` sums the rows of Q_j at the visible candidates, weighted
    by ``val``.  A full-rank R_j is solved directly and the roundoff of
    the solution dropped.  A rank-deficient one is inverted through its
    SVD, with the singular values up to ``RANK_TOL ||A_j||_F`` cut as
    :func:`~diafact.kernels.lstsq` cuts them.  Returns the chunk's W
    values.
    """
    col, k = ch.v_col, ch.k
    w = np.zeros(ch.set_ptr[-1])
    full = rank == k
    if not full.all():
        owner = np.arange(len(ch.cols)).repeat(k)[ch.entry_set]
        fro = np.sqrt(np.bincount(owner, weights=ch.val * ch.val, minlength=len(ch.cols)))
    for kk in np.unique(k).tolist():
        cols = np.flatnonzero(k == kk)
        span = np.arange(kk)
        e = np.flatnonzero(ch.v_seen & (k[col] == kk))
        slot = _positions(len(ch.cols), cols)[col[e]]
        qtb = np.bincount((slot[:, None] * kk + span).ravel(),
                          weights=(q[start[e][:, None] + span] * val[e][:, None]).ravel(),
                          minlength=len(cols) * kk).reshape(len(cols), kk, 1)
        r_k = r[kk]
        sol, f = np.empty((len(cols), kk)), full[cols]
        if f.any():
            x = np.linalg.solve(r_k[f], qtb[f])[:, :, 0]
            r_diag = np.abs(np.diagonal(r_k[f], axis1=1, axis2=2))
            bound = ch.m[cols[f]].clip(min=kk) * kk * _U * r_diag.max(axis=1) / r_diag.min(axis=1)
            bound *= np.sqrt((x * x).sum(axis=1))
            sol[f] = np.where(np.abs(x) < bound[:, None], 0.0, x)
        if not f.all():
            u, sigma, v = _svd_signed(r_k[~f])
            inv = np.where(sigma > RANK_TOL * fro[cols[~f]][:, None],
                           1.0 / np.where(sigma > 0, sigma, 1.0), 0.0)
            y = inv * (np.swapaxes(u, 1, 2) @ qtb[~f])[:, :, 0]
            sol[~f] = (v @ y[:, :, None])[:, :, 0]
        w[ch.set_ptr[cols][:, None] + span] = sol
    return w


def _sweep_q(a, w_pattern, v_pattern, columns, policy, norms):
    """The diaf-q column problems of ``columns``, a chunk at a time, in width order.

    Per chunk: one :func:`qr_householder` call per column; the SVD of the
    candidate part ``m_j`` of Q_j^T, stacked over the columns whose
    ``m_j`` (over its nonzero columns) has one shape; the sign rules in
    array passes; the solve ``w_j = R_j^+ Q_j^T v_j``, stacked over the
    columns with one k; and the residuals in array passes.  A stabilized
    column takes a second pass of the same SVD over its admissible
    positions.

    Entries of a full-rank solve's ``w_j`` below ``m k u kappa ||w_j||``
    are dropped, where the block factored is ``m x k``, ``u`` is the unit
    roundoff and ``kappa = max |r_ii| / min |r_ii|`` is a lower bound on
    the condition number of R_j.  Householder least squares solves a
    problem within ``m k u`` of A_j (its backward error), which moves
    ``w_j`` by up to ``m k u kappa(R_j) ||w_j||`` to first order, so such
    entries cannot be told from zero.  Residuals are taken after the drop.
    """
    n = a.n_cols
    _require_diagonal(v_pattern, columns)
    out = _Sweep.empty(w_pattern, v_pattern, len(columns))
    where = _positions(n, columns)
    for ch in column_chunks(a, w_pattern, v_pattern, width_order(w_pattern, columns)):
        i, size, col, seen = where[ch.cols], len(ch.cols), ch.v_col, ch.v_seen
        q, start, r, rank = ch.visible_q(qr_householder)
        lead, sigma, _ = _leading_directions(ch, q, start, seen)

        diag = np.flatnonzero(ch.v_rows == ch.cols[col])
        lead *= np.where(lead[diag] < 0.0, -1.0, 1.0)[col]
        # nothing of the candidate positions is visible in the column space
        # of A_j: fall back to the diagonal so V leans nonsingular
        fallback = sigma == 0.0
        stabilize = ~fallback & (np.abs(lead[diag]) < policy.threshold)
        val = lead * norms[i][col]
        val[fallback[col]] = 0.0
        val[diag[fallback]] = norms[i][fallback]
        if stabilize.any():
            # v_jj = r; the rest is the leading direction over the visible
            # admissible positions (< j), signed by u_1 . (row of Q_j at j),
            # and nothing where none of them is visible
            lead, _, u1 = _leading_directions(
                ch, q, start, seen & stabilize[col] & (ch.v_rows < ch.cols[col]))
            c = np.flatnonzero(stabilize & seen[diag])
            slot, owner = _span_gather(ch.set_ptr, c)
            at_j = (start[diag] - ch.set_ptr[:-1])[c][owner] + slot
            align = np.bincount(c[owner], weights=u1[slot] * q[at_j], minlength=size)
            redo = stabilize[col]
            val[redo] = (lead * np.where(align < 0.0, -1.0, 1.0)[col])[redo]
            val[diag[stabilize]] = policy.r

        w = _solves(ch, q, start, r, rank, val)

        # ||A_j w_j - v_j||: the block's entries times w_j, less v_j on the
        # active rows, plus the part of v_j outside them
        d = np.bincount(ch.entry_row, weights=ch.val * w[ch.entry_set], minlength=len(ch.active))
        d[ch.v_at[seen]] -= val[seen]
        row_col = np.arange(size).repeat(ch.m)
        outside = np.bincount(col[~seen], weights=val[~seen] ** 2, minlength=size)
        out.residuals[i] = np.sqrt(np.bincount(row_col, weights=d * d, minlength=size) + outside)
        out.w[ch.slots] = w
        out.v[ch.v_pos] = val
        out.stabilized[i] = stabilize
        out.rank_deficient[i] = rank < ch.k
        out.fallback[i] = fallback
    return out


def _sweep_s(a, w_pattern, v_pattern, columns):
    """The diaf-s column problems of ``columns``, a chunk at a time, in width order.

    A_j comes without the rows admissible for v_j; its QR, the SVD of R_j
    and the sign rule run stacked over the columns whose blocks share one
    padded shape.
    """
    n = a.n_cols
    _require_diagonal(v_pattern, columns)
    out = _Sweep.empty(w_pattern, v_pattern, len(columns))
    where = _positions(n, columns)
    a_keys = a.entry_keys()
    for ch in column_chunks(a, w_pattern, v_pattern, width_order(w_pattern, columns),
                            outside_v=True):
        for sel, blocks in ch.shape_groups():
            j, k = ch.cols[sel], blocks.shape[2]
            r, rank = _r_signed(blocks)
            _, sigma, v = _svd_signed(r)
            w = v[:, :, -1]
            # sign: (A_j w_j)_j >= 0, or the largest entry of w_j if that is 0
            sets = ch.sets[ch.set_ptr[sel][:, None] + np.arange(k)]
            at, found = sorted_lookup(a_keys, sets * n + j[:, None])
            row_j = np.zeros(sets.shape)
            row_j[found] = a.values[at[found]]
            y = (row_j[:, None, :] @ w[:, :, None])[:, 0, 0]
            big = np.take_along_axis(w, np.argmax(np.abs(w), axis=1)[:, None], axis=1)[:, 0]
            flip = (y < 0.0) | ((y == 0.0) & (big < 0.0))
            out.w[ch.slots[ch.set_ptr[sel][:, None] + np.arange(k)]] = np.where(flip[:, None], -w, w)
            out.residuals[where[j]] = sigma[:, -1]
            out.rank_deficient[where[j]] = (ch.m[sel] < k) | (rank < k)
    return out


def _assemble(pattern, values):
    """The matrix holding ``values`` on the pattern's keys, zeros left out."""
    keys, keep = pattern.keys(), values != 0.0
    return SparseMatrix.from_keys(pattern.n, pattern.n, keys[keep], values[keep])


def diaf_q_column(a, w_pattern, v_pattern, j, policy=None):
    """One column of the QR-based factorization: the sweep over column ``j``.

    Returns ``(w_j, v_j, report)`` with both columns as sparse vectors;
    v_j has unit norm.
    """
    cols = np.array([j], dtype=np.int64)
    out = _sweep_q(a, w_pattern, v_pattern, cols, policy or StabilizationPolicy(), np.ones(1))
    wpos, _, wrows = w_pattern.gather(cols)
    vpos, _, vrows = v_pattern.gather(cols)
    v = out.v[vpos]
    keep = v != 0.0
    n = a.n_cols
    return SparseVector(n, wrows, out.w[wpos]), SparseVector(n, vrows[keep], v[keep]), out.report(0)


def diaf_s_column(a, w_pattern, v_pattern, j):
    """One column of the SVD-based factorization: the sweep over column ``j``.

    Returns ``(w_j, report)``; w_j has unit norm and minimizes the part of
    ``A_j w`` that falls outside the admissible positions of v_j.
    """
    cols = np.array([j], dtype=np.int64)
    out = _sweep_s(a, w_pattern, v_pattern, cols)
    wpos, _, wrows = w_pattern.gather(cols)
    return SparseVector(a.n_cols, wrows, out.w[wpos]), out.report(0)


def diaf_q(a, w_pattern, v_pattern, policy=None, column_norms=None):
    """QR-based factorization of all columns into a :class:`FactorPair`.

    ``column_norms`` optionally fixes per-column norms for V (default all
    ones); the resulting W V^{-1} does not depend on them.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_cols
    norms = np.ones(n) if column_norms is None else np.asarray(column_norms, dtype=np.float64)
    if np.any(norms <= 0):
        raise ValueError("column norms must be positive")
    cols = np.arange(n)
    out = _sweep_q(a, w_pattern, v_pattern, cols, policy or StabilizationPolicy(), norms)
    res = out.residuals
    return FactorPair(_assemble(w_pattern, out.w), _assemble(v_pattern, out.v), res,
                      int(out.stabilized.sum()), float(np.sqrt((res ** 2).sum())), out.flagged(cols))


def diaf_s(a, w_pattern, v_pattern):
    """SVD-based factorization; V is the pattern projection of A W."""
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_cols
    cols = np.arange(n)
    out = _sweep_s(a, w_pattern, v_pattern, cols)
    w = _assemble(w_pattern, out.w)
    # project A W onto the admissible structure; the rest is the residual
    y = sparse_product(a, w)
    inside = v_pattern.contains(y.entry_keys())
    outside = np.where(inside, 0.0, y.values)
    residuals = np.sqrt(np.bincount(y._entry_columns(), weights=outside * outside, minlength=n))
    return FactorPair(w, y.masked(inside), residuals, 0,
                      float(np.sqrt((residuals ** 2).sum())), out.flagged(cols))
