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
one sweep.  The sweep takes the blocks A_j a chunk at a time from
:func:`~diafact.sparse.column_chunks`, which gathers a chunk in one index
pass and visits the columns in order of block width, so a chunk holds few
widths.  It runs the dense kernels as stacked LAPACK calls over the
columns whose kernel inputs share a shape, which for the k x k factors
R_j means once per width k, and does the rest in array passes over the
chunk; diaf-q keeps one :func:`qr_householder` call per column, writes
Q_j over A_j in the chunk's one dense buffer and keeps R_j unpadded, as
its k^2 values, from which the solve gathers each width's stack.  Every
diaf-q column, stabilized or rank-deficient ones too, goes through the
same stacked passes, and the sweep writes each column's results at that
column's index.  The one-column functions are the sweep over a single
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
    _integer_array,
    _span_gather,
    column_chunks,
    sorted_lookup,
    sparse_product,
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
    on the value of ``r``.  Both must be finite.
    """

    threshold: float = 0.0
    r: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.threshold < np.inf:
            raise ValueError("threshold must be finite and nonnegative")
        if not 0.0 < self.r < np.inf:
            raise ValueError("r must be finite and positive")


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
    per-column arrays are indexed by matrix column (zero where not swept).
    """

    w: np.ndarray
    v: np.ndarray
    residuals: np.ndarray
    stabilized: np.ndarray
    rank_deficient: np.ndarray
    fallback: np.ndarray

    @classmethod
    def empty(cls, w_pattern, v_pattern):
        flags = (np.zeros(w_pattern.n, dtype=bool) for _ in range(3))
        return cls(np.zeros(w_pattern.nnz), np.zeros(v_pattern.nnz), np.zeros(w_pattern.n), *flags)

    def report(self, j):
        return ColumnReport(float(self.residuals[j]), bool(self.stabilized[j]),
                            bool(self.rank_deficient[j]), bool(self.fallback[j]))

    def flagged(self):
        """Flag reasons of the flagged columns, keyed by column."""
        out = {}
        for j in np.flatnonzero(self.rank_deficient | self.fallback).tolist():
            reasons = [name for name, hit in (("rank-deficient", self.rank_deficient[j]),
                                              ("zero-candidate-fallback", self.fallback[j])) if hit]
            out[j] = ",".join(reasons)
        return out


def _require_problem(a, w_pattern, v_pattern, columns):
    n = a.n_cols
    if a.n_rows != n or w_pattern.n != n or v_pattern.n != n:
        raise ValueError("square matrix and matching patterns required")
    outside = columns[(columns < 0) | (columns >= n)]
    if len(outside):
        raise ValueError(f"column {outside[0]} is not in the valid range 0..{n - 1}")
    missing = columns[~v_pattern.contains(columns * (n + 1))]
    if len(missing):
        raise ValueError(f"V pattern must contain the diagonal index (column {missing[0]})")


def _leading_directions(ch, q, start, mask):
    """Leading singular triplet of each column's ``m_j``.

    ``m_j`` is Q_j^T at the visible V positions where ``mask`` is true.
    Its SVD runs over those columns only, stacked over the columns whose
    ``m_j`` has one shape, so a position that A_j cannot see gets an exact
    zero, never roundoff.  None of those columns is zero: a visible
    position lies on an active row of A_j, which holds a nonzero entry,
    and A_j = Q_j R_j.  Returns ``(lead, sigma, u1)``: the right vector on
    the V positions of the chunk, the value per column (0 where ``m_j``
    has no column) and the left vector on the column's W slots, laid out
    like ``ch.sets``.
    """
    col, k = ch.v_col, ch.k
    live = np.flatnonzero(mask)
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


def _solves(ch, q, start, r, r_at, rank, val):
    """``w_j = R_j^+ Q_j^T v_j`` for the columns of the chunk, stacked by k.

    ``Q_j^T v_j`` sums the rows of Q_j at the visible candidates, weighted
    by ``val``, in one pass over the chunk.  A full-rank R_j is solved
    directly and the roundoff of the solution dropped.  A rank-deficient
    one is inverted through its SVD, with the singular values up to
    ``RANK_TOL ||A_j||_F`` cut as :func:`~diafact.kernels.lstsq` cuts
    them.  ``r`` and ``r_at`` hold the R_j as
    :meth:`~diafact.sparse.ColumnChunk.visible_q` lays them out, and each
    width's stack is gathered from them.  Returns the chunk's W values.
    """
    col, k = ch.v_col, ch.k
    w = np.zeros(ch.set_ptr[-1])
    full = rank == k
    if not full.all():
        owner = np.arange(len(ch.cols)).repeat(k)[ch.entry_set]
        fro = np.sqrt(np.bincount(owner, weights=ch.val * ch.val, minlength=len(ch.cols)))
    e = np.flatnonzero(ch.v_seen)
    slot, owner = _span_gather(ch.set_ptr, col[e])
    at = (start - ch.set_ptr[col])[e][owner] + slot
    qtv = np.bincount(slot, weights=q[at] * val[e][owner], minlength=ch.set_ptr[-1])
    for kk in np.unique(k).tolist():
        cols = np.flatnonzero(k == kk)
        span = np.arange(kk)
        qtb = qtv[ch.set_ptr[cols][:, None] + span][:, :, None]
        r_k = r[r_at[cols][:, None] + np.arange(kk * kk)].reshape(len(cols), kk, kk)
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
    """The diaf-q column problems of ``columns``; v_j gets the norm ``norms[j]``.

    Per chunk: one :func:`qr_householder` call per column, Q_j written over
    A_j; the SVD of the candidate part ``m_j`` of Q_j^T, stacked over the
    columns whose ``m_j`` (over its visible positions) has one shape; the
    sign rules in array passes; the solve ``w_j = R_j^+ Q_j^T v_j``,
    stacked over the columns with one k; and the residuals in array
    passes.  A stabilized column takes a second pass of the same SVD over
    its admissible positions.

    Entries of a full-rank solve's ``w_j`` below ``m k u kappa ||w_j||``
    are dropped, where the block factored is ``m x k``, ``u`` is the unit
    roundoff and ``kappa = max |r_ii| / min |r_ii|`` is a lower bound on
    the condition number of R_j.  Householder least squares solves a
    problem within ``m k u`` of A_j (its backward error), which moves
    ``w_j`` by up to ``m k u kappa(R_j) ||w_j||`` to first order, so such
    entries cannot be told from zero.  Residuals are taken after the drop.
    """
    _require_problem(a, w_pattern, v_pattern, columns)
    out = _Sweep.empty(w_pattern, v_pattern)
    for ch in column_chunks(a, w_pattern, v_pattern, columns):
        size, col, seen, norm = len(ch.cols), ch.v_col, ch.v_seen, norms[ch.cols]
        q, start, r, r_at, rank = ch.visible_q(qr_householder)
        lead, sigma, _ = _leading_directions(ch, q, start, seen)

        diag = np.flatnonzero(ch.v_rows == ch.cols[col])
        lead *= np.where(lead[diag] < 0.0, -1.0, 1.0)[col]
        # nothing of the candidate positions is visible in the column space
        # of A_j: fall back to the diagonal so V leans nonsingular
        fallback = sigma == 0.0
        stabilize = ~fallback & (np.abs(lead[diag]) < policy.threshold)
        val = lead * norm[col]
        val[diag[fallback]] = norm[fallback]
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

        w = _solves(ch, q, start, r, r_at, rank, val)

        # ||A_j w_j - v_j||: the block's entries times w_j, less v_j on the
        # active rows, plus the part of v_j outside them
        d = np.bincount(ch.entry_row, weights=ch.val * w[ch.entry_set], minlength=len(ch.active))
        d[ch.v_at[seen]] -= val[seen]
        inside = np.bincount(np.arange(size).repeat(ch.m), weights=d * d, minlength=size)
        outside = np.bincount(col[~seen], weights=val[~seen] ** 2, minlength=size)
        out.residuals[ch.cols] = np.sqrt(inside + outside)
        out.w[ch.slots] = w
        out.v[ch.v_pos] = val
        out.stabilized[ch.cols] = stabilize
        out.rank_deficient[ch.cols] = rank < ch.k
        out.fallback[ch.cols] = fallback
    return out


def _sweep_s(a, w_pattern, v_pattern, columns):
    """The diaf-s column problems of ``columns``, a chunk at a time.

    A_j comes without the rows admissible for v_j.  Its QR runs stacked
    over the columns whose blocks share one padded shape; the SVD of R_j,
    the sign rule and the writes run stacked over the columns with one
    width k, whatever their padded row counts.
    """
    n = a.n_cols
    _require_problem(a, w_pattern, v_pattern, columns)
    out = _Sweep.empty(w_pattern, v_pattern)
    a_keys = a.entry_keys()
    for ch in column_chunks(a, w_pattern, v_pattern, columns, outside_v=True):
        by_width = {}
        for sel, blocks in ch.shape_groups():
            by_width.setdefault(blocks.shape[2], []).append((sel, *_r_signed(blocks)))
        for k, parts in by_width.items():
            sel, r, rank = (np.concatenate(x) for x in zip(*parts))
            j = ch.cols[sel]
            _, sigma, v = _svd_signed(r)
            w = v[:, :, -1]
            # sign: (A_j w_j)_j >= 0; where it is 0, _svd_signed has already
            # made the largest-magnitude entry of w_j nonnegative
            sets = ch.sets[ch.set_ptr[sel][:, None] + np.arange(k)]
            at, found = sorted_lookup(a_keys, sets * n + j[:, None])
            row_j = np.zeros(sets.shape)
            row_j[found] = a.values[at[found]]
            y = (row_j[:, None, :] @ w[:, :, None])[:, 0, 0]
            out.w[ch.slots[ch.set_ptr[sel][:, None] + np.arange(k)]] = np.where(y[:, None] < 0.0, -w, w)
            out.residuals[j] = sigma[:, -1]
            out.rank_deficient[j] = (ch.m[sel] < k) | (rank < k)
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
    n = a.n_cols
    cols = _integer_array("column j", [j])
    out = _sweep_q(a, w_pattern, v_pattern, cols, policy or StabilizationPolicy(), np.ones(n))
    wpos, _, wrows = w_pattern.gather(cols)
    vpos, _, vrows = v_pattern.gather(cols)
    v = out.v[vpos]
    keep = v != 0.0
    return SparseVector(n, wrows, out.w[wpos]), SparseVector(n, vrows[keep], v[keep]), out.report(j)


def diaf_s_column(a, w_pattern, v_pattern, j):
    """One column of the SVD-based factorization: the sweep over column ``j``.

    Returns ``(w_j, report)``; w_j has unit norm and minimizes the part of
    ``A_j w`` that falls outside the admissible positions of v_j.
    """
    cols = _integer_array("column j", [j])
    out = _sweep_s(a, w_pattern, v_pattern, cols)
    wpos, _, wrows = w_pattern.gather(cols)
    return SparseVector(a.n_cols, wrows, out.w[wpos]), out.report(j)


def diaf_q(a, w_pattern, v_pattern, policy=None, column_norms=None):
    """QR-based factorization of all columns into a :class:`FactorPair`.

    ``column_norms`` optionally fixes the norms of V's columns, ``n`` finite
    positive values (default all ones); W V^{-1} does not depend on them.
    """
    n = a.n_cols
    norms = np.ones(n) if column_norms is None else np.asarray(column_norms, dtype=np.float64)
    if norms.shape != (n,) or not np.all((norms > 0) & (norms < np.inf)):
        raise ValueError(f"column norms must be {n} finite positive values")
    out = _sweep_q(a, w_pattern, v_pattern, np.arange(n), policy or StabilizationPolicy(), norms)
    res = out.residuals
    return FactorPair(_assemble(w_pattern, out.w), _assemble(v_pattern, out.v), res,
                      int(out.stabilized.sum()), float(np.sqrt((res ** 2).sum())), out.flagged())


def diaf_s(a, w_pattern, v_pattern):
    """SVD-based factorization; V is the pattern projection of A W."""
    n = a.n_cols
    out = _sweep_s(a, w_pattern, v_pattern, np.arange(n))
    w = _assemble(w_pattern, out.w)
    # project A W onto the admissible structure; the rest is the residual
    y = sparse_product(a, w)
    inside = v_pattern.contains(y.entry_keys())
    outside = np.where(inside, 0.0, y.values)
    residuals = np.sqrt(np.bincount(y._entry_columns(), weights=outside * outside, minlength=n))
    return FactorPair(w, y.masked(inside), residuals, 0,
                      float(np.sqrt((residuals ** 2).sum())), out.flagged())
