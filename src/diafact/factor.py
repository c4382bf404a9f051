"""The two direct columnwise factorization algorithms and stabilization.

Both algorithms minimize ||A W - V||_F over standard subspaces, column by
column.  The QR variant fixes the norm of each column of V: it extracts the
columns of A allowed for w_j, factors them, picks v_j as the leading right
singular direction of the admissible part of Q_j^T, and solves a small
least squares problem for w_j.  The SVD variant fixes the norm of each
column of W instead: w_j is the right singular vector of the smallest
singular value of A_j with the rows admissible for v_j removed, and V is
assembled afterwards as the pattern projection of A W.

Columns whose leading direction leaves a tiny diagonal in V can be
stabilized: the diagonal component is pinned to a constant r and the
remaining weight goes to the best unit combination of earlier admissible
positions, found from the SVD of those columns of Q_j^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import SVDFactors, lstsq, pad_tall, qr_householder, rank_by_qt_norm, svd_small
from .sparse import SparseMatrix, SparseVector, extract_columns, gather_columns, sorted_lookup

__all__ = [
    "StabilizationPolicy",
    "ColumnReport",
    "FactorPair",
    "diaf_q_column",
    "diaf_s_column",
    "stabilize_column",
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


def _require_diag(v_pattern, j):
    vcols = v_pattern.cols[j]
    dpos, found = sorted_lookup(vcols, j)
    if not found:
        raise ValueError(f"V pattern must contain the diagonal index (column {j})")
    return vcols, dpos


def _qt_columns(q_thin, active_rows, positions):
    """Columns of Q_j^T at global row ``positions`` (zero outside actives)."""
    k = q_thin.shape[1]
    m = np.zeros((k, len(positions)))
    # only genuine active rows of the (possibly padded) factor count
    pos, inside = sorted_lookup(active_rows, positions)
    m[:, inside] = q_thin[pos[inside], :].T
    return m


def _svd_nonzero_columns(m):
    """:func:`svd_small` of ``m`` taken over its nonzero columns only.

    The right singular vectors are scattered back to all columns of ``m``
    with exact zeros at its zero columns, so a position of v_j that A_j
    cannot see is never stored as roundoff.
    """
    live = np.any(m != 0.0, axis=0)
    if not live.any():
        return svd_small(m)
    f = svd_small(m[:, live])
    v = np.zeros((m.shape[1], f.v.shape[1]))
    v[live] = f.v
    return SVDFactors(f.u, f.sigma, v)


def stabilize_column(q_thin, active_rows, j, l_j, policy, admissible):
    """Constrained replacement for a column with a tiny diagonal entry.

    Pins the diagonal to ``policy.r`` and maximizes the norm of
    ``r p_j + M_hat v_hat`` over unit ``v_hat``, where ``M_hat`` holds the
    ``l_j - 1`` largest admissible columns of Q_j^T with position < j and
    ``p_j`` is the column of Q_j^T at position j.  The solution is the
    leading right singular vector of ``M_hat`` with its sign matched to the
    first component of ``U_hat^T p_j`` (+1 when that component vanishes).
    """
    admissible = np.asarray(admissible, dtype=np.int64)
    admissible = admissible[admissible < j]
    if len(admissible) == 0 or l_j <= 1:
        return np.array([j], dtype=np.int64), np.array([policy.r])

    ranked = rank_by_qt_norm(q_thin, active_rows, admissible)
    chosen = np.sort(admissible[ranked[: l_j - 1]])

    m_hat = _qt_columns(q_thin, active_rows, chosen)
    p_j = _qt_columns(q_thin, active_rows, np.array([j]))[:, 0]
    f = _svd_nonzero_columns(m_hat)
    p_tilde = f.u.T @ p_j
    sign = 1.0 if p_tilde[0] >= 0.0 else -1.0
    v_hat = sign * f.v[:, 0]

    idx = np.concatenate([chosen, [j]])
    val = np.concatenate([v_hat, [policy.r]])
    keep = val != 0.0
    return idx[keep], val[keep]


def diaf_q_column(a, w_pattern, v_pattern, j, policy=None, target_norm=1.0):
    """One column of the QR-based factorization.

    Returns ``(w_j, v_j, report)`` with both columns as sparse vectors.
    ``target_norm`` rescales the computed unit v_j; the assembled product
    W V^{-1} is invariant under any positive choice.
    """
    policy = policy or StabilizationPolicy()
    n = a.n_cols
    vcols, dpos = _require_diag(v_pattern, j)
    sub = extract_columns(a, w_pattern.cols[j])
    qr = qr_householder(pad_tall(sub.dense_block))

    m_j = _qt_columns(qr.q_thin, sub.active_rows, vcols)
    fallback = False
    stabilized = False
    f = _svd_nonzero_columns(m_j)
    if f.sigma[0] == 0.0:
        # nothing of the candidate positions is visible in the column
        # space of A_j; fall back to the diagonal so V leans nonsingular
        fallback = True
        v_j = SparseVector(n, np.array([j]), np.array([target_norm]))
    else:
        v_loc = f.v[:, 0]
        if v_loc[dpos] < 0.0:
            v_loc = -v_loc
        if abs(v_loc[dpos]) < policy.threshold:
            idx, val = stabilize_column(
                qr.q_thin, sub.active_rows, j, len(vcols), policy, vcols
            )
            v_j = SparseVector(n, idx, val)
            stabilized = True
        else:
            keep = v_loc != 0.0
            v_j = SparseVector(n, vcols[keep], v_loc[keep] * target_norm)

    sol = lstsq(sub, v_j, qr)
    w_j = SparseVector(n, sub.cols, sol.solution)
    report = ColumnReport(
        residual=sol.residual,
        stabilized=stabilized,
        rank_deficient=sol.rank_deficient,
        fallback=fallback,
    )
    return w_j, v_j, report


def diaf_s_column(a, w_pattern, v_pattern, j):
    """One column of the SVD-based factorization.

    Returns ``(w_j, report)``; w_j has unit norm and minimizes the part of
    ``A_j w`` that falls outside the admissible positions of v_j.
    """
    n = a.n_cols
    vcols, _ = _require_diag(v_pattern, j)
    sub = extract_columns(a, w_pattern.cols[j])

    _, removed = sorted_lookup(vcols, sub.active_rows)
    a_hat = sub.dense_block[~removed]
    flagged = a_hat.shape[0] < sub.k

    qr = qr_householder(pad_tall(a_hat))
    f = svd_small(qr.r)
    w_loc = f.v[:, -1]
    sigma_min = float(f.sigma[-1])

    y = sub.dense_block @ w_loc
    dpos, found = sorted_lookup(sub.active_rows, j)
    yj = y[dpos] if found else 0.0
    if yj < 0.0:
        w_loc = -w_loc
    elif yj == 0.0 and w_loc[int(np.argmax(np.abs(w_loc)))] < 0.0:
        w_loc = -w_loc

    w_j = SparseVector(n, sub.cols, w_loc)
    report = ColumnReport(residual=sigma_min, rank_deficient=flagged or qr.rank < sub.k)
    return w_j, report


def _flag_reasons(report):
    reasons = []
    if report.rank_deficient:
        reasons.append("rank-deficient")
    if report.fallback:
        reasons.append("zero-candidate-fallback")
    return reasons


def diaf_q(a, w_pattern, v_pattern, policy=None, column_norms=None):
    """QR-based factorization of all columns into a :class:`FactorPair`.

    ``column_norms`` optionally fixes per-column norms for V (default all
    ones); the resulting W V^{-1} does not depend on them.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_cols
    w_cols, v_cols = [], []
    residuals = np.zeros(n)
    flagged = {}
    stab_count = 0
    for j in range(n):
        target = 1.0 if column_norms is None else float(column_norms[j])
        if target <= 0:
            raise ValueError("column norms must be positive")
        w_j, v_j, rep = diaf_q_column(a, w_pattern, v_pattern, j, policy, target)
        w_cols.append((w_j.idx, w_j.val))
        v_cols.append((v_j.idx, v_j.val))
        residuals[j] = rep.residual
        stab_count += rep.stabilized
        reasons = _flag_reasons(rep)
        if reasons:
            flagged[j] = ",".join(reasons)
    w = SparseMatrix.from_columns(n, w_cols)
    v = SparseMatrix.from_columns(n, v_cols)
    return FactorPair(w, v, residuals, stab_count, float(np.sqrt((residuals ** 2).sum())), flagged)


def diaf_s(a, w_pattern, v_pattern):
    """SVD-based factorization; V is the pattern projection of A W."""
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_cols
    w_cols, v_cols = [], []
    residuals = np.zeros(n)
    flagged = {}
    for j in range(n):
        w_j, rep = diaf_s_column(a, w_pattern, v_pattern, j)
        w_cols.append((w_j.idx, w_j.val))
        # project A w_j onto the admissible structure of column j
        y_idx, y_val = gather_columns(a, w_j.idx, w_j.val)
        _, inside = sorted_lookup(v_pattern.cols[j], y_idx)
        v_cols.append((y_idx[inside], y_val[inside]))
        out = y_val[~inside]
        residuals[j] = float(np.sqrt(np.dot(out, out)))
        reasons = _flag_reasons(rep)
        if reasons:
            flagged[j] = ",".join(reasons)
    w = SparseMatrix.from_columns(n, w_cols)
    v = SparseMatrix.from_columns(n, v_cols)
    return FactorPair(w, v, residuals, 0, float(np.sqrt((residuals ** 2).sum())), flagged)
