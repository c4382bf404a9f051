"""Small dense factorization kernels for the column problems.

All routines here operate on row-compressed column blocks whose dimensions
are tiny compared with the host matrix.  QR and SVD call numpy's LAPACK and
then fix the signs LAPACK leaves free (nonnegative R diagonal; each right
singular vector's largest component nonnegative), so callers see one
convention whatever the build.  The same rules apply to stacks of blocks
through ``_r_signed`` (R alone) and ``_svd_signed``, which the column
sweeps call once per group of equally shaped blocks.  :func:`qr_householder`
factors one block, once per column in diaf-q and in the V selection;
:func:`svd_small` and :func:`lstsq` are the one-column forms of the sweep's
stacked SVD and solve, kept for direct use and as references.  The block
LU of V is stacked the same way: :func:`lu_factor_stack` and
:func:`lu_solve_stack` work on all equally sized blocks at once, and
:func:`lu_factor` and :func:`lu_solve` are their one-block case.
Everything is pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import ColumnSubmatrix, SparseVector, sorted_lookup

__all__ = [
    "QRFactors",
    "SVDFactors",
    "LstsqResult",
    "qr_householder",
    "svd_small",
    "lstsq",
    "lu_factor",
    "lu_factor_stack",
    "lu_solve",
    "lu_solve_stack",
]

# rank / pseudoinverse cutoff relative to the Frobenius norm of the input
RANK_TOL = 1e-14


@dataclass(frozen=True)
class QRFactors:
    """Thin QR factorization with nonnegative R diagonal.

    ``rank`` counts the diagonal entries of R above ``RANK_TOL`` times the
    Frobenius norm of the factored matrix; rank deficiency is reported, not
    hidden.
    """

    q_thin: np.ndarray
    r: np.ndarray
    rank: int


@dataclass(frozen=True)
class SVDFactors:
    """Thin SVD ``u @ diag(sigma) @ v.T`` with sigma sorted descending.

    The sign of each right singular vector is fixed so that its
    largest-magnitude component is nonnegative (first such component on
    ties), so results do not depend on the signs a LAPACK build picks.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class LstsqResult:
    solution: np.ndarray
    residual: float
    rank_deficient: bool


def qr_householder(m):
    """Thin QR of a dense ``m x k`` block with ``m >= k >= 1``.

    LAPACK's Householder QR with the signs of R's rows (and Q's columns)
    flipped so that the diagonal of ``r`` is >= 0.  Raises on non-finite
    input.
    """
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    rows, k = a.shape
    if rows < k or k < 1:
        raise ValueError("need rows >= cols >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entry in QR input")
    q, r = np.linalg.qr(a)
    sign, rank = _sign_rows(a, r)
    q *= sign
    return QRFactors(q, r, int(rank))


def _r_signed(a):
    """``(r, rank)`` of each block of a stack ``(..., m, k)``, m >= k, bitwise
    as :func:`qr_householder` gives them, without forming Q."""
    r = np.linalg.qr(a, mode="r")
    return r, _sign_rows(a, r)[1]


def _sign_rows(a, r):
    """Flip R's rows in place to a nonnegative diagonal; returns the flips
    and the rank (diagonal entries above ``RANK_TOL`` times ``||a||_F``)."""
    fro = np.sqrt((a * a).sum(axis=(-2, -1)))
    sign = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)
    r *= sign[..., :, None]
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return sign, np.count_nonzero(diag > RANK_TOL * fro[..., None], axis=-1)


def svd_small(m):
    """Thin SVD of a small dense matrix with canonical signs.

    LAPACK's SVD with each right singular vector (and its left partner)
    negated where needed so that its largest-magnitude component, the
    first one on ties, is nonnegative.  A wide input is factored through
    its transpose.  Raises on non-finite input.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError("expected a nonempty 2-d array")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entry in SVD input")
    return SVDFactors(*_svd_signed(a))


def _svd_signed(a):
    """Thin SVD ``(u, sigma, v)`` of one matrix or a stack ``(..., p, q)``.

    Wide input goes through its transpose and the signs follow
    :func:`svd_small`.  A stacked call gives each matrix bitwise the
    factors of its own call.
    """
    if a.shape[-2] < a.shape[-1]:
        v, sigma, ut = np.linalg.svd(np.swapaxes(a, -2, -1), full_matrices=False)
        u = np.swapaxes(ut, -2, -1)
    else:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
        v = np.swapaxes(vt, -2, -1)
    big = np.argmax(np.abs(v), axis=-2)[..., None, :]
    sign = np.where(np.take_along_axis(v, big, axis=-2) < 0.0, -1.0, 1.0)
    return u * sign, sigma, v * sign


def pad_tall(block):
    """Pad a wide block with zero rows so that rows >= cols (QR-compatible)."""
    rows, k = block.shape
    if rows >= k:
        return block
    return np.vstack([block, np.zeros((k - rows, k))])


def lstsq(a_j, rhs):
    """Minimum-norm least squares ``min ||a_j w - rhs||_2``.

    ``a_j`` is a :class:`ColumnSubmatrix`; ``rhs`` is a sparse n-vector.
    Components of ``rhs`` outside the active rows of ``a_j`` cannot be
    reached by any ``w``; they are excluded from the solve but included in
    the reported residual.  A rank-deficient block falls back to an SVD
    pseudoinverse and is flagged.
    """
    if not isinstance(a_j, ColumnSubmatrix):
        raise TypeError("a_j must be a ColumnSubmatrix")
    if not isinstance(rhs, SparseVector) or rhs.n != a_j.n_rows:
        raise ValueError("rhs must be a sparse vector of matching dimension")
    active = a_j.active_rows
    k = a_j.k
    b_act = np.zeros(len(active))
    pos, inside = sorted_lookup(active, rhs.idx)
    b_act[pos[inside]] = rhs.val[inside]
    out_sq = float(np.dot(rhs.val[~inside], rhs.val[~inside]))

    block = pad_tall(a_j.dense_block)
    b_pad = np.concatenate([b_act, np.zeros(block.shape[0] - len(b_act))])
    qr = qr_householder(block)
    qtb = qr.q_thin.T @ b_pad
    if qr.rank == k:
        w = np.linalg.solve(qr.r, qtb)
        flagged = False
    else:
        f = svd_small(qr.r)
        fro = float(np.sqrt((a_j.dense_block ** 2).sum()))
        inv = np.where(f.sigma > RANK_TOL * fro, 1.0 / np.where(f.sigma > 0, f.sigma, 1.0), 0.0)
        w = f.v @ (inv * (f.u.T @ qtb))
        flagged = True
    in_res = a_j.dense_block @ w - b_act
    residual = float(np.sqrt(np.dot(in_res, in_res) + out_sq))
    return LstsqResult(w, residual, flagged)


def lu_factor(a):
    """Dense LU with partial pivoting; returns (lu, perm) with a[perm] = L @ U.

    The one-block case of :func:`lu_factor_stack`.  Raises
    ``ZeroDivisionError`` on an exactly singular block.
    """
    lu = np.asarray(a, dtype=np.float64)
    k = lu.shape[0]
    if lu.shape != (k, k):
        raise ValueError("square block expected")
    lu, perm, singular = lu_factor_stack(lu[None])
    if singular[0]:
        raise ZeroDivisionError("singular block in LU factorization")
    return lu[0], perm[0]


def lu_factor_stack(a):
    """Partially pivoted LU of every block of a stack ``(s, k, k)``.

    Returns ``(lu, perm, singular)`` with ``a[i][perm[i]] = L_i @ U_i``.
    Each block takes the row operations of a one-block LU in the same order
    (pivot on the first largest magnitude, scale the column, subtract the
    outer product), so its factors are bitwise those of the block alone.
    ``singular`` marks the blocks that met an exactly zero pivot; their
    elimination goes on with a unit divisor, so their factors are not an LU.
    """
    lu = np.array(a, dtype=np.float64)
    s, k, _ = lu.shape
    perm = np.tile(np.arange(k), (s, 1))
    singular = np.zeros(s, dtype=bool)
    at = np.arange(s)
    for c in range(k):
        piv = c + np.argmax(np.abs(lu[:, c:, c]), axis=1)
        pivot = lu[at, piv, c]
        singular |= pivot == 0.0
        lu[at, piv], lu[:, c] = lu[:, c], lu[at, piv]
        perm[at, piv], perm[:, c] = perm[:, c], perm[at, piv]
        lu[:, c + 1:, c] /= np.where(pivot == 0.0, 1.0, pivot)[:, None]
        lu[:, c + 1:, c + 1:] -= lu[:, c + 1:, c, None] * lu[:, c, None, c + 1:]
    return lu, perm, singular


def lu_solve(factors, b):
    """Solve ``a x = b`` given ``lu_factor(a)`` output.

    ``b`` is a vector or a k-row matrix of right-hand sides, so
    ``lu_solve(f, np.eye(k))`` is the inverse of ``a``.  The one-block case
    of :func:`lu_solve_stack`.
    """
    lu, perm = factors
    b = np.asarray(b, dtype=np.float64)
    return lu_solve_stack(lu[None], perm[None], b.reshape(1, len(perm), -1)).reshape(b.shape)


def lu_solve_stack(lu, perm, b):
    """Solve ``a_i x_i = b_i`` for a stack of :func:`lu_factor_stack` factors.

    ``b`` has shape ``(s, k, r)``.  Each row of the substitutions is one
    stacked product, so every block's solve is bitwise that of the block
    alone.
    """
    k = lu.shape[1]
    x = np.take_along_axis(np.asarray(b, dtype=np.float64), perm[:, :, None], axis=1)
    for i in range(1, k):
        x[:, i] -= (lu[:, i:i + 1, :i] @ x[:, :i])[:, 0]
    for i in range(k - 1, -1, -1):
        x[:, i] = (x[:, i] - (lu[:, i:i + 1, i + 1:] @ x[:, i + 1:])[:, 0]) / lu[:, i, i, None]
    return x
