"""Applying the preconditioner: block LU of V, BiCGSTAB, condition estimate.

The factor V lives in a block-diagonal or block-upper-triangular subspace,
so applying V^{-1} reduces to one dense matvec per diagonal block, through
block inverses built once from the blocks' LU factors, plus a block
back-substitution.  The solver is right-preconditioned BiCGSTAB with
the usual breakdown safeguards; convergence is declared when the recurrence
residual has dropped by the requested factor, and a true-residual check is
recorded alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import lu_factor, lu_solve
from .sparse import spmv

__all__ = [
    "SingularBlockError",
    "VFactorization",
    "SolveReport",
    "factor_v",
    "apply_right_precond",
    "bicgstab",
    "cond_estimate",
]

BREAKDOWN_EPS = 1e-30

CONVERGED = "converged"
NO_CONVERGENCE = "no_convergence"
BREAKDOWN = "breakdown"


class SingularBlockError(Exception):
    """A diagonal block of V is singular; stabilization may help."""

    def __init__(self, block_index):
        super().__init__(f"singular diagonal block {block_index}")
        self.block_index = block_index


@dataclass
class SolveReport:
    """Metrics bundle for one preconditioned solve."""

    iterations: int
    status: str
    relative_residual: float
    true_relative_residual: float


class VFactorization:
    """Per-block dense LU of V, the block inverses built from it, and the
    off-block structure; ``rho`` counts the LU, solves apply the inverses."""

    __slots__ = (
        "shape", "blocks", "v", "block_lu", "block_inv", "_off", "_off_rows", "_bounds", "_block_of"
    )

    def __init__(self, shape, blocks, v, block_lu, off):
        self.shape = shape
        self.blocks = blocks
        self.v = v
        self.block_lu = block_lu
        self.block_inv = [lu_solve(f, np.eye(len(f[1]))) for f in block_lu]
        self._off = off
        # each block's distinct off-block rows, and each entry's slot among them
        self._off_rows = [np.unique(rows, return_inverse=True) for rows, _, _ in off]
        self._bounds = blocks.block_bounds.tolist()
        self._block_of = blocks.block_of().tolist()

    @property
    def n(self):
        return self.blocks.n

    def solve(self, x):
        """Solve ``V z = x`` for dense ``x`` by block back-substitution.

        The walk starts at the block of the last nonzero entry and, after
        each block, jumps straight to the block of the last nonzero above
        it: an all-zero segment solves to zero and updates nothing, so only
        the blocks a sparse right-hand side reaches are solved.  This one
        walk serves both the preconditioner apply and the V0 solves of the
        patterns stage.
        """
        z = np.asarray(x, dtype=np.float64).copy()
        hi = self.n
        while hi:
            if z[hi - 1] == 0.0:  # scan only past a zero: dense z is O(1) per block
                nz = np.flatnonzero(z[:hi])
                if not len(nz):
                    break
                hi = nz[-1] + 1
            k = self._block_of[hi - 1]
            lo, hi = self._bounds[k], self._bounds[k + 1]
            z[lo:hi] = self.block_inv[k] @ z[lo:hi]
            _, cols, vals = self._off[k]
            if len(cols):
                urows, slot = self._off_rows[k]
                z[urows] -= np.bincount(slot, weights=vals * z[cols], minlength=len(urows))
            hi = lo
        return z

    def solve_transpose(self, x):
        """Solve ``V.T z = x`` for dense ``x``."""
        z = np.asarray(x, dtype=np.float64).copy()
        for k in range(self.blocks.n_blocks):
            lo, hi = self._bounds[k], self._bounds[k + 1]
            rows, cols, vals = self._off[k]
            if len(rows):
                z[lo:hi] -= np.bincount(cols - lo, weights=vals * z[rows], minlength=hi - lo)
            if z[lo:hi].any():
                z[lo:hi] = self.block_inv[k].T @ z[lo:hi]
        return z

    def lu_nonzeros(self):
        """Nonzero counts (nz_l, nz_u) of the assembled LU factors of V.

        L carries its unit diagonal; for the block-upper shape the
        off-diagonal blocks of V belong to U.
        """
        nz_l = self.n  # unit diagonal
        nz_u = 0
        for lu, _ in self.block_lu:
            nz_l += int(np.count_nonzero(np.tril(lu, -1)))
            nz_u += int(np.count_nonzero(np.triu(lu)))
        nz_u += sum(len(rows) for rows, _, _ in self._off)
        return nz_l, nz_u


def factor_v(v, blocks, shape):
    """Factor V for fast inverse application under the given block shape.

    Diagonal blocks get dense LU with partial pivoting and an inverse built
    from it, so a solve applies each block as one matvec; for the
    block-upper-triangular shape the entries above the diagonal blocks are
    kept sparse for the block back-substitution.  Entries outside the shape
    or a singular block raise.
    """
    if shape not in ("block-diagonal", "block-upper-triangular"):
        raise ValueError(f"unknown shape '{shape}'")
    if v.n_rows != v.n_cols or v.n_cols != blocks.n:
        raise ValueError("V and block structure dimensions disagree")

    entry_cols = v._entry_columns()
    block_lu = []
    off = []
    for k in range(blocks.n_blocks):
        lo, hi = blocks.bounds(k)
        span = slice(v.col_ptr[lo], v.col_ptr[hi])
        rows, cols, vals = v.row_idx[span], entry_cols[span], v.values[span]
        above = rows < lo
        outside = (rows >= hi) | (above & (shape == "block-diagonal"))
        if outside.any():
            raise ValueError(
                f"entry outside the {shape} shape in column {cols[outside][0]}"
            )
        dense = np.zeros((hi - lo, hi - lo))
        dense[rows[~above] - lo, cols[~above] - lo] = vals[~above]
        try:
            block_lu.append(lu_factor(dense))
        except ZeroDivisionError:
            raise SingularBlockError(k) from None
        off.append((rows[above], cols[above], vals[above]))
    return VFactorization(shape, blocks, v, block_lu, off)


def apply_right_precond(w, vf, x):
    """Apply the right preconditioner: ``y = W (V^{-1} x)``."""
    return spmv(w, vf.solve(x))


def bicgstab(a, b, precond=None, tol=1e-8, maxit=1000, x0=None):
    """Right-preconditioned BiCGSTAB.

    ``precond`` maps a residual-space vector through W V^{-1} (identity when
    None).  Convergence means the recurrence residual dropped below
    ``tol`` times the initial residual; a breakdown of the recurrence
    coefficients, or a non-finite value in them or in a residual norm, is
    reported via the status instead of raising, with ``x`` left at the
    last finite iterate.
    """
    n = a.n_cols
    b = np.asarray(b, dtype=np.float64)
    if precond is None:
        precond = lambda x: x
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()

    r = b - spmv(a, x) if x0 is not None else b.copy()
    r_hat = r.copy()
    r0_norm = float(np.linalg.norm(r))
    if r0_norm == 0.0:
        return x, SolveReport(0, CONVERGED, 0.0, 0.0)

    def finish(its, status, rnorm):
        true_res = float(np.linalg.norm(b - spmv(a, x))) / r0_norm
        return x, SolveReport(its, status, rnorm / r0_norm, true_res)

    rho_prev = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    for it in range(1, maxit + 1):
        rho = float(np.dot(r_hat, r))
        if abs(rho) < BREAKDOWN_EPS * r0_norm * float(np.linalg.norm(r)) or rho == 0.0:
            return finish(it - 1, BREAKDOWN, float(np.linalg.norm(r)))
        if it == 1:
            p = r.copy()
        else:
            beta = (rho / rho_prev) * (alpha / omega)
            p = r + beta * (p - omega * v)
        p_hat = precond(p)
        v = spmv(a, p_hat)
        denom = float(np.dot(r_hat, v))
        if (
            not np.isfinite(denom)
            or abs(denom) < BREAKDOWN_EPS * r0_norm * float(np.linalg.norm(v))
            or denom == 0.0
        ):
            return finish(it - 1, BREAKDOWN, float(np.linalg.norm(r)))
        alpha = rho / denom
        s = r - alpha * v
        s_norm = float(np.linalg.norm(s))
        if not np.isfinite(s_norm):
            return finish(it - 1, BREAKDOWN, float(np.linalg.norm(r)))
        if s_norm <= tol * r0_norm:
            x = x + alpha * p_hat
            return finish(it, CONVERGED, s_norm)
        s_hat = precond(s)
        t = spmv(a, s_hat)
        tt = float(np.dot(t, t))
        if tt == 0.0:
            return finish(it - 1, BREAKDOWN, s_norm)
        omega = float(np.dot(t, s)) / tt
        if not np.isfinite(omega) or abs(omega) < BREAKDOWN_EPS:
            return finish(it - 1, BREAKDOWN, s_norm)
        r_next = s - omega * t
        r_norm = float(np.linalg.norm(r_next))
        if not np.isfinite(r_norm):
            return finish(it - 1, BREAKDOWN, float(np.linalg.norm(r)))
        x = x + alpha * p_hat + omega * s_hat
        r = r_next
        if r_norm <= tol * r0_norm:
            return finish(it, CONVERGED, r_norm)
        rho_prev = rho
    return finish(maxit, NO_CONVERGENCE, float(np.linalg.norm(r)))


def cond_estimate(vf, max_iter=5):
    """1-norm condition estimate ``kappa ~ ||V||_1 * est(||V^{-1}||_1)``.

    The inverse norm is estimated by the classic power-type iteration on
    sign vectors, applying V^{-1} and V^{-T} through the block inverses.
    """
    n = vf.n
    norm_v = vf.v.one_norm()
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(max_iter):
        y = vf.solve(x)
        est = float(np.abs(y).sum())
        xi = np.where(y >= 0, 1.0, -1.0)
        z = vf.solve_transpose(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= float(np.dot(z, x)):
            break
        x = np.zeros(n)
        x[j] = 1.0
    return norm_v * est
