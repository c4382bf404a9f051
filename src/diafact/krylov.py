"""Applying the preconditioner: block LU of V, BiCGSTAB, condition estimate.

The factor V lives in a block-diagonal or block-upper-triangular subspace,
so applying V^{-1} reduces to dense LU solves on the diagonal blocks plus a
block back-substitution.  The solver is right-preconditioned BiCGSTAB with
the usual breakdown safeguards; convergence is declared when the recurrence
residual has dropped by the requested factor, and a true-residual check is
recorded alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import lu_factor, lu_solve, lu_solve_transpose
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
    timings: dict = field(default_factory=dict)


class VFactorization:
    """Per-block dense LU factors of V plus the off-block structure."""

    __slots__ = ("shape", "blocks", "v", "block_lu", "_off")

    def __init__(self, shape, blocks, v, block_lu, off):
        self.shape = shape
        self.blocks = blocks
        self.v = v
        self.block_lu = block_lu
        self._off = off

    @property
    def n(self):
        return self.blocks.n

    def solve(self, x):
        """Solve ``V z = x`` for dense ``x``."""
        b = self.blocks
        z = np.asarray(x, dtype=np.float64).copy()
        for k in range(b.n_blocks - 1, -1, -1):
            lo, hi = b.bounds(k)
            if not z[lo:hi].any():
                continue  # a zero segment solves to zero and updates nothing
            z[lo:hi] = lu_solve(self.block_lu[k], z[lo:hi])
            rows, cols, vals = self._off[k]
            if len(rows):
                z[: lo] -= np.bincount(rows, weights=vals * z[cols], minlength=lo)[:lo]
        return z

    def solve_transpose(self, x):
        """Solve ``V.T z = x`` for dense ``x``."""
        b = self.blocks
        z = np.asarray(x, dtype=np.float64).copy()
        for k in range(b.n_blocks):
            lo, hi = b.bounds(k)
            rows, cols, vals = self._off[k]
            if len(rows):
                contrib = np.bincount(cols - lo, weights=vals * z[rows], minlength=hi - lo)
                z[lo:hi] -= contrib
            if z[lo:hi].any():
                z[lo:hi] = lu_solve_transpose(self.block_lu[k], z[lo:hi])
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

    Diagonal blocks get dense LU with partial pivoting; for the
    block-upper-triangular shape the entries above the diagonal blocks are
    kept sparse for the block back-substitution.  Entries outside the shape
    or a singular block raise.
    """
    if shape not in ("block-diagonal", "block-upper-triangular"):
        raise ValueError(f"unknown shape '{shape}'")
    if v.n_rows != v.n_cols or v.n_cols != blocks.n:
        raise ValueError("V and block structure dimensions disagree")

    block_lu = []
    off = []
    for k in range(blocks.n_blocks):
        lo, hi = blocks.bounds(k)
        dense = np.zeros((hi - lo, hi - lo))
        off_rows, off_cols, off_vals = [], [], []
        for c in range(lo, hi):
            idx, val = v.column(c)
            above = idx < lo
            inside = (idx >= lo) & (idx < hi)
            below = idx >= hi
            if below.any() or (above.any() and shape == "block-diagonal"):
                raise ValueError(f"entry outside the {shape} shape in column {c}")
            dense[idx[inside] - lo, c - lo] = val[inside]
            if above.any():
                off_rows.append(idx[above])
                off_cols.append(np.full(int(above.sum()), c, dtype=np.int64))
                off_vals.append(val[above])
        try:
            block_lu.append(lu_factor(dense))
        except ZeroDivisionError:
            raise SingularBlockError(k) from None
        off.append(
            (
                np.concatenate(off_rows) if off_rows else np.empty(0, np.int64),
                np.concatenate(off_cols) if off_cols else np.empty(0, np.int64),
                np.concatenate(off_vals) if off_vals else np.empty(0),
            )
        )
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
    start = time.perf_counter()

    r = b - spmv(a, x) if x0 is not None else b.copy()
    r_hat = r.copy()
    r0_norm = float(np.linalg.norm(r))
    if r0_norm == 0.0:
        return x, SolveReport(0, CONVERGED, 0.0, 0.0,
                              timings={"solve": time.perf_counter() - start})

    def finish(its, status, rnorm):
        true_res = float(np.linalg.norm(b - spmv(a, x))) / r0_norm
        return x, SolveReport(its, status, rnorm / r0_norm, true_res,
                              timings={"solve": time.perf_counter() - start})

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
    sign vectors, applying V^{-1} and V^{-T} through the block LU factors.
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
