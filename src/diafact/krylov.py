"""Applying the preconditioner: block LU of V, BiCGSTAB, condition estimate.

The factor V lives in a block-diagonal or block-upper-triangular subspace.
Its diagonal blocks are factored as stacks of equally sized blocks, and
each block's inverse is built once from its LU.  A solve walks the DAG of
the blocks level by level: the blocks of one size in a level are applied as
one stacked product, and the entries above the blocks update the later
levels as a sparse pass.  The same walk serves a vector or a block of
right-hand sides, and V^T with the levels reversed.  The solver is
right-preconditioned BiCGSTAB with the usual breakdown safeguards;
convergence is declared when the recurrence residual has dropped by the
requested factor, and a true-residual check is recorded alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import lu_factor_stack, lu_solve_stack
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
_COND_STEPS = 5  # steps of cond_estimate's inverse-norm iteration, at most

CONVERGED = "converged"
NO_CONVERGENCE = "no_convergence"
BREAKDOWN = "breakdown"


class SingularBlockError(Exception):
    """Diagonal blocks of V are exactly singular; stabilization may help.

    ``blocks`` holds every singular block in ascending order and
    ``block_index`` the first of them.
    """

    def __init__(self, blocks):
        self.blocks = tuple(sorted(int(b) for b in np.atleast_1d(blocks)))
        self.block_index = self.blocks[0]
        super().__init__(
            f"singular diagonal block {self.block_index} ({len(self.blocks)} singular in all)"
        )


@dataclass
class SolveReport:
    """Metrics bundle for one preconditioned solve.

    ``residual_gap`` is true when the recurrence residual and the true
    relative residual ``||b - A x|| / ||r0||`` differ by more than
    ``10 * tol``, so the recurrence no longer tracks the iterate.
    """

    iterations: int
    status: str
    relative_residual: float
    true_relative_residual: float
    residual_gap: bool = False


class VFactorization:
    """Dense LU of V's diagonal blocks, stacked by size, and the level plan
    that applies the inverses built from it; ``rho`` counts the LU.

    ``lu_stacks`` holds one ``(members, lu, perm)`` per block size: the
    block numbers, ascending, and their :func:`lu_factor_stack` factors.
    """

    __slots__ = (
        "shape", "blocks", "v", "lu_stacks", "_off_nnz", "_order", "_place", "_level_of", "_levels"
    )

    def __init__(self, shape, blocks, v, lu_stacks, off):
        self.shape = shape
        self.blocks = blocks
        self.v = v
        self.lu_stacks = lu_stacks
        self._off_nnz = len(off[0])
        self._order, self._place, self._level_of, self._levels = _level_plan(
            blocks, lu_stacks, *off)

    @property
    def n(self):
        return self.blocks.n

    def solve(self, x):
        """Solve ``V z = x`` for a vector ``x`` or an ``(n, b)`` block of them.

        The walk goes level by level through the block DAG, from the level
        of the first nonzero entry.  It first subtracts the off-block
        entries that update the level's blocks, then applies each stack of
        the level's equally sized blocks as one product with their
        inverses, one matrix-vector product per block and right-hand side,
        so a column's result does not depend on the others.  When ``x``
        has a zero entry, a block whose right-hand side is all zero is
        skipped; without one every block is applied, since a block that
        cancels to zero solves to zero either way.  This one walk serves
        the preconditioner apply and the V0 solves of the patterns stage.
        """
        return self._walk(x, False)

    def solve_transpose(self, x):
        """Solve ``V.T z = x``: the walk of :meth:`solve`, levels reversed."""
        return self._walk(x, True)

    def _walk(self, x, transpose):
        x = np.asarray(x, dtype=np.float64)
        # one right-hand side per row, positions in the order of the stacks
        z = np.ascontiguousarray(x.T[..., self._order]).reshape(-1, self.n)
        b = len(z)
        # the levels before the first nonzero entry solve to zero and update
        # nothing; positions are in level order
        reached = z.any(axis=0)
        if transpose:
            levels = self._levels[self._level_of[-1 - reached[::-1].argmax()]::-1]
        else:
            levels = self._levels[self._level_of[reached.argmax()]:]
        sparse = not z.all()
        for update, update_t, stacks in levels:
            _subtract(z, update_t if transpose else update)
            for lo, hi, k, inv in stacks:
                if transpose:
                    inv = np.swapaxes(inv, 1, 2)
                seg = z[:, lo:hi].reshape(b, -1, k, 1)  # (right-hand side, block, row)
                live = np.flatnonzero(seg.any(axis=2)) if sparse else None
                if live is None or len(live) == b * len(inv):  # no gather of the inverses
                    seg[...] = inv @ seg
                elif len(live):
                    rhs, blk = np.divmod(live, len(inv))
                    seg[rhs, blk] = inv[blk] @ seg[rhs, blk]
        z = z[:, self._place]
        return z.T if x.ndim == 2 else z[0]

    def lu_nonzeros(self):
        """Nonzero counts (nz_l, nz_u) of the assembled LU factors of V.

        L carries its unit diagonal; for the block-upper shape the
        off-diagonal blocks of V belong to U.
        """
        nz_l = self.n  # unit diagonal
        nz_u = self._off_nnz
        for _, lu, _ in self.lu_stacks:
            nz_l += int(np.count_nonzero(np.tril(lu, -1)))
            nz_u += int(np.count_nonzero(np.triu(lu)))
        return nz_l, nz_u


def _level_plan(blocks, lu_stacks, rows, cols, vals):
    """The walk of :meth:`VFactorization.solve`: an order of the positions
    and one entry per level.

    The entries ``(rows, cols, vals)`` above the diagonal blocks, in CSC
    order, couple blocks: solving block ``block_of[c]`` updates block
    ``block_of[r]``.  A block's level is one more than the level of any
    block whose solve updates it, so the blocks of one level do not touch.
    Each level holds the update of its blocks for ``solve`` and for
    ``solve_transpose``, and one stack per block size: its span in the
    position order, the block size and the blocks' inverses.  The updates
    subtract in the order of a block-by-block back-substitution: in
    ``solve`` a row takes one sum per updating block, from the last block
    down; in ``solve_transpose`` a column takes one sum over its entries.
    """
    block_of = blocks.block_of()
    src, dst = block_of[cols], block_of[rows]
    level = np.zeros(blocks.n_blocks, dtype=np.int64)
    while len(src):  # longest path from the blocks nothing updates
        deeper = level.copy()
        np.maximum.at(deeper, dst, level[src] + 1)
        if np.array_equal(deeper, level):
            break
        level = deeper
    lo = blocks.block_bounds[:-1]
    inverses = [
        (members, lu_solve_stack(lu, perm, np.broadcast_to(np.eye(lu.shape[1]), lu.shape)))
        for members, lu, perm in lu_stacks
    ]
    order, stacks = [], []
    for lev in range(int(level.max()) + 1):
        stacks.append([])
        for members, inv in inverses:
            at = level[members] == lev
            if at.any():
                k, start = inv.shape[1], sum(map(len, order))
                order.append((lo[members[at], None] + np.arange(k)).ravel())
                stacks[-1].append((start, start + len(order[-1]), k, inv[at]))
    order = np.concatenate(order)
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    plan = []
    for lev, level_stacks in enumerate(stacks):
        e = np.flatnonzero(level[dst] == lev)
        e = e[np.lexsort((-src[e], rows[e]))]
        update = _update(place[cols[e]], place[rows[e]], src[e], vals[e])
        e = np.flatnonzero(level[src] == lev)
        update_t = _update(place[rows[e]], place[cols[e]], cols[e], vals[e])
        plan.append((update, update_t, level_stacks))
    return order, place, np.repeat(level, blocks.sizes)[order], plan


def _update(src, tgt, key, vals):
    """A sparse update ``z[tgt] -= vals * z[src]``: the entries of a run of
    equal ``(tgt, key)`` are summed in order, and the runs subtract in
    order.  Returns (src, run of each entry, vals, target of each run)."""
    start = np.ones(len(tgt), dtype=bool)
    start[1:] = (tgt[1:] != tgt[:-1]) | (key[1:] != key[:-1])
    return src, np.cumsum(start) - 1, vals, tgt[start]


def _subtract(z, update):
    """Apply an :func:`_update` to every row of the C-ordered ``z``."""
    src, run, vals, tgt = update
    if len(src):
        b, n, runs = *z.shape, len(tgt)
        # the same update on each row, as flat indices into z; a vector
        # skips the shift (shifting by 0 made a one-vector solve through the
        # 72 levels of the cd2d-60 V about twice as slow)
        if b > 1:
            shift = np.arange(b)[:, None]
            src, tgt = (src + n * shift).ravel(), (tgt + n * shift).ravel()
            run, vals = (run + runs * shift).ravel(), np.tile(vals, b)
        flat = z.reshape(-1)
        np.subtract.at(flat, tgt, np.bincount(run, weights=vals * flat[src], minlength=len(tgt)))


def factor_v(v, blocks, shape):
    """Factor V for fast inverse application under the given block shape.

    The diagonal blocks of one size are gathered into one dense stack in
    one index pass and factored together by :func:`lu_factor_stack`, and
    their inverses are built from that LU; for the block-upper-triangular
    shape the entries above the diagonal blocks stay sparse for the walk of
    :meth:`VFactorization.solve`.  Shape errors (an unknown shape,
    dimensions that disagree, an entry outside the shape) are checked over
    the whole of V before any block is factored and raise ``ValueError``;
    then one :class:`SingularBlockError` names every exactly singular block.
    """
    if shape not in ("block-diagonal", "block-upper-triangular"):
        raise ValueError(f"unknown shape '{shape}'")
    if v.n_rows != v.n_cols or v.n_cols != blocks.n:
        raise ValueError("V and block structure dimensions disagree")

    cols = v._entry_columns()
    block_of = blocks.block_of()
    row_block, col_block = block_of[v.row_idx], block_of[cols]
    above = row_block < col_block
    outside = (row_block > col_block) | (above & (shape == "block-diagonal"))
    if outside.any():
        raise ValueError(f"entry outside the {shape} shape in column {cols[outside][0]}")
    lo, sizes = blocks.block_bounds[:-1], blocks.sizes
    slot = np.empty(blocks.n_blocks, dtype=np.int64)  # each block's place in its stack
    stacks, singular = [], []
    for size in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == size)
        slot[members] = np.arange(len(members))
        e = np.flatnonzero((row_block == col_block) & (sizes[col_block] == size))
        b = col_block[e]
        dense = np.zeros((len(members), size, size))
        dense[slot[b], v.row_idx[e] - lo[b], cols[e] - lo[b]] = v.values[e]
        lu, perm, bad = lu_factor_stack(dense)
        stacks.append((members, lu, perm))
        singular.extend(members[bad].tolist())
    if singular:
        raise SingularBlockError(singular)
    return VFactorization(shape, blocks, v, stacks, (v.row_idx[above], cols[above], v.values[above]))


def apply_right_precond(w, vf, x):
    """Apply the right preconditioner: ``y = W (V^{-1} x)``."""
    return spmv(w, vf.solve(x))


def bicgstab(a, b, precond=None, tol=1e-8, maxit=1000):
    """Right-preconditioned BiCGSTAB from the zero vector.

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
    x = np.zeros(n)
    r = b.copy()
    r_hat = r.copy()
    r0_norm = float(np.linalg.norm(r))
    if r0_norm == 0.0:
        return x, SolveReport(0, CONVERGED, 0.0, 0.0)

    def finish(its, status, rnorm):
        true_res = float(np.linalg.norm(b - spmv(a, x))) / r0_norm
        gap = not abs(rnorm / r0_norm - true_res) <= 10.0 * tol
        return x, SolveReport(its, status, rnorm / r0_norm, true_res, gap)

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


def cond_estimate(vf):
    """1-norm condition estimate ``kappa ~ ||V||_1 * est(||V^{-1}||_1)``.

    The inverse norm is estimated by the classic power-type iteration on
    sign vectors, applying V^{-1} and V^{-T} through the block inverses.
    """
    n = vf.n
    norm_v = vf.v.one_norm()
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(_COND_STEPS):
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
