"""Applying the preconditioner: inverses of V's blocks, BiCGSTAB, condition estimate.

The factor V lives in a block-diagonal or block-upper-triangular subspace.
Its diagonal blocks are gathered into stacks of equally sized blocks, and
each stack is inverted by one call of numpy's LAPACK.  Only the inverses
are kept, in one list of the levels of the blocks' DAG, which no other
module reads.  A level holds its indices, its blocks' inverses and V's
entries above the blocks in its rows and in its columns, nothing of
length n.  A solve walks that list: each level subtracts at its indices
the entries that update it, one sum per position, and then applies its
blocks of each size as one stacked product.  The same walk serves V^T
with the levels reversed, and a sparse walk that drops as it goes forms S
from V0 for the patterns stage.  The nonzeros of V's block LU, which
``rho`` counts, come from the package's own stacked LU, run only when
they are first read.
The solver is right-preconditioned BiCGSTAB with the usual breakdown
safeguards; convergence is declared when the recurrence residual has
dropped by the requested factor, and a true-residual check is recorded
alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import lu_factor_stack
from .sparse import SparseMatrix, _col_ptr, _require_integer, merge_sum, sparse_product, spmv

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
    """The inverses of V's diagonal blocks and the levels of the walk that
    applies them.

    ``levels`` lists the levels of the block DAG in walk order, each a tuple
    ``(pos, stacks, into, out_of)``: the level's indices, ascending; one
    ``(at, inv)`` per block size, the places in ``pos`` of the level's
    blocks of that size, shape ``(b, k)``, and their inverses, shape
    ``(b, k, k)``; and V's entries above the blocks in the level's rows
    and in its columns, as triplets ``(place in pos, column or row,
    value)`` in CSC order; the walks of :meth:`solve`, :meth:`solve_transpose`
    and :meth:`solve_sparse` read them in place.  :attr:`lu_nnz` counts
    V's block LU for ``rho`` on its first read, and :attr:`applied_nnz`
    counts the values a walk applies.
    """

    __slots__ = ("blocks", "v", "levels", "_lu_nnz")

    def __init__(self, blocks, v, inverses, above):
        self.blocks = blocks
        self.v = v
        self.levels = _block_levels(blocks, inverses, above)
        self._lu_nnz = None

    @property
    def lu_nnz(self):
        """The nonzeros of V's assembled LU factors: L with its unit diagonal,
        U with the entries above the blocks, and the rest of both in the
        LU that :func:`lu_factor_stack` gives each diagonal block.  Counted
        on the first read, which factors the blocks once, and then kept."""
        if self._lu_nnz is None:
            stacks, side = _diagonal_stacks(self.v, self.blocks)
            self._lu_nnz = self.blocks.n + int(np.count_nonzero(side > 0)) + sum(
                int(np.count_nonzero(lu_factor_stack(dense)[0])) for _, dense in stacks)
        return self._lu_nnz

    @property
    def applied_nnz(self):
        """The values a walk applies: ``k**2`` per diagonal block of size k,
        and V's entries above the blocks."""
        above = sum(len(into[0]) for _, _, into, _ in self.levels)
        return int((self.blocks.sizes ** 2).sum()) + above

    @property
    def n(self):
        return self.blocks.n

    def solve(self, x):
        """Solve ``V z = x`` for a vector ``x``; any other shape raises
        ``ValueError``.

        The walk goes level by level through the block DAG.  At each level
        it subtracts from ``x`` at the level's indices the entries above
        the blocks in the level's rows times the solution so far, one sum
        per position in CSC order, and applies each stack of the level's
        equally sized blocks as one product with their inverses.
        """
        return self._walk(x, False)

    def solve_transpose(self, x):
        """Solve ``V.T z = x``: the walk of :meth:`solve`, levels reversed,
        with the entries above the blocks in each level's columns."""
        return self._walk(x, True)

    def _walk(self, x, transpose):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError("dimension mismatch")
        z = np.zeros(self.n)
        for pos, stacks, into, out_of in reversed(self.levels) if transpose else self.levels:
            here, other, vals = out_of if transpose else into
            r = x[pos] - np.bincount(here, weights=vals * z[other], minlength=len(pos))
            for at, inv in stacks:
                z[pos[at], None] = (np.swapaxes(inv, 1, 2) if transpose else inv) @ r[at, None]
        return z

    def solve_sparse(self, c, tau):
        """``V^{-1} c`` for a sparse matrix ``c`` by a sparse walk over the
        levels.  A level's X is one :func:`sparse_product` of its block
        inverses, made sparse when the walk reaches it, with its rows of
        ``c``.  Before X updates the later levels, its entries below ``tau``
        times the column's largest magnitude so far go, the diagonal kept;
        the last level drops nothing.  Columns are solved independently."""
        n, width = c.shape
        if n != self.n:
            raise ValueError("dimension mismatch")
        level, local = np.empty((2, n), dtype=np.int64)  # each index's level and place there
        for lev, (pos, *_) in enumerate(self.levels):
            level[pos], local[pos] = lev, np.arange(len(pos))
        peak = np.zeros(width)  # each column's largest magnitude so far
        parts = []
        for lev, (pos, stacks, _, (there, rows, above)) in enumerate(self.levels):
            here = level[c.row_idx] == lev
            mine = c.masked(here)
            x = sparse_product(_sparse_inverse(len(pos), stacks), SparseMatrix(
                len(pos), width, mine.col_ptr, local[mine.row_idx], mine.values, validate=False))
            if len(there):  # every level but the last updates a later one
                cols, mag = x._entry_columns(), np.abs(x.values)
                np.maximum.at(peak, cols, mag)
                x = x.masked((mag >= tau * peak[cols]) | (pos[x.row_idx] == cols))
                update = sparse_product(SparseMatrix.from_keys(n, len(pos), there * n + rows, above), x)
                rest = c.masked(~here)
                c = SparseMatrix.from_keys(n, width, *merge_sum(
                    np.concatenate([rest.entry_keys(), update.entry_keys()]),
                    np.concatenate([rest.values, -update.values])))
            parts.append(SparseMatrix(n, width, x.col_ptr, pos[x.row_idx], x.values, validate=False))
        if len(parts) == 1:
            return parts[0]
        keys = np.concatenate([x.entry_keys() for x in parts])
        order = np.argsort(keys, kind="stable")  # the levels' rows are disjoint: only sort
        vals = np.concatenate([x.values for x in parts])
        return SparseMatrix.from_keys(n, width, keys[order], vals[order])


def _sparse_inverse(m, stacks):
    """A level's block inverses as one sparse m x m matrix, no zeros stored."""
    # column by column, so each block's keys ascend
    keys = np.concatenate([(at[:, :, None] * m + at[:, None, :]).ravel() for at, _ in stacks])
    vals = np.concatenate([np.swapaxes(inv, 1, 2).ravel() for _, inv in stacks])
    order = np.argsort(keys, kind="stable")  # fast on ascending runs
    order = order[vals[order] != 0.0]
    return SparseMatrix.from_keys(m, m, keys[order], vals[order])


def _block_levels(blocks, inverses, above):
    """The levels of :attr:`VFactorization.levels`.

    The entries of ``above``, V's entries above its diagonal blocks, couple
    blocks: solving block ``block_of[c]`` updates block ``block_of[r]``.
    A block's level is one more than the level of any block whose solve
    updates it, so the blocks of one level do not touch.  An update goes
    to an earlier block, so one pass over the couplings in descending
    source order reads each source's level only once it is final.
    ``inverses`` holds one ``(members, inv)`` per block size: the block
    numbers, ascending, and their inverses.
    """
    block_of = blocks.block_of()
    cols, rows = above._entry_columns(), above.row_idx
    src, dst = block_of[cols], block_of[rows]
    n_blocks = blocks.n_blocks
    level = [0] * n_blocks
    for edge in np.unique(src * n_blocks + dst)[::-1].tolist():
        s, d = divmod(edge, n_blocks)
        level[d] = max(level[d], level[s] + 1)
    level = np.array(level, dtype=np.int64)
    count = int(level.max()) + 1
    positions = _by_level(level[block_of], count, np.arange(blocks.n))
    local = np.empty(blocks.n, dtype=np.int64)  # each index's place in its level
    for (pos,) in positions:
        local[pos] = np.arange(len(pos))
    stacks = [[] for _ in range(count)]
    lo = blocks.block_bounds[:-1]
    for members, inv in inverses:
        for lev, (start, inv_l) in enumerate(_by_level(level[members], count, lo[members], inv)):
            if len(start):
                stacks[lev].append((local[start[:, None] + np.arange(inv.shape[1])], inv_l))
    into = _by_level(level[dst], count, local[rows], cols, above.values)
    out_of = _by_level(level[src], count, local[cols], rows, above.values)
    return [(pos, *parts) for (pos,), *parts in zip(positions, stacks, into, out_of)]


def _by_level(level, count, *arrays):
    """Per level ``0 .. count - 1``, the slices of ``arrays`` at the items
    whose ``level`` it is, in their order."""
    order = np.argsort(level, kind="stable")
    ptr = _col_ptr(level, count)
    arrays = [a[order] for a in arrays]
    return [tuple(a[lo:hi] for a in arrays) for lo, hi in zip(ptr[:-1], ptr[1:])]


def _diagonal_stacks(v, blocks):
    """V's diagonal blocks, gathered in one index pass, and where V's
    entries lie.

    Returns ``(stacks, side)``: one ``(members, dense)`` per block size,
    ascending, with the block numbers, ascending, and their dense blocks,
    shape ``(b, k, k)``; and per entry of V, in CSC order, the sign of its
    column's block minus its row's block: 0 inside a diagonal block, 1
    above the blocks, -1 below them.
    """
    cols = v._entry_columns()
    block_of = blocks.block_of()
    row_block, col_block = block_of[v.row_idx], block_of[cols]
    side = np.sign(col_block - row_block)
    lo, sizes = blocks.block_bounds[:-1], blocks.sizes
    slot = np.empty(blocks.n_blocks, dtype=np.int64)  # each block's place in its stack
    stacks = []
    for size in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == size)
        slot[members] = np.arange(len(members))
        e = np.flatnonzero((side == 0) & (sizes[col_block] == size))
        b = col_block[e]
        dense = np.zeros((len(members), size, size))
        dense[slot[b], v.row_idx[e] - lo[b], cols[e] - lo[b]] = v.values[e]
        stacks.append((members, dense))
    return stacks, side


def factor_v(v, blocks, shape):
    """Invert V's diagonal blocks for fast inverse application under the
    given block shape.

    The diagonal blocks of one size are gathered into one dense stack and
    inverted by one ``np.linalg.inv`` call; only the inverses are kept.
    For the block-upper-triangular shape the entries above the diagonal
    blocks stay sparse for the walk of :meth:`VFactorization.solve`.
    Shape errors (an unknown shape, dimensions that disagree, an entry
    outside the shape) and then a non-finite entry anywhere in V are
    checked over the whole of V before any block is inverted and raise
    ``ValueError``.  A block is singular when LAPACK meets an exactly zero
    pivot in it (a zero sign from ``np.linalg.slogdet``); one
    :class:`SingularBlockError` names every singular block.
    """
    if shape not in ("block-diagonal", "block-upper-triangular"):
        raise ValueError(f"unknown shape '{shape}'")
    if v.n_rows != v.n_cols or v.n_cols != blocks.n:
        raise ValueError("V and block structure dimensions disagree")

    stacks, side = _diagonal_stacks(v, blocks)
    above = side > 0
    outside = (side < 0) | (above & (shape == "block-diagonal"))
    if outside.any():
        raise ValueError(f"entry outside the {shape} shape in column {v._entry_columns()[outside][0]}")
    bad = ~np.isfinite(v.values)  # LAPACK's inverse would pass NaN on silently
    if bad.any():
        raise ValueError(f"non-finite entry of V in column {v._entry_columns()[bad][0]}")
    inverses, singular = [], []
    for members, dense in stacks:
        try:
            inverses.append((members, np.linalg.inv(dense)))
        except np.linalg.LinAlgError:
            zero = np.linalg.slogdet(dense)[0] == 0.0
            if not zero.any():
                raise
            singular.extend(members[zero].tolist())
    if singular:
        raise SingularBlockError(singular)
    return VFactorization(blocks, v, inverses, v.masked(above))


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
    last finite iterate.  ``b`` must be a finite vector of length n,
    ``tol`` finite and positive and ``maxit`` a nonnegative integer.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    _require_integer("maxit", maxit, 0)
    n = a.n_cols
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,) or not np.isfinite(b).all():
        raise ValueError(f"b must be a finite vector of length {n}")
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

    # from p = v = 0 the first update below gives p = r
    rho_prev = alpha = omega = 1.0
    p = v = np.zeros(n)
    for it in range(1, maxit + 1):
        rho = float(np.dot(r_hat, r))
        if abs(rho) < BREAKDOWN_EPS * r0_norm * float(np.linalg.norm(r)) or rho == 0.0:
            return finish(it - 1, BREAKDOWN, float(np.linalg.norm(r)))
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
