"""Shared constructors for the test suite."""

import numpy as np

from diafact.patterns import _V0Solver
from diafact.sparse import SparseMatrix, SubspacePattern, merge_sum


def random_sparse(rng, n, density=0.15, dominant=True):
    """Random sparse square matrix, diagonally dominant by default."""
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    if dominant:
        a += np.diag(np.abs(a).sum(axis=1) + 1.0 + rng.random(n))
    else:
        a += np.diag(rng.random(n) + 0.5)
    return SparseMatrix.from_dense(a)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_pattern(rng, n, per_col, with_diag=True):
    cols = []
    for j in range(n):
        extra = rng.choice(n, size=min(per_col, n), replace=False)
        c = np.unique(np.concatenate([extra, [j]]) if with_diag else extra)
        cols.append(c if len(c) else np.array([j]))
    return SubspacePattern(n, cols)


def full_pattern(n):
    return SubspacePattern(n, [np.arange(n)] * n)


def drop_reference(idx, val, rule, protect):
    """One vector's :class:`DropRule`, written for that vector alone."""
    if len(idx) == 0 or rule.unused:
        return idx, val
    mag = np.abs(val)
    keep = np.ones(len(idx), dtype=bool)
    if rule.tau > 0.0:
        keep = mag >= rule.tau * mag.max()
    if rule.p > 0 and keep.sum() > rule.p:
        cand = np.nonzero(keep)[0]
        ranked = cand[np.lexsort((idx[cand], -mag[cand]))]
        keep = np.zeros(len(idx), dtype=bool)
        keep[ranked[: rule.p]] = True
    keep |= idx == protect
    return idx[keep], val[keep]


def neumann_pattern_reference(a, v0_pattern, cfg, blocks=None, v0_shape="block-diagonal"):
    """Column-by-column construction of the sparsified-powers W pattern.

    Each column of S = V0^{-1}(I - P_{V0})A is solved and dropped on its
    own, and each column j runs its own power loop from e_j: multiply by S,
    drop with the level rule (diagonal protected), stop once empty, and
    accumulate; a column that cancels to nothing keeps its diagonal.  The
    off-diagonal V0 pattern is then removed column by column.
    """
    n = a.n_cols
    solver = _V0Solver(a, v0_pattern, blocks, v0_shape)
    s_cols = []
    for j in range(n):
        idx, val = a.column(j)
        inside = np.isin(idx, v0_pattern.cols[j])
        si, sv = solver.solve_sparse(n, idx[~inside], val[~inside])
        s_cols.append(drop_reference(si, sv, cfg.initial_drop, j))
    s = SparseMatrix.from_columns(n, s_cols)

    cols = []
    for j in range(n):
        acc_i, acc_v = np.array([j]), np.array([1.0])
        t_i, t_v = acc_i, acc_v
        for _ in range(cfg.k):
            parts = [s.column(c) for c in t_i]
            t_i, t_v = merge_sum(
                np.concatenate([ri for ri, _ in parts]),
                np.concatenate([rv * x for (_, rv), x in zip(parts, t_v)]),
            )
            t_i, t_v = drop_reference(t_i, t_v, cfg.level_drop, j)
            if len(t_i) == 0:
                break
            acc_i, acc_v = merge_sum(np.concatenate([acc_i, t_i]), np.concatenate([acc_v, t_v]))
        c = acc_i if len(acc_i) else np.array([j])
        off_v0 = v0_pattern.cols[j][v0_pattern.cols[j] != j]
        cols.append(np.setdiff1d(c, off_v0))
    return SubspacePattern(n, cols)
