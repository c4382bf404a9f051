"""Shared constructors for the test suite."""

import numpy as np

from diafact.kernels import lstsq, pad_tall, qr_householder, svd_small
from diafact.patterns import _V0Solver
from diafact.preprocess import BlockStructure, block_pattern
from diafact.sparse import SparseMatrix, SparseVector, SubspacePattern, extract_columns, merge_sum


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


def lu_factor_reference(a):
    """Row-by-row partially pivoted LU of one block: (lu, perm) with
    a[perm] = L @ U, or None when a pivot is exactly zero."""
    lu = np.array(a, dtype=np.float64)
    k = lu.shape[0]
    perm = np.arange(k)
    for c in range(k):
        piv = c + int(np.argmax(np.abs(lu[c:, c])))
        if lu[piv, c] == 0.0:
            return None
        lu[[c, piv]] = lu[[piv, c]]
        perm[[c, piv]] = perm[[piv, c]]
        lu[c + 1:, c] /= lu[c, c]
        lu[c + 1:, c + 1:] -= np.outer(lu[c + 1:, c], lu[c, c + 1:])
    return lu, perm


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
        col = solver.solve_sparse(SparseMatrix.from_columns(n, [(idx[~inside], val[~inside])]))
        s_cols.append(drop_reference(col.row_idx, col.values, cfg.initial_drop, j))
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


def _qt_at(q_thin, active_rows, positions):
    """Columns of Q_j^T at global rows ``positions`` (zero outside the active rows)."""
    m = np.zeros((q_thin.shape[1], len(positions)))
    for t, p in enumerate(positions):
        hit = np.flatnonzero(active_rows == p)
        if len(hit):
            m[:, t] = q_thin[hit[0]]
    return m


def _stabilized_reference(q_thin, active_rows, vcols, j, r):
    """A stabilized v_j over ``vcols``: ``r`` at j, and on the admissible
    positions below j that A_j can see, the leading right singular vector
    of those columns of Q_j^T, signed so that its left partner has a
    nonnegative product with the column of Q_j^T at j.  With no such
    position, ``r e_j``."""
    v = np.where(vcols == j, r, 0.0)
    below = np.flatnonzero(vcols < j)
    m_hat = _qt_at(q_thin, active_rows, vcols[below])
    live = np.any(m_hat != 0.0, axis=0)
    if live.any():
        f = svd_small(m_hat[:, live])
        p_j = _qt_at(q_thin, active_rows, [j])[:, 0]
        v[below[live]] = f.v[:, 0] if f.u[:, 0] @ p_j >= 0.0 else -f.v[:, 0]
    return v


def diaf_q_column_reference(a, w_pattern, v_pattern, j, policy, target_norm=1.0):
    """One diaf-q column solved on its own, kernel by kernel.

    Returns ``(w_j, v_j, residual, stabilized, rank_deficient, fallback)``
    with ``w_j`` over ``w_pattern.cols[j]`` and ``v_j`` over
    ``v_pattern.cols[j]`` as dense local vectors.  A full-rank solution
    drops the entries below ``m k u (max|r_ii| / min|r_ii|) ||w_j||`` and
    the residual is that of the dropped ``w_j``.
    """
    n = a.n_cols
    vcols = v_pattern.cols[j]
    sub = extract_columns(a, w_pattern.cols[j])
    block = pad_tall(sub.dense_block)
    qr = qr_householder(block)
    m_j = _qt_at(qr.q_thin, sub.active_rows, vcols)
    live = np.any(m_j != 0.0, axis=0)
    v_loc = np.zeros(len(vcols))
    fallback = stabilized = False
    if live.any():
        f = svd_small(m_j[:, live])
        v_loc[live] = f.v[:, 0]
        fallback = f.sigma[0] == 0.0
    else:
        fallback = True
    dpos = int(np.flatnonzero(vcols == j)[0])
    if fallback:
        v_loc[:] = 0.0
        v_loc[dpos] = target_norm
    else:
        if v_loc[dpos] < 0.0:
            v_loc = -v_loc
        if abs(v_loc[dpos]) < policy.threshold:
            stabilized = True
            v_loc = _stabilized_reference(qr.q_thin, sub.active_rows, vcols, j, policy.r)
        else:
            v_loc = v_loc * target_norm
    keep = v_loc != 0.0
    sol = lstsq(sub, SparseVector(n, vcols[keep], v_loc[keep]))
    w = sol.solution.copy()
    if not sol.rank_deficient:
        d = np.abs(np.diag(qr.r))
        bound = block.shape[0] * block.shape[1] * np.finfo(float).eps / 2 * d.max() / d.min()
        w[np.abs(w) < bound * np.linalg.norm(w)] = 0.0
    b = np.zeros(n)
    b[vcols] = v_loc
    full = np.zeros(n)
    full[sub.active_rows] = sub.dense_block @ w
    residual = float(np.linalg.norm(full - b))
    return w, v_loc, residual, stabilized, sol.rank_deficient, fallback


def diaf_s_column_reference(a, w_pattern, v_pattern, j):
    """One diaf-s column solved on its own: ``(w_j, residual, rank_deficient)``."""
    vcols = v_pattern.cols[j]
    sub = extract_columns(a, w_pattern.cols[j])
    removed = np.isin(sub.active_rows, vcols)
    a_hat = sub.dense_block[~removed]
    qr = qr_householder(pad_tall(a_hat))
    f = svd_small(qr.r)
    w = f.v[:, -1]
    y = sub.dense_block @ w
    yj = y[np.flatnonzero(sub.active_rows == j)[0]] if j in sub.active_rows else 0.0
    if yj < 0.0 or (yj == 0.0 and w[np.argmax(np.abs(w))] < 0.0):
        w = -w
    return w, float(f.sigma[-1]), bool(a_hat.shape[0] < sub.k or qr.rank < sub.k)


def sweep_problem(seed, n=60):
    """A square matrix with W and V patterns whose column problems mix cases.

    Blocks A_j come in many shapes, tall and wide; the columns 1 to 6 of A
    share the two rows {0, 1}, so a W set holding all six gives a wide,
    rank-deficient block, and a W set holding 1 with candidate rows away
    from its block's rows leaves nothing visible (the zero-candidate
    fallback).  Every column's gather counts the same number of entries,
    ``size``: the entries ``g_j`` of A in its W columns plus
    ``min(|V_j|, g_j + 1)``, as :func:`diafact.sparse.column_chunks`
    counts them.  Every ``g_j`` lies in ``[low, 2 low - 1]``, ``size`` is
    ``2 low + 1`` and ``|V_j|`` is ``size - g_j``, or ``n // 2`` (more
    than ``g_j + 1``) where ``g_j = low``.  So a chunk limit of ``c * size``
    entries puts ``c`` columns in each chunk.

    Returns ``(a, w_pattern, v_pattern, size)``.
    """
    rng = np.random.default_rng(seed)
    dense = random_sparse(rng, n, density=0.08, dominant=False).to_dense()
    dense[:, 1:7] = 0.0
    dense[:2, 1:7] = rng.standard_normal((2, 6))
    a = SparseMatrix.from_dense(dense)
    nnz = np.diff(a.col_ptr)
    low = 12
    size = 2 * low + 1
    w_cols, v_cols = [], []
    for j in range(n):
        if j % 9 == 4:
            w = [1, 2, 3, 4, 5, 6]  # wide and rank-deficient
        else:
            # grow the set by random columns until it gathers at least low
            # entries; a fallback column takes 1, and then only columns
            # past 6 without row j, so its block keeps full rank
            w = [1] if j % 9 == 7 else [j]
            for c in rng.permutation(n).tolist():
                g = nnz[w].sum()
                if g >= low:
                    break
                fits = c not in w and g + nnz[c] < 2 * low
                if fits and not (j % 9 == 7 and (c < 7 or dense[j, c])):
                    w.append(c)
        w = np.unique(w)
        g = int(nnz[w].sum())
        assert low <= g < 2 * low
        # a fallback column's candidates avoid the rows of its block; the
        # wide block sees row 0, so it is not a fallback
        fixed = [j, 0] if j % 9 == 4 else [j]
        away = np.flatnonzero(dense[:, w].any(axis=1)) if j % 9 == 7 else []
        pool = np.setdiff1d(np.arange(n), np.concatenate([away, fixed]))
        count = n // 2 if g == low else size - g
        others = rng.choice(pool, size=count - len(fixed), replace=False)
        w_cols.append(w)
        v_cols.append(np.unique(np.concatenate([others, fixed])))
    return a, SubspacePattern(n, w_cols), SubspacePattern(n, v_cols), size


def block_upper_problem(seed, n=48):
    """A V selection over a block-upper candidate whose blocks reach few rows.

    The candidate of column j is every row above the end of its block
    (blocks of 4 to 9 columns).  A has about five entries per column, and
    three kinds of W set mix:
    - every fifth column outside the last block takes only column n - 1,
      whose entries all lie in the last block: A_j reaches no candidate;
    - the columns after those take only themselves: A_j reaches a few;
    - the rest take column 0, themselves and up to two more columns.

    Column 0 stores an explicit 0.0 at row ``zero_row``, and that row holds
    nothing else but its diagonal, so a block holding column 0 has an
    active row of zeros.  Returns ``(a, w_pattern, candidate, zero_row)``.
    """
    rng = np.random.default_rng(seed)
    bounds = np.concatenate([[0], np.cumsum(rng.integers(4, 10, size=n))])
    bounds = np.append(bounds[bounds < n], n)
    last, zero_row = bounds[-2], n // 2
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 5 / n)
    dense[:, n - 1] = 0.0
    dense[last:, n - 1] = rng.standard_normal(n - last)
    dense[zero_row] = 0.0
    np.fill_diagonal(dense, rng.random(n) + 0.5)
    keys = np.union1d(np.flatnonzero(dense.T), [zero_row])  # col * n + row; (zero_row, 0) holds 0.0
    a = SparseMatrix.from_keys(n, n, keys, dense.T.ravel()[keys])
    block_end = np.repeat(bounds[1:], np.diff(bounds))
    others = np.setdiff1d(np.arange(1, n), [zero_row])
    w_cols = []
    for j in range(n):
        if j % 5 == 0 and block_end[j] <= last:
            w_cols.append(np.array([n - 1]))
        elif j % 5 == 1:
            w_cols.append(np.array([j]))
        else:
            extra = rng.choice(others, size=int(rng.integers(0, 3)), replace=False)
            w_cols.append(np.unique(np.concatenate([[0, j], extra])))
    candidate = block_pattern(BlockStructure(bounds), "block-upper-triangular")
    return a, SubspacePattern(n, w_cols), candidate, zero_row


def select_v_pattern_reference(a, w_pattern, v_candidate, k_v):
    """Greedy V selection column by column: the ``k_v`` candidates with the
    largest Q_j^T column norms (ties to the smaller index), plus j."""
    n = a.n_cols
    cols = []
    for j in range(n):
        cand = v_candidate.cols[j]
        if len(cand) > k_v:
            sub = extract_columns(a, w_pattern.cols[j])
            cand = cand[np.isin(cand, np.union1d(sub.active_rows, [j]))]
            m = _qt_at(qr_householder(pad_tall(sub.dense_block)).q_thin, sub.active_rows, cand)
            scores = np.sqrt((m.T * m.T).sum(axis=1))
            cand = cand[np.lexsort((cand, -scores))[:k_v]]
        cols.append(np.union1d(cand, [j]))
    return SubspacePattern(n, cols)


def tarjan_components_reference(a):
    """SCCs of the digraph with an edge j -> i for each nonzero a[i, j],
    by an iterative Tarjan walk over numpy arrays, sinks first."""
    n = a.n_cols
    index = np.full(n, -1, dtype=np.int64)
    lowlink = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack = []
    comps = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            succ = a.column(v)[0]
            advanced = False
            while ei < len(succ):
                w = int(succ[ei])
                ei += 1
                if index[w] == -1:
                    work.append((v, ei))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return comps
