"""Preprocessing: zero-free diagonal, scaling and block triangular structure.

A matrix is brought to the experimental form used by the benchmark driver in
three steps: a maximum transversal makes the diagonal structurally nonzero,
iterative equilibration balances row/column magnitudes, and a strongly
connected component analysis yields an ordered block partition so that the
permuted matrix is block lower triangular up to the diagonal blocks.  The
partition in turn defines block-shaped subspace patterns.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .sparse import SubspacePattern

__all__ = [
    "StructuralSingularityError",
    "Permutation",
    "Scaling",
    "BlockStructure",
    "max_transversal",
    "equilibrate",
    "scc_block_structure",
    "block_pattern",
]


class StructuralSingularityError(Exception):
    """No perfect matching of rows to columns through nonzeros exists."""


class Permutation:
    """A bijection on {0..n-1} stored as a gather order.

    ``forward[k]`` is the source index placed at position ``k``; applying
    the permutation to a vector is ``x[forward]``.  ``inverse`` satisfies
    ``inverse[forward[k]] == k``.
    """

    __slots__ = ("forward", "inverse")

    def __init__(self, forward):
        self.forward = np.asarray(forward, dtype=np.int64)
        n = len(self.forward)
        self.inverse = np.empty(n, dtype=np.int64)
        if np.any(np.sort(self.forward) != np.arange(n)):
            raise ValueError("not a bijection on {0..n-1}")
        self.inverse[self.forward] = np.arange(n)

    @property
    def n(self):
        return len(self.forward)

    def apply(self, x):
        return np.asarray(x)[self.forward]

    def undo(self, x):
        return np.asarray(x)[self.inverse]


class Scaling:
    """Positive row and column scale factors."""

    __slots__ = ("row_scale", "col_scale")

    def __init__(self, row_scale, col_scale):
        self.row_scale = np.asarray(row_scale, dtype=np.float64)
        self.col_scale = np.asarray(col_scale, dtype=np.float64)
        for v in (self.row_scale, self.col_scale):
            if not np.all(np.isfinite(v)) or np.any(v <= 0):
                raise ValueError("scale factors must be finite and positive")


class BlockStructure:
    """Ordered diagonal-block partition given by its boundary indices."""

    __slots__ = ("block_bounds",)

    def __init__(self, block_bounds):
        b = np.asarray(block_bounds, dtype=np.int64)
        if len(b) < 2 or b[0] != 0 or np.any(np.diff(b) <= 0):
            raise ValueError("bounds must start at 0 and be strictly increasing")
        self.block_bounds = b

    @property
    def n(self):
        return int(self.block_bounds[-1])

    @property
    def n_blocks(self):
        return len(self.block_bounds) - 1

    @property
    def sizes(self):
        return np.diff(self.block_bounds)

    @property
    def max_block(self):
        return int(self.sizes.max())

    def block_of(self):
        """Array mapping each index to its block number."""
        out = np.empty(self.n, dtype=np.int64)
        for b in range(self.n_blocks):
            out[self.block_bounds[b]: self.block_bounds[b + 1]] = b
        return out

    def bounds(self, b):
        return int(self.block_bounds[b]), int(self.block_bounds[b + 1])


def _max_scaling(a, sweeps):
    """Row and column scales after ``sweeps`` rounds of max-magnitude scaling.

    Each round divides every row scale, then every column scale, by the
    square root of its current scaled maximum magnitude; an empty row or
    column keeps its scale.
    """
    n_rows, n_cols = a.shape
    cols = a._entry_columns()
    mag = np.abs(a.values)
    r = np.ones(n_rows)
    c = np.ones(n_cols)
    for _ in range(sweeps):
        scaled = mag * r[a.row_idx] * c[cols]
        row_max = np.zeros(n_rows)
        np.maximum.at(row_max, a.row_idx, scaled)
        r /= np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
        scaled = mag * r[a.row_idx] * c[cols]
        col_max = np.zeros(n_cols)
        np.maximum.at(col_max, cols, scaled)
        c /= np.sqrt(np.where(col_max > 0.0, col_max, 1.0))
    return r, c


def _balanced_magnitudes(a, sweeps=5):
    """Row/column balanced entry magnitudes used to rank matching choices."""
    r, c = _max_scaling(a, sweeps)
    return np.abs(a.values) * r[a.row_idx] * c[a._entry_columns()]


def max_transversal(a):
    """Column permutation giving a structurally nonzero diagonal.

    Augmenting-path maximum-cardinality matching between rows and columns.
    Magnitudes (balanced by a few equilibration sweeps) only steer the
    heuristics: the greedy seed takes the diagonal when it is competitive
    within its row and the largest entry otherwise, and augmenting searches
    visit large entries first.  An already zero-free-diagonal matrix keeps
    the identity permutation unless off-diagonal entries clearly dominate.
    Raises :class:`StructuralSingularityError` with the exhausted row set
    when no perfect matching exists.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_rows
    at = a.transpose()  # column r of `at` lists the columns of `a` seen by row r

    score = _balanced_magnitudes(at)
    adj = []
    for r in range(n):
        lo, hi = at.col_ptr[r], at.col_ptr[r + 1]
        cols = at.row_idx[lo:hi]
        vals = score[lo:hi]
        order = np.lexsort((cols, -vals))
        adj.append((cols[order], vals[order]))

    col_of_row = np.full(n, -1, dtype=np.int64)
    row_of_col = np.full(n, -1, dtype=np.int64)
    for r in range(n):
        cols, vals = adj[r]
        if len(cols) == 0:
            continue
        free = row_of_col[cols] == -1
        if not free.any():
            continue
        pick = int(cols[free][0])  # largest free entry
        dpos = np.nonzero(cols == r)[0]
        if len(dpos) and row_of_col[r] == -1 and vals[dpos[0]] >= 0.5 * vals[free][0]:
            pick = r
        col_of_row[r] = pick
        row_of_col[pick] = r

    for start in range(n):
        if col_of_row[start] != -1:
            continue
        visited_cols = np.zeros(n, dtype=bool)
        visited_rows = [start]
        parent_col = {}
        # BFS over alternating paths: free row -> columns -> matched rows
        queue = deque([start])
        augmenting = -1
        while queue and augmenting < 0:
            r = queue.popleft()
            for c in adj[r][0]:
                if visited_cols[c]:
                    continue
                visited_cols[c] = True
                parent_col[c] = r
                if row_of_col[c] == -1:
                    augmenting = c
                    break
                visited_rows.append(int(row_of_col[c]))
                queue.append(int(row_of_col[c]))
        if augmenting < 0:
            raise StructuralSingularityError(
                "structurally singular matrix: rows "
                f"{sorted(set(visited_rows))} exhaust their reachable columns"
            )
        c = augmenting
        while c != -1:
            r = parent_col[c]
            prev = col_of_row[r]
            col_of_row[r] = c
            row_of_col[c] = r
            c = prev

    _improve_matching(adj, col_of_row, row_of_col)
    return Permutation(col_of_row)


def _improve_matching(adj, col_of_row, row_of_col, passes=3):
    """Pairwise swaps that grow the product of matched magnitudes.

    A cheap stand-in for the dual-variable optimization of weighted
    matchings: swap the partners of two rows whenever the product of the
    crossed entries beats the current one.  Converges in a couple of
    passes and never touches cardinality.
    """
    n = len(col_of_row)
    lut = [dict(zip(adj[r][0].tolist(), adj[r][1].tolist())) for r in range(n)]
    for _ in range(passes):
        swaps = 0
        for r in range(n):
            c_cur = col_of_row[r]
            row = lut[r]
            for c, val in row.items():
                if c == c_cur:
                    continue
                r2 = row_of_col[c]
                cross = lut[r2].get(c_cur)
                if cross is None:
                    continue
                if val * cross > row[c_cur] * lut[r2][c] * (1.0 + 1e-9):
                    col_of_row[r], col_of_row[r2] = c, c_cur
                    row_of_col[c], row_of_col[c_cur] = r, r2
                    c_cur = c
                    swaps += 1
            col_of_row[r] = c_cur
        if swaps == 0:
            break


def equilibrate(a, iterations=10):
    """Iterative row/column infinity-norm equilibration.

    Repeatedly divides row and column scales by the square root of the
    current scaled maxima; after convergence every row and column maximum
    magnitude lies in [1/2, 2].  Zero rows or columns are rejected.
    """
    row_has = np.zeros(a.n_rows, dtype=bool)
    row_has[a.row_idx] = True
    if not row_has.all():
        raise ValueError(f"zero row {int(np.nonzero(~row_has)[0][0])}")
    if np.any(np.diff(a.col_ptr) == 0):
        raise ValueError(f"zero column {int(np.nonzero(np.diff(a.col_ptr) == 0)[0][0])}")
    return Scaling(*_max_scaling(a, iterations))


def _tarjan_components(a):
    """SCCs of the digraph with an edge j -> i for each nonzero a[i, j].

    Iterative Tarjan; components are emitted sinks-first for this
    orientation, so reversing the emission order makes cross-component
    entries of the reordered matrix fall below the block diagonal.
    """
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


def scc_block_structure(a, max_block):
    """Order strongly connected components into capped diagonal blocks.

    Returns a symmetric permutation and the block partition.  Components
    are placed so the permuted matrix is block lower triangular up to the
    blocks; any component larger than ``max_block`` is split into
    contiguous chunks of at most that size.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    if max_block < 1:
        raise ValueError("max_block must be positive")
    comps = _tarjan_components(a)
    comps.reverse()

    order = []
    bounds = [0]
    for comp in comps:
        comp = sorted(comp)
        for lo in range(0, len(comp), max_block):
            chunk = comp[lo: lo + max_block]
            order.extend(chunk)
            bounds.append(bounds[-1] + len(chunk))
    return Permutation(np.array(order)), BlockStructure(np.array(bounds))


def block_pattern(blocks, shape, a=None):
    """Subspace pattern shaped by a block partition.

    ``shape`` selects full diagonal blocks ("block-diagonal"), everything
    from the top of the matrix down to the end of the diagonal block
    ("block-upper-triangular"), or the diagonal plus the strictly lower
    triangular structure of ``a`` ("gauss-seidel").
    """
    n = blocks.n
    if shape == "gauss-seidel":
        if a is None or a.n_cols != n or a.n_rows != n:
            raise ValueError("gauss-seidel shape needs the matrix itself")
        cols = []
        for j in range(n):
            idx = a.column(j)[0]
            cols.append(np.union1d(idx[idx > j], [j]))
        return SubspacePattern(n, cols)

    cols = []
    for b in range(blocks.n_blocks):
        lo, hi = blocks.bounds(b)
        if shape == "block-diagonal":
            allowed = np.arange(lo, hi)
        elif shape == "block-upper-triangular":
            allowed = np.arange(0, hi)
        else:
            raise ValueError(f"unknown block pattern shape '{shape}'")
        cols.extend([allowed] * (hi - lo))
    return SubspacePattern(n, cols)
