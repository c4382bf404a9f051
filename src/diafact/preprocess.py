"""Preprocessing: zero-free diagonal, scaling and block triangular structure.

A matrix is brought to the experimental form used by the benchmark driver in
three steps: a maximum-product transversal makes the diagonal nonzero with
the largest product of magnitudes (a choice that does not depend on the
input's diagonal scaling, up to ties), iterative equilibration balances
row/column magnitudes, and a strongly connected component analysis yields an
ordered block partition so that the permuted matrix is block upper
triangular up to the diagonal blocks.  Inside each block the indices follow
a reverse Cuthill-McKee order, which keeps the LU fill of V's diagonal
blocks low.  The partition in turn defines block-shaped subspace patterns.
"""

from __future__ import annotations

import heapq

import numpy as np

from .sparse import SubspacePattern, _integer_array, _inverse_permutation, _require_integer

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

_EQUILIBRATE_SWEEPS = 10  # max-scaling sweeps of equilibrate


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
        self.forward = _integer_array("permutation entries", forward)
        self.inverse = _inverse_permutation(self.forward, len(self.forward))

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
        b = _integer_array("block bounds", block_bounds)
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
        return np.repeat(np.arange(self.n_blocks, dtype=np.int64), self.sizes)


def max_transversal(a):
    """Column permutation maximizing the product of diagonal magnitudes.

    A minimum-cost perfect matching of rows to columns on the costs
    ``log(max_i |a_ij|) - log|a_ij|`` (Olschowka & Neumaier; Duff & Koster,
    MC64): each column first takes its first free largest entry, then every
    unmatched column augments along a shortest path (Dijkstra on reduced
    costs ``c_ij - u_i - v_j``, ties to the smaller row) and the dual
    potentials ``u``, ``v`` are updated so reduced costs stay nonnegative.
    A diagonal scaling multiplies every matching's product by one constant,
    so the result does not depend on it, up to ties.  Raises
    :class:`StructuralSingularityError` naming the rows reached when no
    perfect matching exists.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_rows
    lens = np.diff(a.col_ptr)
    if not lens.all():
        raise StructuralSingularityError(
            f"structurally singular matrix: column {int(np.argmin(lens))} is empty "
            "and reaches no rows"
        )
    log_mag = np.log(np.abs(a.values))
    col_max = np.maximum.reduceat(log_mag, a.col_ptr[:-1])
    cost = (col_max[a._entry_columns()] - log_mag).tolist()
    ptr, rows = a.col_ptr.tolist(), a.row_idx.tolist()

    col_of_row = [-1] * n
    row_of_col = [-1] * n
    for j in range(n):
        for e in range(ptr[j], ptr[j + 1]):
            if cost[e] == 0.0 and col_of_row[rows[e]] == -1:
                col_of_row[rows[e]], row_of_col[j] = j, rows[e]
                break

    u = [0.0] * n  # row potentials
    v = [0.0] * n  # column potentials
    for j0 in range(n):
        if row_of_col[j0] != -1:
            continue
        dist, pred, done, entered = {}, {}, {}, {j0: 0.0}
        heap = []
        j, dj = j0, 0.0
        while True:
            for e in range(ptr[j], ptr[j + 1]):
                i = rows[e]
                d = dj + cost[e] - u[i] - v[j]
                if i not in done and d < dist.get(i, np.inf):
                    dist[i], pred[i] = d, j
                    heapq.heappush(heap, (d, i))
            while heap and heap[0][1] in done:
                heapq.heappop(heap)
            if not heap:
                raise StructuralSingularityError(
                    f"structurally singular matrix: columns {sorted(entered)} "
                    f"reach only rows {sorted(done)}"
                )
            d, i = heapq.heappop(heap)
            done[i] = d
            if col_of_row[i] == -1:
                break
            j, dj = col_of_row[i], d
            entered[j] = d
        # reduced costs stay nonnegative and the whole path becomes tight
        for r, dr in done.items():
            u[r] += dr - d
        for c, dc in entered.items():
            v[c] += d - dc
        while True:  # flip the path back to j0: row i takes column j
            j = pred[i]
            col_of_row[i], row_of_col[j], i = j, i, row_of_col[j]
            if j == j0:
                break
    return Permutation(col_of_row)


def equilibrate(a):
    """Row/column infinity-norm equilibration by ``_EQUILIBRATE_SWEEPS`` sweeps.

    Each sweep divides every row scale, then every column scale, by the
    square root of its current scaled maximum magnitude; after convergence
    every row and column maximum magnitude lies in [1/2, 2].  Zero rows or
    columns are rejected.
    """
    row_has = np.zeros(a.n_rows, dtype=bool)
    row_has[a.row_idx] = True
    if not row_has.all():
        raise ValueError(f"zero row {int(np.nonzero(~row_has)[0][0])}")
    if np.any(np.diff(a.col_ptr) == 0):
        raise ValueError(f"zero column {int(np.nonzero(np.diff(a.col_ptr) == 0)[0][0])}")
    cols = a._entry_columns()
    mag = np.abs(a.values)
    r = np.ones(a.n_rows)
    c = np.ones(a.n_cols)
    for _ in range(_EQUILIBRATE_SWEEPS):
        row_max = np.zeros(a.n_rows)
        np.maximum.at(row_max, a.row_idx, mag * r[a.row_idx] * c[cols])
        r /= np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
        col_max = np.zeros(a.n_cols)
        np.maximum.at(col_max, cols, mag * r[a.row_idx] * c[cols])
        c /= np.sqrt(np.where(col_max > 0.0, col_max, 1.0))
    return Scaling(r, c)


def _tarjan_components(a):
    """SCCs of the digraph with an edge j -> i for each nonzero a[i, j].

    Iterative Tarjan; components are emitted sinks-first for this
    orientation, so in emission order every cross-component entry of the
    reordered matrix falls above the block diagonal.  The walk reads the
    structure as Python ints: per edge, a numpy scalar costs more than the
    work itself.
    """
    n = a.n_cols
    col_ptr, row_idx = a.col_ptr.tolist(), a.row_idx.tolist()
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, col_ptr[root])]
        while work:
            v, ei = work.pop()
            if ei == col_ptr[v]:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            end = col_ptr[v + 1]
            advanced = False
            while ei < end:
                w = row_idx[ei]
                ei += 1
                if index[w] == -1:
                    work.append((v, ei))
                    work.append((w, col_ptr[w]))
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
    are placed in Tarjan's emission order, so the permuted matrix is block
    upper triangular up to the blocks, the shape a block-upper V or V0
    holds; any component larger than ``max_block`` is split, in ascending
    index order, into contiguous chunks of at most that size.  Each block's
    indices are then ordered by reverse Cuthill-McKee on the pattern of
    A + A^T restricted to the block (:func:`_reverse_cuthill_mckee`), which
    changes neither a block's members nor the bounds.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    max_block = _require_integer("max_block", max_block, 1)
    comps = _tarjan_components(a)

    order = []
    bounds = [0]
    for comp in comps:
        comp = sorted(comp)
        for lo in range(0, len(comp), max_block):
            chunk = comp[lo: lo + max_block]
            order.extend(chunk)
            bounds.append(bounds[-1] + len(chunk))
    order, blocks = np.array(order, dtype=np.int64), BlockStructure(bounds)
    return Permutation(order[_reverse_cuthill_mckee(a, order, blocks)]), blocks


def _reverse_cuthill_mckee(a, order, blocks):
    """Reverse Cuthill-McKee order inside each block of an ordering.

    ``order`` lists the indices of ``a`` block by block, ascending within
    each block of ``blocks``.  Returns positions into ``order`` that keep
    every block in place and reorder it by RCM on the pattern of A + A^T
    restricted to the block: each connected piece starts at its
    lowest-degree node (lowest index on ties), a breadth-first walk appends
    each node's unplaced neighbours by degree, then index, and the block's
    order is reversed.  Like :func:`_tarjan_components`, the walk reads the
    structure as Python ints.
    """
    n, bounds, block = blocks.n, blocks.block_bounds, blocks.block_of()
    pos = _inverse_permutation(order, n)
    u, v = pos[a.row_idx], pos[a._entry_columns()]
    keep = (block[u] == block[v]) & (u != v)
    u, v = u[keep], v[keep]
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique, without its fixed cost
    u, v = keys // n, keys % n
    degree = np.bincount(u, minlength=n)
    # positions ascend with the index inside a block, and lexsort is stable
    nbrs = v[np.lexsort((degree[v], u))].tolist()
    ptr = np.searchsorted(u, np.arange(n + 1)).tolist()
    placed = [False] * n
    walk = []
    for seed in np.lexsort((degree, block)).tolist():
        if placed[seed]:
            continue
        placed[seed] = True
        piece = [seed]
        for x in piece:  # the queue: the loop reaches what it appends
            for y in nbrs[ptr[x]:ptr[x + 1]]:
                if not placed[y]:
                    placed[y] = True
                    piece.append(y)
        walk += piece
    # the seeds run block by block, so each block's walk fills its own span
    # [lo, hi); reversed, position p takes walk[lo + hi - 1 - p]
    return np.array(walk, dtype=np.int64)[(bounds[:-1] + bounds[1:] - 1)[block] - np.arange(n)]


def block_pattern(blocks, shape):
    """Subspace pattern shaped by a block partition.

    ``shape`` selects full diagonal blocks ("block-diagonal") or everything
    from the top of the matrix down to the end of the diagonal block
    ("block-upper-triangular").
    """
    if shape not in ("block-diagonal", "block-upper-triangular"):
        raise ValueError(f"unknown block pattern shape '{shape}'")
    b = blocks.block_bounds
    lo = b[:-1] if shape == "block-diagonal" else np.zeros_like(b[1:])
    return SubspacePattern.from_ranges(blocks.n, blocks.block_of(), lo, b[1:])
