"""Sparsity-structure heuristics for the factor subspaces.

Two constructions produce the pattern of the W subspace: truncated
sparsified powers of S = V0^{-1}(I - P_{V0})A, and the structural row-union
driven by an initial subspace V0.  Given W, the pattern of the V subspace
is then selected greedily per column by scoring admissible positions with
the norms of the corresponding columns of Q_j^T.

Both W constructions run as index passes over whole sparse matrices,
summing in the order a per-column loop would.  S is formed by one V0
solve per :func:`neumann_pattern`, a sparse walk over V0's block levels
(:meth:`~diafact.krylov.VFactorization.sparse_levels`) that drops as it
goes and applies the initial drop at the end; with one level it is one
sparse product of V0's inverse with (I - P_{V0})A.  A column's solution
does not depend on the other columns.  The V selection reads the blocks
A_j from the chunked column sweep of :func:`~diafact.sparse.column_chunks`,
which orders the columns by block width for it as for the factor sweeps.  A
chunk holds only the candidates on its blocks' active rows, plus the
diagonal: no other position can score above zero or carry a value of V.
A chunk in which no column holds more than ``k_v`` positions keeps them
all unfactored, and its dense blocks are never built; in any other chunk
the selection factors one block per call, writing Q_j over A_j, takes
the scores of all the chunk's positions in one pass and ranks them per
column.  Since that skip is decided per chunk, the selection's chunks
(``_SELECT_ENTRIES``) stay smaller than a factor sweep's.  Inputs are
read-only, so results are deterministic, and they do not depend on the
order of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import qr_householder
from .krylov import factor_v
from .preprocess import BlockStructure
from .sparse import (
    SparseMatrix,
    SubspacePattern,
    _require_integer,
    _span_gather,
    column_chunks,
    merge_sum,
    pattern_subtract_offdiag,
    sparse_product,
)

__all__ = [
    "DropRule",
    "NeumannConfig",
    "neumann_pattern",
    "adjoint_pattern",
    "select_v_pattern",
]


@dataclass(frozen=True)
class DropRule:
    """Numerical dropping by relative tolerance and by count.

    Entries below ``tau`` times the largest magnitude are dropped, and at
    most ``p`` entries are retained.  A zero parameter means that rule is
    not used.
    """

    tau: float = 0.0
    p: int = 0

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        _require_integer("p", self.p, 0)

    @property
    def unused(self):
        return self.tau == 0.0 and self.p == 0


@dataclass(frozen=True)
class NeumannConfig:
    """Truncation depth and drop rules for the sparsified-powers pattern."""

    k: int = 3
    initial_drop: DropRule = field(default_factory=lambda: DropRule(0.1, 0))
    level_drop: DropRule = field(default_factory=DropRule)

    def __post_init__(self):
        _require_integer("truncation depth k", self.k, 0)


def _top_per_column(col, idx, score, p):
    """Positions of the at most ``p`` largest-``score`` entries of each
    column ``col`` groups, with ties to the smaller ``idx``."""
    order = np.lexsort((idx, -score, col))
    c = col[order]
    return order[np.arange(len(order)) - np.searchsorted(c, c) < p]


def _drop_mask(col, idx, val, rule):
    """Entries of column segments that a :class:`DropRule` keeps.

    ``col`` is nondecreasing and groups the entries into columns, ``idx``
    holds their indices.  Per column, entries below ``tau`` times the
    column's largest magnitude go, and of the rest at most ``p`` stay,
    ranked by magnitude with ties to the smaller index.  An entry on the
    diagonal (``idx == col``) is kept regardless.
    """
    mag = np.abs(val)
    keep = np.ones(len(val), dtype=bool)
    if rule.tau > 0.0:
        starts = np.flatnonzero(np.diff(col, prepend=-1))
        col_max = np.maximum.reduceat(mag, starts)
        keep = mag >= rule.tau * np.repeat(col_max, np.diff(starts, append=len(mag)))
    if rule.p > 0:
        cand = np.flatnonzero(keep)
        keep = np.zeros(len(val), dtype=bool)
        keep[cand[_top_per_column(col[cand], idx[cand], mag[cand], rule.p)]] = True
    return keep | (idx == col)


def _drop_columns(m, rule):
    """``m`` with a :class:`DropRule` applied to each column, the diagonal kept."""
    if m.nnz == 0 or rule.unused:
        return m
    col = m._entry_columns()
    return m.masked(_drop_mask(col, m.row_idx, m.values, rule))


class _V0Solver:
    """Solves with V0 = P_{V0}A, given as a matrix.

    V0 is factored by :func:`factor_v` as block upper triangular under the
    given blocks, or under blocks of one when ``blocks`` is None, so the
    singular blocks (or the zeros on the diagonal) raise one
    :class:`~diafact.krylov.SingularBlockError` naming them all.  The
    levels of its walk are kept as sparse matrices.
    """

    def __init__(self, v0, blocks):
        if blocks is None:
            blocks = BlockStructure(np.arange(v0.n_cols + 1))
        self._levels = list(factor_v(v0, blocks, "block-upper-triangular").sparse_levels())

    def solve_sparse(self, c, rule):
        """S = ``V0^{-1} c`` for a sparse matrix ``c``, by one sparse walk
        over V0's levels, with the :class:`DropRule` ``rule`` applied to
        each column.

        A level's X is one :func:`sparse_product` of its block inverses with
        its rows of ``c``.  Before X updates the later levels (``c`` less
        V0's entries above the blocks times X), the entries of X below
        ``rule.tau`` times the column's largest magnitude so far go, the
        diagonal kept.  On the last level ``rule`` makes that drop, so with
        one level S is V0^{-1} c, dropped.
        """
        *coupling, (_, inv, _) = self._levels
        n, width = c.shape
        peak = np.zeros(width)  # each column's largest magnitude so far
        parts = []
        for at, inv_l, above in coupling:
            here = at[c.row_idx]
            x = sparse_product(inv_l, c.masked(here))
            cols, mag = x._entry_columns(), np.abs(x.values)
            np.maximum.at(peak, cols, mag)
            x = x.masked((mag >= rule.tau * peak[cols]) | (x.row_idx == cols))
            parts.append(x)
            rest, update = c.masked(~here), sparse_product(above, x)
            c = SparseMatrix.from_keys(n, width, *merge_sum(
                np.concatenate([rest.entry_keys(), update.entry_keys()]),
                np.concatenate([rest.values, -update.values])))
        s = sparse_product(inv, c)
        if parts:  # the levels' rows are disjoint, so this sum only sorts
            parts.append(s)
            s = SparseMatrix.from_keys(n, width, *merge_sum(
                np.concatenate([x.entry_keys() for x in parts]),
                np.concatenate([x.values for x in parts])))
        return _drop_columns(s, rule)


def _check_v0(v0_pattern, blocks):
    """``ValueError`` unless the V0 pattern holds the diagonal, and comes
    with its blocks when it holds more."""
    n = v0_pattern.n
    missing = np.flatnonzero(~v0_pattern.contains(np.arange(n, dtype=np.int64) * (n + 1)))
    if len(missing):
        raise ValueError(f"V0 pattern must contain the diagonal (column {missing[0]})")
    if blocks is None and v0_pattern.nnz != n:
        raise ValueError("a non-diagonal V0 pattern needs its blocks")


def neumann_pattern(a, v0_pattern, cfg, blocks=None):
    """Pattern of W from sparsified truncated powers of S = V0^{-1}(I - P_{V0})A.

    One pass splits A into V0 = P_{V0}A and ``(I - P_{V0})A``, and one
    :meth:`_V0Solver.solve_sparse` call forms S from them.  When V0 couples
    its blocks, S is not the exact solve: each level of the walk drops the
    entries below the initial rule's ``tau`` times the column's running
    maximum before they update the later levels.  The initial rule then
    sparsifies S.  Then, on whole matrices, T starts at the identity,
    is multiplied by S (``cfg.k`` times) and dropped with the level rule
    after each product, and each T is accumulated onto the identity; the
    support of each column of the sum becomes that column's allowed set
    (the diagonal if it cancels to nothing).  Finally the off-diagonal
    part of the V0 pattern is removed so the two subspaces only share the
    diagonal.  With ``cfg.k`` = 0 the pattern is the diagonal, and V0 is
    neither factored nor solved with.

    ``blocks`` gives the blocks V0 is factored under, as block upper
    triangular; it may be omitted only for a diagonal V0 pattern, and any
    other pattern without it raises ``ValueError``.
    """
    n = a.n_cols
    if a.n_rows != n or v0_pattern.n != n:
        raise ValueError("square matrix and matching pattern required")
    _check_v0(v0_pattern, blocks)
    if cfg.k == 0 or n == 0:  # W is the diagonal, and V0 is never solved with
        return SubspacePattern.diagonal(n)
    in_v0 = v0_pattern.contains(a.entry_keys())
    solver = _V0Solver(a.masked(in_v0), None if v0_pattern.nnz == n else blocks)
    s = solver.solve_sparse(a.masked(~in_v0), cfg.initial_drop)
    t = SparseMatrix.identity(n)
    acc_keys, acc_vals = t.entry_keys(), t.values
    for _ in range(cfg.k):
        t = _drop_columns(sparse_product(s, t), cfg.level_drop)
        if t.nnz == 0:
            break
        acc_keys, acc_vals = merge_sum(
            np.concatenate([acc_keys, t.entry_keys()]), np.concatenate([acc_vals, t.values])
        )
    w = SubspacePattern.from_keys_or_diagonal(n, acc_keys)
    return pattern_subtract_offdiag(w, v0_pattern)


def adjoint_pattern(a, v0_pattern, rule=DropRule()):
    """Pattern of W as the structure of A^T applied to the V0 pattern.

    Column j allows exactly the union of the row structures of A indexed by
    the V0 pattern of column j (plus the diagonal).  Row magnitudes summed
    through |A^T| stand in for the random-probe values when the rule asks
    for sparsification, keeping the construction deterministic.
    """
    n = a.n_cols
    if a.n_rows != n or v0_pattern.n != n:
        raise ValueError("square matrix and matching pattern required")
    at = a.transpose()
    # |A^T| times the indicator of the V0 pattern: positive wherever any of
    # the selected rows of A has an entry, so nothing can cancel away
    abs_at = SparseMatrix(n, n, at.col_ptr, at.row_idx, np.abs(at.values), validate=False)
    keys = v0_pattern.keys()
    probe = _drop_columns(
        sparse_product(abs_at, SparseMatrix.from_keys(n, n, keys, np.ones(len(keys)))), rule
    )
    return SubspacePattern.from_keys_or_diagonal(n, probe.entry_keys()).with_diagonal()


# A chunk of the V selection gathers about this many entries, fewer than a
# factor sweep's (``sparse._SWEEP_ENTRIES``): the selection skips a chunk
# only when no column in it has a choice, so coarser chunks factor more
# blocks (on cd3d-s-upper, 175 per call at 2^12 and 216 at 2^14).
_SELECT_ENTRIES = 1 << 12


def select_v_pattern(a, w_pattern, v_candidate, k_v):
    """Choose the V pattern greedily from admissible candidate positions.

    A column with at most ``k_v`` candidates keeps them all, unscored.
    Any other column j takes the columns of A allowed by ``w_pattern`` as
    its block A_j.  It holds its candidates on the active rows of A_j
    (stored zeros count) and the diagonal when that is a candidate.  Each
    held position scores the Euclidean norm of the corresponding column of
    Q_j^T (the diagonal scores zero off the active rows).  The ``k_v``
    best are kept, the diagonal always included, with ties resolved
    toward smaller indices so selections nest as ``k_v`` grows.

    No other candidate is kept: off the active rows of A_j neither
    factorization can give V a value.  A chunk of
    :func:`~diafact.sparse.column_chunks` holds just the held positions,
    never the whole candidate (for a block-upper shape, every row above
    the end of the column's block), and a column never spans two chunks,
    so each chunk is ranked on its own.  Blocks are factored one
    :func:`qr_householder` call each, and only in a chunk where some
    column holds more than ``k_v`` positions: otherwise every column
    keeps all it holds, whatever its scores.
    """
    n = a.n_cols
    if a.n_rows != n or w_pattern.n != n or v_candidate.n != n:
        raise ValueError("square matrix and matching patterns required")
    _require_integer("k_v", k_v, 1)
    counts = v_candidate.counts()
    kept, ranked = np.flatnonzero(counts <= k_v), np.flatnonzero(counts > k_v)
    _, owner, rows = v_candidate.gather(kept)
    keys = [kept[owner] * n + rows, np.arange(n, dtype=np.int64) * (n + 1)]
    for ch in column_chunks(a, w_pattern, v_candidate, ranked, entries=_SELECT_ENTRIES):
        if np.bincount(ch.v_col, minlength=len(ch.cols)).max() <= k_v:
            keys.append(ch.cols[ch.v_col] * n + ch.v_rows)  # no column has a choice
            continue
        q, start, *_ = ch.visible_q(qr_householder)
        e = np.flatnonzero(ch.v_seen)
        slot, owner = _span_gather(ch.set_ptr, ch.v_col[e])
        at = (start[e] - ch.set_ptr[ch.v_col[e]])[owner] + slot
        scores = np.zeros(len(ch.v_rows))
        scores[e] = np.sqrt(np.bincount(owner, weights=q[at] ** 2, minlength=len(e)))
        best = _top_per_column(ch.v_col, ch.v_rows, scores, k_v)
        keys.append(ch.cols[ch.v_col[best]] * n + ch.v_rows[best])
    return SubspacePattern.from_keys(n, np.unique(np.concatenate(keys)))
