"""Sparsity-structure heuristics for the factor subspaces.

Two constructions produce the pattern of the W subspace: truncated
sparsified powers of S = V0^{-1}(I - P_{V0})A, and the structural row-union
driven by an initial subspace V0.  Given W, the pattern of the V subspace
is then selected greedily per column by scoring admissible positions with
the norms of the corresponding columns of Q_j^T.

Both W constructions run as index passes over whole sparse matrices,
summing in the order a per-column loop would.  S is formed by one sparse
V0 walk per :func:`neumann_pattern`
(:meth:`~diafact.krylov.VFactorization.solve_sparse`), which drops as it
goes, then cut by the initial drop; there is none when A lies in V0's
pattern, as S = 0.  The V selection reads the blocks
A_j from the chunked column sweep of :func:`~diafact.sparse.column_chunks`,
which orders the columns by block width for it as for the factor sweeps.  A
chunk holds only the candidates on its blocks' active rows, plus the
diagonal: no other position can score above zero or carry a value of V.
The selection cuts the columns, in the same order, into runs of about
``_SELECT_ENTRIES`` entries, much smaller than its chunks.  A run in which
no column holds more than ``k_v`` positions keeps them all unfactored; of
any other run the selection factors one block per call, writing Q_j over
A_j, and scores and ranks the run's positions per column, in one pass per
chunk.  A chunk with no such run never builds its dense blocks.
Inputs are read-only, so results are deterministic, and they do not
depend on the order of the sweep or on the sizes of its chunks and runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sparse
from .kernels import qr_householder
from .krylov import factor_v
from .preprocess import BlockStructure
from .sparse import (
    SparseMatrix,
    SubspacePattern,
    _require_integer,
    _require_square,
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
    factorization is all it keeps; its levels are walked by
    :meth:`~diafact.krylov.VFactorization.solve_sparse`.
    """

    def __init__(self, v0, blocks):
        if blocks is None:
            blocks = BlockStructure(np.arange(v0.n_cols + 1))
        self._vf = factor_v(v0, blocks, "block-upper-triangular")

    def solve_sparse(self, c, rule):
        """S = ``V0^{-1} c`` for a sparse matrix ``c`` by V0's sparse walk,
        which drops by ``rule.tau``, and then ``rule`` on each column."""
        return _drop_columns(self._vf.solve_sparse(c, rule.tau), rule)


def _check_v0(v0_pattern, blocks):
    """``ValueError`` unless the V0 pattern holds the diagonal, and comes
    with its blocks when it holds more."""
    missing = v0_pattern.missing_diagonal()
    if len(missing):
        raise ValueError(f"V0 pattern must contain the diagonal (column {missing[0]})")
    if blocks is None and v0_pattern.nnz != v0_pattern.n:
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
    neither factored nor solved with.  So it is when every entry of A lies
    in the V0 pattern (n = 0 included): then ``(I - P_{V0})A`` is empty
    and S = 0, so the sum is the identity, as the full path would find.

    ``blocks`` gives the blocks V0 is factored under, as block upper
    triangular; it may be omitted only for a diagonal V0 pattern, and any
    other pattern without it raises ``ValueError``.
    """
    n = _require_square(a, v0_pattern)
    _check_v0(v0_pattern, blocks)
    in_v0 = v0_pattern.contains(a.entry_keys())
    if cfg.k == 0 or in_v0.all():  # W is the diagonal, and V0 is never factored
        return SubspacePattern.diagonal(n)
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
    n = _require_square(a, v0_pattern)
    at = a.transpose()
    # |A^T| times the indicator of the V0 pattern: positive wherever any of
    # the selected rows of A has an entry, so nothing can cancel away
    abs_at = SparseMatrix(n, n, at.col_ptr, at.row_idx, np.abs(at.values), validate=False)
    keys = v0_pattern.keys()
    probe = _drop_columns(
        sparse_product(abs_at, SparseMatrix.from_keys(n, n, keys, np.ones(len(keys)))), rule
    )
    return SubspacePattern.from_keys_or_diagonal(n, probe.entry_keys()).with_diagonal()


# The V selection cuts its columns, in width order, into runs of about this
# many entries, counted as :func:`~diafact.sparse.column_chunks` counts
# them, and factors the blocks of a run only when some column in it has a
# choice.  Its chunks take the factor sweeps' budget
# (``sparse._SWEEP_ENTRIES``) or this one, whichever is larger, so a run
# spans two chunks only when that is no multiple of this one.  Smaller runs
# factor fewer blocks at no cost in chunk builds: on cd3d-s-upper, 10 or 11
# per call at 2^8, 16 to 19 at 2^9 and 30 to 34 at 2^10, where deciding per
# chunk of 2^12 entries factored 175.  Sized by alternating runs on a 2-core
# x86_64 machine: the selection alone took 4.30 ms per call at 2^8 against
# 4.85 ms at 2^9, and 2^7 (8 or 9 blocks, one per column with a choice)
# gained nothing more.
_SELECT_ENTRIES = 1 << 8


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
    so each chunk is ranked on its own.  The columns are cut into runs of
    about ``_SELECT_ENTRIES`` entries, in the chunks' width order, and a
    run's blocks are factored one :func:`qr_householder` call each only
    when some column in the run holds more than ``k_v`` positions; every
    other column keeps all it holds, whatever its scores.
    """
    n = _require_square(a, w_pattern, v_candidate)
    _require_integer("k_v", k_v, 1)
    counts = v_candidate.counts()
    kept, ranked = np.flatnonzero(counts <= k_v), np.flatnonzero(counts > k_v)
    _, owner, rows = v_candidate.gather(kept)
    keys = [kept[owner] * n + rows, np.arange(n, dtype=np.int64) * (n + 1)]
    entries = max(sparse._SWEEP_ENTRIES, _SELECT_ENTRIES)
    for ch in column_chunks(a, w_pattern, v_candidate, ranked, entries=entries):
        run = ch.offset // _SELECT_ENTRIES
        choice = np.bincount(ch.v_col, minlength=len(ch.cols)) > k_v
        factor = np.isin(run, run[choice])  # the columns of runs with a choice
        keep = ~factor[ch.v_col]
        if factor.any():
            q, start, *_ = ch.visible_q(qr_householder, factor)
            p = np.flatnonzero(~keep)
            e = p[ch.v_seen[p]]
            slot, owner = _span_gather(ch.set_ptr, ch.v_col[e])
            at = (start[e] - ch.set_ptr[ch.v_col[e]])[owner] + slot
            scores = np.zeros(len(ch.v_rows))
            scores[e] = np.sqrt(np.bincount(owner, weights=q[at] ** 2, minlength=len(e)))
            keep[p[_top_per_column(ch.v_col[p], ch.v_rows[p], scores[p], k_v)]] = True
        keys.append(ch.cols[ch.v_col[keep]] * n + ch.v_rows[keep])
    keys = np.sort(np.concatenate(keys))
    return SubspacePattern.from_keys(n, keys[np.diff(keys, prepend=-1) != 0])
