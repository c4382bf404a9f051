import numpy as np
import pytest

import diafact.krylov as krylov
import diafact.patterns as patterns
import diafact.sparse as sparse
from diafact.patterns import (
    DropRule,
    NeumannConfig,
    adjoint_pattern,
    neumann_pattern,
    select_v_pattern,
)
from diafact.factor import StabilizationPolicy, diaf_q, diaf_s
from diafact.kernels import pad_tall, qr_householder
from diafact.krylov import SingularBlockError
from diafact.preprocess import BlockStructure, block_pattern, scc_block_structure
from diafact.sparse import SparseMatrix, SubspacePattern

from helpers import (
    block_levels_reference,
    block_upper_problem,
    gather_block,
    neumann_pattern_reference,
    random_pattern,
    random_sparse,
    select_v_pattern_reference,
    sweep_problem,
)


def brute_force_drop(values, tau, p):
    """Reference implementation of the drop rule by exhaustive scan."""
    mag = np.abs(values)
    kept = set(range(len(values)))
    if tau > 0:
        kept = {i for i in kept if mag[i] >= tau * mag.max()}
    if p > 0 and len(kept) > p:
        ranked = sorted(kept, key=lambda i: (-mag[i], i))
        kept = set(ranked[:p])
    return kept


def one_column(values, j=None):
    """A square matrix whose only nonzero column, ``j``, holds ``values``.

    By default ``j`` is one past the rows of ``values`` (the matrix has one
    row more), so the column has no diagonal entry for the rule to protect.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values) + 1
    rows = np.flatnonzero(values)
    return SparseMatrix.from_coo(n, n, rows, np.full(len(rows), n - 1 if j is None else j),
                                 values[rows])


def kept_rows(values, rule, j=None):
    """Rows that :func:`patterns._drop_columns` keeps of a :func:`one_column` matrix."""
    return patterns._drop_columns(one_column(values, j), rule).row_idx


class TestNumericalDrop:
    def test_relative_tolerance_example(self):
        values = [1.0, 0.05, -0.5, 0.002]
        assert np.array_equal(kept_rows(values, DropRule(0.1, 0)), [0, 2])
        assert brute_force_drop(np.array(values), 0.1, 0) == {0, 2}

    def test_zero_parameters_leave_input_unchanged(self):
        m = one_column([1.0, -2.0, 0.5])
        assert patterns._drop_columns(m, DropRule(0.0, 0)) is m

    def test_protection_overrides(self):
        assert np.array_equal(kept_rows([0.01, 1.0], DropRule(0.5, 0), j=0), [0, 1])
        assert np.array_equal(kept_rows([1.0, 0.01], DropRule(0.0, 1), j=1), [0, 1])
        assert np.array_equal(kept_rows([0.01, 1.0], DropRule(0.5, 0)), [1])

    def test_count_rule_with_ties(self):
        rows = kept_rows([1.0, -1.0, 1.0, 0.5], DropRule(0.0, 2))
        assert np.array_equal(rows, [0, 1])  # smaller index wins ties

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dense = np.round(rng.standard_normal(12), 2)
            idx = np.flatnonzero(dense)
            tau = float(rng.choice([0.0, 0.1, 0.5]))
            p = int(rng.choice([0, 1, 3]))
            got = kept_rows(dense, DropRule(tau, p))
            assert set(got.tolist()) == {int(idx[i]) for i in brute_force_drop(dense[idx], tau, p)}

    def test_support_never_grows(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            dense = rng.standard_normal(10) * (rng.random(10) < 0.7)
            got = kept_rows(dense, DropRule(0.3, 2), j=4)
            assert set(got.tolist()) <= set(np.flatnonzero(dense).tolist())

    def test_invalid_rule_rejected(self):
        with pytest.raises(ValueError):
            DropRule(1.5, 0)
        with pytest.raises(ValueError):
            DropRule(0.0, -1)

    def test_counts_must_be_integers(self):
        a, diag = SparseMatrix.identity(3), SubspacePattern.diagonal(3)
        for bad in (1.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="^p must be an integer >= 0$"):
                DropRule(0.0, bad)
            with pytest.raises(ValueError, match="^truncation depth k must be an integer >= 0$"):
                NeumannConfig(k=bad)
            with pytest.raises(ValueError, match="^k_v must be an integer >= 1$"):
                select_v_pattern(a, diag, diag, bad)
        assert DropRule(0.0, np.int64(2)).p == 2 and NeumannConfig(k=np.int32(1)).k == 1
        assert select_v_pattern(a, diag, diag, np.int64(1)) == diag


def no_drop_cfg(k):
    return NeumannConfig(k=k, initial_drop=DropRule(), level_drop=DropRule())


class TestNeumannPattern:
    def test_identity_matrix(self):
        a = SparseMatrix.identity(4)
        pat = neumann_pattern(a, SubspacePattern.diagonal(4), no_drop_cfg(3))
        assert pat == SubspacePattern.diagonal(4)

    def test_diagonal_matrix_any_v0(self):
        a = SparseMatrix.from_dense(np.diag([2.0, 3.0, 4.0]))
        v0 = SubspacePattern(3, [[0, 1], [0, 1], [2]])
        pat = neumann_pattern(a, v0, no_drop_cfg(2), blocks=BlockStructure([0, 2, 3]))
        assert pat == SubspacePattern.diagonal(3)

    def test_truncation_zero_gives_identity(self):
        rng = np.random.default_rng(2)
        a = random_sparse(rng, 8, density=0.3)
        pat = neumann_pattern(a, SubspacePattern.diagonal(8), no_drop_cfg(0))
        assert pat == SubspacePattern.diagonal(8)

    def test_lower_bidiagonal_reaches_down(self):
        # diag + subdiagonal: S has the subdiagonal structure, so powers
        # reach k steps below the diagonal
        n = 5
        a = SparseMatrix.from_dense(np.eye(n) + 0.5 * np.diag(np.ones(n - 1), -1))
        pat = neumann_pattern(a, SubspacePattern.diagonal(n), no_drop_cfg(2))
        for j in range(n):
            want = np.arange(j, min(j + 3, n))
            assert np.array_equal(pat.cols[j], want)

    def test_upper_bidiagonal_reaches_up(self):
        n = 5
        a = SparseMatrix.from_dense(np.eye(n) + 0.5 * np.diag(np.ones(n - 1), 1))
        pat = neumann_pattern(a, SubspacePattern.diagonal(n), no_drop_cfg(2))
        for j in range(n):
            want = np.arange(max(j - 2, 0), j + 1)
            assert np.array_equal(pat.cols[j], want)

    def test_pattern_disjoint_from_v0_offdiagonal(self):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 12, density=0.3)
        blocks = BlockStructure([0, 4, 8, 12])
        v0_cols = []
        for b in range(3):
            allowed = np.arange(4 * b, 4 * b + 4)
            v0_cols.extend([allowed] * 4)
        v0 = SubspacePattern(12, v0_cols)
        pat = neumann_pattern(a, v0, no_drop_cfg(2), blocks=blocks)
        for j in range(12):
            off = np.setdiff1d(np.intersect1d(pat.cols[j], v0.cols[j]), [j])
            assert len(off) == 0

    def test_matches_dense_power_expansion(self):
        # S = V0^{-1}(A - P_{V0}A); the pattern is the support of
        # I + S + S^2 minus the off-diagonal part of the V0 pattern
        rng = np.random.default_rng(4)
        n = 9
        bounds = BlockStructure([0, 2, 5, 6, 9])
        for shape in (None, "block-diagonal", "block-upper-triangular"):
            if shape is None:
                v0, blocks = SubspacePattern.diagonal(n), None
            else:
                v0, blocks = block_pattern(bounds, shape), bounds
            for _ in range(5):
                a = random_sparse(rng, n, density=0.25)
                d = a.to_dense()
                p_v0 = np.zeros((n, n))
                for j, c in enumerate(v0.cols):
                    p_v0[c, j] = d[c, j]
                s = np.linalg.solve(p_v0, d - p_v0)
                dense_acc = np.eye(n) + s + s @ s
                pat = neumann_pattern(a, v0, no_drop_cfg(2), blocks=blocks)
                for j in range(n):
                    off_v0 = v0.cols[j][v0.cols[j] != j]
                    want = np.setdiff1d(np.nonzero(dense_acc[:, j])[0], off_v0)
                    assert np.array_equal(pat.cols[j], want), (shape, j)

    @pytest.mark.parametrize("shape", [None, "block-diagonal", "block-upper-triangular"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("level", [DropRule(), DropRule(0.2, 4)])
    @pytest.mark.parametrize("initial", [DropRule(0.1, 0), DropRule(0.05, 3)])
    def test_matches_per_column_reference(self, shape, k, level, initial):
        rng = np.random.default_rng([5, k])
        n = 30
        bounds = BlockStructure([0, 4, 9, 10, 16, 23, 30])
        if shape is None:
            v0, blocks = SubspacePattern.diagonal(n), None
        else:
            v0, blocks = block_pattern(bounds, shape), bounds
        cfg = NeumannConfig(k=k, initial_drop=initial, level_drop=level)
        for dominant in (True, False):
            a = random_sparse(rng, n, density=0.12, dominant=dominant)
            got = neumann_pattern(a, v0, cfg, blocks=blocks)
            assert got == neumann_pattern_reference(a, v0, cfg, blocks=blocks)

    @pytest.mark.parametrize("level", [DropRule(), DropRule(0.2, 4)])
    @pytest.mark.parametrize("initial", [DropRule(0.1, 0), DropRule(0.05, 3)])
    def test_deep_v0_matches_per_column_reference(self, level, initial):
        # every block's first row couples to the next block: a chain of 12
        # levels, where no workload's V0 has more than 5
        rng = np.random.default_rng(7)
        bounds = np.array([0, 3, 7, 8, 12, 15, 19, 22, 23, 27, 30, 34, 36])
        n = int(bounds[-1])
        blocks = BlockStructure(bounds)
        v0 = block_pattern(blocks, "block-upper-triangular")
        cfg = NeumannConfig(k=2, initial_drop=initial, level_drop=level)
        for dominant in (True, False):
            d = random_sparse(rng, n, density=0.08, dominant=dominant).to_dense()
            d[bounds[:-2], bounds[1:-1]] = rng.random(len(bounds) - 2) + 0.5
            a = SparseMatrix.from_dense(d)
            in_v0 = np.where(v0.contains(np.arange(n * n)).reshape(n, n).T, d, 0.0)
            assert max(block_levels_reference(in_v0, bounds)) == len(bounds) - 2
            got = neumann_pattern(a, v0, cfg, blocks=blocks)
            assert got == neumann_pattern_reference(a, v0, cfg, blocks=blocks)

    def test_zero_diagonal_v0_names_every_position(self):
        d = np.eye(5) + np.diag([1.0] * 4, 1)
        d[1, 1] = d[3, 3] = 0.0
        a = SparseMatrix.from_dense(d)
        with pytest.raises(SingularBlockError, match=r"block 1 \(2 singular in all\)") as err:
            neumann_pattern(a, SubspacePattern.diagonal(5), NeumannConfig(k=1))
        assert err.value.blocks == (1, 3) and err.value.block_index == 1

    def test_cancelled_column_falls_back_to_diagonal(self):
        # S = [[0, -1], [1, 0]] on the first block: e_j + S e_j + S^2 e_j +
        # S^3 e_j is exactly zero for j = 0, 1
        d = np.zeros((4, 4))
        d[:2, :2] = [[1.0, -1.0], [1.0, 1.0]]
        d[2:, 2:] = [[2.0, 0.5], [0.25, 3.0]]
        a = SparseMatrix.from_dense(d)
        v0 = SubspacePattern.diagonal(4)
        cfg = no_drop_cfg(3)
        pat = neumann_pattern(a, v0, cfg)
        assert pat == neumann_pattern_reference(a, v0, cfg)
        assert np.array_equal(pat.cols[0], [0]) and np.array_equal(pat.cols[1], [1])
        assert np.array_equal(pat.cols[2], [2, 3])

    def test_block_v0_without_blocks_rejected(self):
        a = SparseMatrix.from_dense(np.eye(3) + np.diag([0.5, 0.5], 1))
        v0 = SubspacePattern(3, [[0, 1], [0, 1], [2]])
        with pytest.raises(ValueError, match="blocks"):
            neumann_pattern(a, v0, no_drop_cfg(2))

    def test_truncation_zero_factors_no_v0(self):
        # V0's first block [[1, 1], [1, 1]] is singular (det A = -3); with
        # k = 0 the pattern is the diagonal and V0 is never solved with
        a = SparseMatrix.from_dense([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                                     [1.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]])
        blocks = BlockStructure([0, 2, 4])
        v0 = block_pattern(blocks, "block-diagonal")
        with pytest.raises(SingularBlockError, match="block 0"):
            neumann_pattern(a, v0, no_drop_cfg(1), blocks=blocks)
        pat = neumann_pattern(a, v0, NeumannConfig(k=0), blocks=blocks)
        assert pat == SubspacePattern.diagonal(4)
        # the argument checks still hold
        with pytest.raises(ValueError, match="blocks"):
            neumann_pattern(a, v0, NeumannConfig(k=0))
        with pytest.raises(ValueError, match=r"diagonal \(column 0\)"):
            neumann_pattern(a, SubspacePattern(4, [[1], [0], [2], [3]]), NeumannConfig(k=0))
        with pytest.raises(ValueError, match="square"):
            neumann_pattern(a, SubspacePattern.diagonal(3), NeumannConfig(k=0))


def v0_problem(kind, rng):
    """``(a, v0, blocks)`` on 30 columns: a diagonal V0, a block-diagonal
    one, a block-upper one that couples no blocks (A is block lower
    triangular), and that one with one entry of A above its blocks."""
    bounds = BlockStructure([0, 4, 9, 10, 16, 23, 30])
    d = random_sparse(rng, 30, density=0.25).to_dense()
    if kind == "diagonal":
        return SparseMatrix.from_dense(d), SubspacePattern.diagonal(30), None
    if kind == "block-diagonal":
        return SparseMatrix.from_dense(d), block_pattern(bounds, "block-diagonal"), bounds
    for b in range(bounds.n_blocks):
        lo, hi = bounds.bounds(b)
        d[:lo, lo:hi] = 0.0
    if kind == "coupled":
        d[0, 29] = 0.5
    return SparseMatrix.from_dense(d), block_pattern(bounds, "block-upper-triangular"), bounds


class TestV0Routes:
    @pytest.mark.parametrize("kind", ["diagonal", "block-diagonal", "uncoupled", "coupled"])
    def test_s_matches_dense_solve(self, monkeypatch, kind):
        rng = np.random.default_rng([8, len(kind)])
        a, v0, blocks = v0_problem(kind, rng)
        walks = []
        walk = krylov.VFactorization.solve
        monkeypatch.setattr(krylov.VFactorization, "solve",
                            lambda self, x: walks.append(x.shape) or walk(self, x))
        in_v0 = v0.contains(a.entry_keys())
        s = patterns._V0Solver(a.masked(in_v0), blocks).solve_sparse(a.masked(~in_v0), DropRule())
        assert walks == []  # the sparse level walk, never a dense one
        d = a.to_dense()
        p_v0 = np.where(v0.contains(np.arange(900)).reshape(30, 30).T, d, 0.0)
        want = np.linalg.solve(p_v0, d - p_v0)
        assert np.array_equal(s.to_dense() != 0.0, want != 0.0)
        assert np.allclose(s.to_dense(), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("kind", ["diagonal", "block-diagonal", "uncoupled", "coupled"])
    def test_column_alone_matches_all_columns(self, kind):
        # a column's S, drop included, does not depend on the other columns
        a, v0, blocks = v0_problem(kind, np.random.default_rng([10, len(kind)]))
        in_v0 = v0.contains(a.entry_keys())
        solver = patterns._V0Solver(a.masked(in_v0), blocks)
        c, rule = a.masked(~in_v0), DropRule(0.05, 3)
        s = solver.solve_sparse(c, rule)
        for j in range(30):
            alone = solver.solve_sparse(c.masked(c._entry_columns() == j), rule)
            assert alone.nnz == len(s.column(j)[0])
            assert np.array_equal(alone.column(j)[0], s.column(j)[0])
            assert np.array_equal(alone.column(j)[1], s.column(j)[1])

    @pytest.mark.parametrize("kind", ["diagonal", "block-diagonal", "uncoupled", "coupled"])
    def test_one_split_check_and_solve_per_pattern(self, monkeypatch, kind):
        a, v0, blocks = v0_problem(kind, np.random.default_rng([9, len(kind)]))
        splits, checks, solves = [], [], []
        contains, check, solve_sparse = (SubspacePattern.contains, patterns._check_v0,
                                         patterns._V0Solver.solve_sparse)
        monkeypatch.setattr(SubspacePattern, "contains", lambda self, keys: splits.append(
            np.array_equal(keys, a.entry_keys())) or contains(self, keys))
        monkeypatch.setattr(patterns, "_check_v0", lambda *args: checks.append(1) or check(*args))
        monkeypatch.setattr(patterns._V0Solver, "solve_sparse",
                            lambda self, c, rule: solves.append(1) or solve_sparse(self, c, rule))
        neumann_pattern(a, v0, NeumannConfig(k=2), blocks=blocks)
        assert splits.count(True) == 1 and len(checks) == 1 and len(solves) == 1


class TestAdjointPattern:
    def test_diagonal_v0_matches_transpose_structure(self):
        rng = np.random.default_rng(5)
        a = random_sparse(rng, 10, density=0.3)
        pat = adjoint_pattern(a, SubspacePattern.diagonal(10))
        want = SubspacePattern.from_matrix(a.transpose()).with_diagonal()
        assert pat == want

    def test_identity_matrix(self):
        # rows of the identity have singleton structure, so the union is
        # exactly the seed pattern (plus the diagonal)
        a = SparseMatrix.identity(5)
        assert adjoint_pattern(a, SubspacePattern.diagonal(5)) == SubspacePattern.diagonal(5)
        v0 = random_pattern(np.random.default_rng(6), 5, per_col=2)
        assert adjoint_pattern(a, v0) == v0.with_diagonal()

    def test_monotone_in_v0(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_sparse(rng, 20, density=0.15)
            v0 = random_pattern(rng, 20, per_col=2)
            bigger = SubspacePattern(
                20,
                [np.union1d(v0.cols[j], rng.choice(20, 2)) for j in range(20)],
            )
            small = adjoint_pattern(a, v0)
            large = adjoint_pattern(a, bigger)
            for j in range(20):
                assert np.all(np.isin(small.cols[j], large.cols[j]))

    def test_sparsification_rule_applied(self):
        rng = np.random.default_rng(8)
        a = random_sparse(rng, 15, density=0.5)
        v0 = SubspacePattern.diagonal(15)
        dropped = adjoint_pattern(a, v0, rule=DropRule(0.0, 3))
        for j in range(15):
            assert len(dropped.cols[j]) <= 4  # 3 kept + protected diagonal


class TestSelectV:
    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("k_v", [1, 3, 8])
    def test_matches_columns_scored_alone(self, monkeypatch, chunk, k_v):
        a, wp, cand, size = sweep_problem(23)
        if chunk is not None:  # columns per chunk; None: all in one
            monkeypatch.setattr(patterns, "_SELECT_ENTRIES", chunk * size)
        assert select_v_pattern(a, wp, cand, k_v) == select_v_pattern_reference(a, wp, cand, k_v)

    def test_identity_selects_diagonal(self):
        a = SparseMatrix.identity(6)
        w = SubspacePattern.diagonal(6)
        cand = SubspacePattern(6, [np.arange(6)] * 6)
        pat = select_v_pattern(a, w, cand, k_v=1)
        # the diagonal scores 1, everything else 0: kept entry plus diagonal
        for j in range(6):
            assert j in pat.cols[j]
            assert len(pat.cols[j]) <= 2

    def test_large_kv_keeps_candidate(self):
        rng = np.random.default_rng(9)
        a = random_sparse(rng, 8, density=0.4)
        w = random_pattern(rng, 8, per_col=3)
        cand = random_pattern(rng, 8, per_col=4)
        pat = select_v_pattern(a, w, cand, k_v=10)
        assert pat == cand.with_diagonal()

    def test_selection_nested_in_kv(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = random_sparse(rng, 15, density=0.3)
            w = random_pattern(rng, 15, per_col=4)
            cand = SubspacePattern(15, [np.arange(15)] * 15)
            small = select_v_pattern(a, w, cand, k_v=3)
            large = select_v_pattern(a, w, cand, k_v=8)
            for j in range(15):
                assert np.all(np.isin(small.cols[j], large.cols[j]))


def structural_reach(a, wp):
    """Dense mask of the rows each block A_j holds, stored zeros included:
    the support of pattern(A) times the indicator of W."""
    n = a.n_cols
    pa = np.zeros((n, n))
    pa[a.row_idx, np.repeat(np.arange(n), np.diff(a.col_ptr))] = 1.0
    pw = np.zeros((n, n))
    keys = wp.keys()
    pw[keys % n, keys // n] = 1.0
    return pa @ pw > 0


def _counting_qr(monkeypatch, *args):
    """``select_v_pattern(*args)`` and its number of ``qr_householder`` calls."""
    calls = []
    real = patterns.qr_householder
    monkeypatch.setattr(patterns, "qr_householder", lambda m: calls.append(1) or real(m))
    return select_v_pattern(*args), len(calls)


class TestSelectVCut:
    """The selection scores only the candidates its blocks reach."""

    def test_problem_has_short_columns_and_a_zero_row(self):
        a, wp, cand, zero_row = block_upper_problem(11)
        n = a.n_cols
        keys = cand.keys()
        reached = structural_reach(a, wp)[keys % n, keys // n]
        per_col = np.bincount(keys // n, weights=reached, minlength=n)
        counts = cand.counts()
        for k_v in (1, 3, 8):  # ranked columns whose blocks reach fewer than k_v candidates
            assert np.any((counts > k_v) & (per_col < k_v))
        assert np.count_nonzero(a.values == 0.0) == 1
        zero_scores = 0
        for j in np.flatnonzero(counts > zero_row):
            sub = gather_block(a, wp.cols[j])
            at = np.flatnonzero(sub.active_rows == zero_row)
            if len(at):
                q = qr_householder(pad_tall(sub.dense_block)).q_thin
                zero_scores += not np.any(q[at[0]])
        assert zero_scores > 0  # a stored-zero row is active and scores 0

    @pytest.mark.parametrize("entries", [1, 60, 1 << 30])  # one, a few, all columns per chunk
    @pytest.mark.parametrize("k_v", [1, 3, 8])
    def test_block_upper_matches_columns_scored_alone(self, monkeypatch, entries, k_v):
        a, wp, cand, _ = block_upper_problem(11)
        monkeypatch.setattr(patterns, "_SELECT_ENTRIES", entries)
        assert select_v_pattern(a, wp, cand, k_v) == select_v_pattern_reference(a, wp, cand, k_v)

    @pytest.mark.parametrize("k_v", [1, 2, 4])
    def test_candidate_without_diagonal(self, k_v):
        # the cut adds every diagonal; one the candidate lacks must not rank
        rng = np.random.default_rng(13)
        a = random_sparse(rng, 30, density=0.1)
        wp = random_pattern(rng, 30, per_col=2)
        cand = SubspacePattern(30, [np.sort(rng.choice(np.setdiff1d(np.arange(30), [j]), 6,
                                                       replace=False)) for j in range(30)])
        assert select_v_pattern(a, wp, cand, k_v) == select_v_pattern_reference(a, wp, cand, k_v)

    @pytest.mark.parametrize("entries", [1, 1 << 30])  # one column per chunk, one chunk
    @pytest.mark.parametrize("k_v", [1, 3, 8])
    def test_factors_only_chunks_where_a_column_has_a_choice(self, monkeypatch, entries, k_v):
        a, wp, cand, _ = block_upper_problem(11)
        n = a.n_cols
        monkeypatch.setattr(patterns, "_SELECT_ENTRIES", entries)
        keys = cand.keys()
        col, row = keys // n, keys % n
        # a column holds its reached candidates, and its diagonal when a candidate
        held = np.bincount(col, weights=structural_reach(a, wp)[row, col] | (row == col),
                           minlength=n)[cand.counts() > k_v]
        if entries == 1:
            want = np.count_nonzero(held > k_v)
            assert 0 < want < len(held)  # some ranked columns skip, some are factored
        else:
            want = len(held) if np.any(held > k_v) else 0
        assert _counting_qr(monkeypatch, a, wp, cand, k_v)[1] == want

    def test_components_smaller_than_kv_factor_nothing(self, monkeypatch):
        # block lower triangular A, W the diagonal blocks: A_j reaches no
        # candidate above its block, so no column has more than its block
        rng = np.random.default_rng(5)
        n, k_v = 48, 5
        bounds = np.concatenate([[0], np.cumsum(rng.integers(2, 5, size=n))])
        blocks = BlockStructure(np.append(bounds[bounds < n], n))
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
        for b in range(blocks.n_blocks):
            lo, hi = blocks.bounds(b)
            dense[:hi, lo:hi] = 0.0
            dense[lo:hi, lo:hi] = rng.standard_normal((hi - lo, hi - lo)) + 4 * np.eye(hi - lo)
        a = SparseMatrix.from_dense(dense)
        assert scc_block_structure(a, n)[1].sizes.max() < k_v
        wp = block_pattern(blocks, "block-diagonal")
        cand = block_pattern(blocks, "block-upper-triangular")
        assert np.count_nonzero(cand.counts() > k_v) > n // 2
        got, calls = _counting_qr(monkeypatch, a, wp, cand, k_v)
        assert calls == 0
        assert got == select_v_pattern_reference(a, wp, cand, k_v)

    def test_chunks_hold_only_reachable_positions(self, monkeypatch):
        a, wp, cand, _ = block_upper_problem(12, n=240)
        held = []
        real = patterns.column_chunks

        def counted(*args, **kwargs):
            for ch in real(*args, **kwargs):
                held.append(len(ch.v_rows))
                yield ch

        monkeypatch.setattr(patterns, "column_chunks", counted)
        select_v_pattern(a, wp, cand, 8)
        bound = np.count_nonzero(structural_reach(a, wp)) + a.n_cols
        assert held and sum(held) <= bound
        assert bound < cand.nnz // 4  # the whole candidate would break the bound

    @pytest.mark.parametrize("k_v", [1, 3, 8])
    def test_ranked_columns_keep_only_reached_positions(self, k_v):
        a, wp, cand, _ = block_upper_problem(11)
        n = a.n_cols
        keys = select_v_pattern(a, wp, cand, k_v).keys()
        col, row = keys // n, keys % n
        ranked = (cand.counts() > k_v)[col]
        assert np.all((structural_reach(a, wp)[row, col] | (row == col))[ranked])
        assert np.any(ranked & (row != col))

    @pytest.mark.parametrize("k_v", [1, 3, 8])
    def test_unreached_positions_change_no_factor(self, k_v):
        # neither factorization can give V a value off the rows A_j reaches
        a, wp, cand, _ = block_upper_problem(11)
        n = a.n_cols
        chosen = select_v_pattern(a, wp, cand, k_v)
        keys = cand.keys()
        unreached = keys[~structural_reach(a, wp)[keys % n, keys // n]]
        padded = SubspacePattern.from_keys(n, np.union1d(chosen.keys(), unreached))
        assert padded.nnz > chosen.nnz
        factors = [lambda vp: diaf_q(a, wp, vp),
                   lambda vp: diaf_q(a, wp, vp, StabilizationPolicy(threshold=0.3)),
                   lambda vp: diaf_s(a, wp, vp)]
        for factor in factors:
            want, got = factor(chosen), factor(padded)
            for m in ("w", "v"):
                assert np.array_equal(getattr(got, m).entry_keys(), getattr(want, m).entry_keys())
                assert np.array_equal(getattr(got, m).values, getattr(want, m).values)
            assert np.array_equal(got.column_residuals, want.column_residuals)
            assert got.flagged_columns == want.flagged_columns
            assert got.stab_count == want.stab_count


def test_selection_builds_blocks_only_for_factored_chunks(monkeypatch):
    # one column per chunk, and some ranked columns hold no more than k_v
    # positions: those chunks are kept whole and never fill their blocks
    a, wp, cand, _ = block_upper_problem(11)
    k_v = 3
    monkeypatch.setattr(patterns, "_SELECT_ENTRIES", 1)
    chunks, filled = [], []
    real = patterns.column_chunks
    monkeypatch.setattr(patterns, "column_chunks",
                        lambda *args, **kw: (chunks.append(ch) or ch for ch in real(*args, **kw)))
    real_blocks = sparse.ColumnChunk.blocks.fget

    def counted_blocks(ch):
        if ch._blocks is None:
            filled.append(ch)
        return real_blocks(ch)

    monkeypatch.setattr(sparse.ColumnChunk, "blocks", property(counted_blocks))
    got, calls = _counting_qr(monkeypatch, a, wp, cand, k_v)
    factored = [np.bincount(ch.v_col).max() > k_v for ch in chunks]
    assert 0 < sum(factored) == calls < len(chunks)
    # each factored chunk fills its buffer once, and no other chunk fills one
    assert [sum(f is ch for f in filled) for ch in chunks] == [int(f) for f in factored]
    assert got == select_v_pattern_reference(a, wp, cand, k_v)


@pytest.mark.parametrize("sweep_entries", [1, 10 ** 12])
def test_selection_chunks_do_not_follow_the_sweep_budget(monkeypatch, sweep_entries):
    # the factor sweeps' chunk budget leaves the selection's chunks, and so
    # the blocks it factors, as they are; a chunk of one column would
    # factor few blocks here, and one chunk all of them
    rng = np.random.default_rng(14)
    a = random_sparse(rng, 300, density=0.02)
    wp, cand = random_pattern(rng, 300, per_col=3), random_pattern(rng, 300, per_col=6)
    chunks = []
    real = patterns.column_chunks
    monkeypatch.setattr(patterns, "column_chunks",
                        lambda *args, **kw: (chunks.append(ch.cols) or ch for ch in real(*args, **kw)))
    want, want_calls = _counting_qr(monkeypatch, a, wp, cand, 3)
    want_chunks, chunks[:] = chunks[:], []
    monkeypatch.setattr(sparse, "_SWEEP_ENTRIES", sweep_entries)
    got, calls = _counting_qr(monkeypatch, a, wp, cand, 3)
    assert len(want_chunks) > 2 and 0 < want_calls < a.n_cols
    assert got == want and calls == want_calls
    assert len(chunks) == len(want_chunks)
    assert all(np.array_equal(g, w) for g, w in zip(chunks, want_chunks))
