import numpy as np
import pytest

import diafact.krylov as krylov
from diafact.factor import diaf_q
from diafact.krylov import (
    SingularBlockError,
    _sparse_inverse,
    apply_right_precond,
    bicgstab,
    cond_estimate,
    factor_v,
)
from diafact.patterns import DropRule, NeumannConfig, _V0Solver, neumann_pattern
from diafact.preprocess import BlockStructure, block_pattern
from diafact.sparse import SparseMatrix, SubspacePattern, spmv

from helpers import block_levels_reference, lu_factor_reference, random_pattern, random_sparse


def block_upper_matrix(rng, bounds):
    n = bounds[-1]
    d = np.zeros((n, n))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        blk = rng.standard_normal((hi - lo, hi - lo))
        blk += np.eye(hi - lo) * (np.abs(blk).sum() + 1)
        d[lo:hi, lo:hi] = blk
        d[:lo, lo:hi] = rng.standard_normal((lo, hi - lo)) * (rng.random((lo, hi - lo)) < 0.4)
    return SparseMatrix.from_dense(d)


class TestFactorV:
    def test_identity(self):
        v = SparseMatrix.identity(4)
        vf = factor_v(v, BlockStructure([0, 2, 4]), "block-diagonal")
        x = np.arange(4.0)
        assert np.allclose(vf.solve(x), x)

    def test_diagonal_scaling(self):
        v = SparseMatrix.from_dense(np.diag([2.0, 4.0]))
        vf = factor_v(v, BlockStructure([0, 1, 2]), "block-diagonal")
        assert np.allclose(vf.solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_block_upper_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        for bounds in ([0, 7, 13, 21, 30], [0, 50, 110, 160, 200]):
            v = block_upper_matrix(rng, bounds)
            vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
            d = v.to_dense()
            for _ in range(5):
                x = rng.standard_normal(bounds[-1])
                want = np.linalg.solve(d, x)
                got = vf.solve(x)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
                want_t = np.linalg.solve(d.T, x)
                got_t = vf.solve_transpose(x)
                assert np.linalg.norm(got_t - want_t) <= 1e-10 * np.linalg.norm(want_t)

    def test_sparse_rhs_leaves_unreached_blocks_zero(self):
        rng = np.random.default_rng(2)
        bounds = [0, 7, 13, 21, 30]
        v = block_upper_matrix(rng, bounds)
        vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        d = v.to_dense()
        # nonzero only inside block 1: blocks 2 and 3 solve to exact zeros,
        # and block 0 is reached only through the off-block coupling
        x = np.zeros(30)
        x[[8, 11]] = [1.5, -2.0]
        got = vf.solve(x)
        want = np.linalg.solve(d, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.all(got[13:] == 0.0)
        # transposed: blocks 0 and 1 stay exactly zero
        e = np.zeros(30)
        e[15] = 1.0
        got_t = vf.solve_transpose(e)
        want_t = np.linalg.solve(d.T, e)
        assert np.linalg.norm(got_t - want_t) <= 1e-12 * np.linalg.norm(want_t)
        assert np.all(got_t[:13] == 0.0)

    def test_one_sum_per_position(self):
        # three 1x1 blocks, V strictly upper triangular off its unit
        # diagonal: position 0 is updated from two levels, and in the
        # transpose position 2 is; each subtracts one sum over its entries,
        # in CSC order, not the entries one by one
        v01, v02, v12 = 0.72, 0.45, 0.22
        d = np.array([[1.0, v01, v02], [0.0, 1.0, v12], [0.0, 0.0, 1.0]])
        vf = factor_v(SparseMatrix.from_dense(d), BlockStructure([0, 1, 2, 3]),
                      "block-upper-triangular")
        assert len(vf.levels) == 3
        x = np.array([0.75, 0.57, 0.38])
        z2 = x[2]
        z1 = x[1] - v12 * z2
        assert x[0] - (v01 * z1 + v02 * z2) != (x[0] - v01 * z1) - v02 * z2
        assert np.array_equal(vf.solve(x), [x[0] - (v01 * z1 + v02 * z2), z1, z2])
        y0 = x[0]
        y1 = x[1] - v01 * y0
        assert x[2] - (v02 * y0 + v12 * y1) != (x[2] - v02 * y0) - v12 * y1
        assert np.array_equal(vf.solve_transpose(x), [y0, y1, x[2] - (v02 * y0 + v12 * y1)])

    def test_right_hand_sides_of_another_shape_rejected(self):
        v = SparseMatrix.from_dense([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 3.0]])
        vf = factor_v(v, BlockStructure([0, 1, 3]), "block-upper-triangular")
        for x in (np.ones(4), np.ones(2), np.ones((3, 2)), np.ones((4, 2)), np.ones((3, 2, 2)),
                  np.float64(1.0)):
            for solve in (vf.solve, vf.solve_transpose):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    solve(x)
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_right_precond(SparseMatrix.identity(3), vf, np.ones(4))

    def test_block_cancelled_to_zero_by_its_update(self):
        # no zero in x, so no block is tested; block 0's right-hand side
        # cancels exactly after the update from block 1 and solves to zero
        d = np.array([[2.0, 1.0, 1.0, 0.0],
                      [1.0, 3.0, 0.0, 1.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0]])
        vf = factor_v(SparseMatrix.from_dense(d), BlockStructure([0, 2, 4]),
                      "block-upper-triangular")
        got = vf.solve(np.array([1.0, 1.0, 1.0, 1.0]))
        assert np.array_equal(got, [0.0, 0.0, 1.0, 1.0])
        # transposed: block 1's right-hand side is what block 0 subtracts
        z0 = vf.solve_transpose(np.array([1.0, 1.0, 0.0, 0.0]))[:2]
        got_t = vf.solve_transpose(np.concatenate([[1.0, 1.0], z0]))
        assert np.array_equal(got_t, np.concatenate([z0, [0.0, 0.0]]))

    def test_ill_conditioned_blocks(self):
        # kappa = 1e5 in every diagonal block: applying explicit inverses
        # must stay within about 50 * u * kappa of a dense solve
        rng = np.random.default_rng(5)
        bounds = [0, 50, 100, 150, 200]
        sigma = np.logspace(0, -5, 50)
        d = np.zeros((200, 200))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            q1, _ = np.linalg.qr(rng.standard_normal((50, 50)))
            q2, _ = np.linalg.qr(rng.standard_normal((50, 50)))
            d[lo:hi, lo:hi] = (q1 * sigma) @ q2.T
            d[:lo, lo:hi] = 1e-6 * rng.standard_normal((lo, 50))
        assert 1e4 <= np.linalg.cond(d) <= 1e6
        v = SparseMatrix.from_dense(d)
        vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        for _ in range(3):
            x = rng.standard_normal(200)
            want = np.linalg.solve(d, x)
            assert np.linalg.norm(vf.solve(x) - want) <= 1e-9 * np.linalg.norm(want)
            want_t = np.linalg.solve(d.T, x)
            got_t = vf.solve_transpose(x)
            assert np.linalg.norm(got_t - want_t) <= 1e-9 * np.linalg.norm(want_t)
        again = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        assert np.array_equal(again.solve(x), vf.solve(x))

    def test_block_lu_reconstructs_blocks(self):
        # each block's inverse in the walk's levels is bitwise np.linalg.inv
        # of that block alone, whatever its stack, and inverts it to within
        # 1e-14 in the Frobenius norm (the blocks are diagonally dominant);
        # lu_nnz counts the reference LU, L's unit diagonal and the entries
        # above the blocks
        rng = np.random.default_rng(1)
        bounds = [0, 5, 9, 14]
        v = block_upper_matrix(rng, bounds)
        vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        d = v.to_dense()
        block_of = vf.blocks.block_of()
        assert len(vf.levels) == 3
        seen, lu_nnz = [], 14 + np.count_nonzero(d[block_of[:, None] < block_of])
        for pos, stacks, _, _ in vf.levels:
            for at, inv in stacks:
                for idx, got in zip(pos[at], inv):
                    block = d[np.ix_(idx, idx)]
                    assert np.array_equal(got, np.linalg.inv(block))
                    assert np.linalg.norm(got @ block - np.eye(len(idx))) <= 1e-14
                    ref = lu_factor_reference(block)
                    lu_nnz += np.count_nonzero(ref[0])
                    seen.append(int(block_of[idx[0]]))
        assert sorted(seen) == [0, 1, 2]
        assert vf.lu_nnz == lu_nnz

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(4, 4), (5, 4), (0, 4)])
    def test_non_finite_entry_rejected(self, at, bad):
        # in a diagonal block (its diagonal, then below it) and above the
        # blocks: LAPACK's inverse would return NaN without a word.  V is
        # built unvalidated, as the factor sweeps assemble it
        d = np.eye(6) + np.diag(np.full(5, 0.5), 1)
        d[at] = 1.0
        v = SparseMatrix.from_dense(d)
        values = v.values.copy()
        values[v.col_ptr[4] + np.searchsorted(v.column(4)[0], at[0])] = bad
        v = SparseMatrix(6, 6, v.col_ptr, v.row_idx, values, validate=False)
        with pytest.raises(ValueError, match="^non-finite entry of V in column 4$"):
            factor_v(v, BlockStructure([0, 2, 4, 6]), "block-upper-triangular")

    def test_applied_nnz_counts_block_squares_and_entries_above(self):
        # blocks of 2, 1 and 3: 4 + 1 + 9 inverse values, though the
        # last block is diagonal, and 3 entries above the blocks
        d = np.eye(6)
        d[0, 1] = d[1, 0] = 0.5
        d[0, 2] = d[1, 4] = d[2, 5] = 0.25
        vf = factor_v(SparseMatrix.from_dense(d), BlockStructure([0, 2, 3, 6]),
                      "block-upper-triangular")
        assert vf.applied_nnz == 4 + 1 + 9 + 3

    def test_singular_block_names_index(self):
        d = np.eye(6)
        d[3, 3] = 0.0
        d[3, 4] = 1.0  # keeps the column nonempty, block [3,4) stays singular
        v = SparseMatrix.from_dense(d)
        with pytest.raises(SingularBlockError) as err:
            factor_v(v, BlockStructure([0, 3, 5, 6]), "block-upper-triangular")
        assert err.value.block_index == 1
        assert err.value.blocks == (1,)

    def test_every_singular_block_named(self):
        # blocks 4 (size 1), 1 and 3 (size 2) singular, in two stacks
        d = np.eye(9) + np.diag(np.full(8, 0.5), 1)
        d[2:4, 2:4] = [[1.0, 2.0], [2.0, 4.0]]
        d[6:8, 6:8] = 0.0
        d[6, 7] = d[5, 6] = 1.0
        d[8, 8] = 0.0
        d[7, 8] = 1.0
        bounds = BlockStructure([0, 2, 4, 5, 6, 8, 9])
        with pytest.raises(SingularBlockError, match=r"block 1 \(3 singular in all\)") as err:
            factor_v(SparseMatrix.from_dense(d), bounds, "block-upper-triangular")
        assert err.value.blocks == (1, 4, 5) and err.value.block_index == 1

    def test_shape_errors_come_before_singular_blocks(self):
        # block 0 is singular, and column 3 holds an entry below its block
        d = np.eye(4)
        d[0, 0] = 0.0
        d[1, 0] = d[3, 2] = 1.0
        v = SparseMatrix.from_dense(d)
        with pytest.raises(ValueError, match="shape in column 2$"):
            factor_v(v, BlockStructure([0, 2, 3, 4]), "block-upper-triangular")
        with pytest.raises(ValueError, match="dimensions"):
            factor_v(v, BlockStructure([0, 2, 5]), "block-upper-triangular")
        with pytest.raises(ValueError, match="unknown shape"):
            factor_v(v, BlockStructure([0, 2, 3, 4]), "block-lower-triangular")
        d[3, 2] = 0.0
        with pytest.raises(SingularBlockError) as err:
            factor_v(SparseMatrix.from_dense(d), BlockStructure([0, 2, 3, 4]),
                     "block-upper-triangular")
        assert err.value.blocks == (0,)

    def test_out_of_shape_entry_rejected(self):
        v = SparseMatrix.from_dense([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="shape in column 0"):
            factor_v(v, BlockStructure([0, 1, 2]), "block-diagonal")
        # block-upper: the entry (5, 3) sits below block [2, 4); the entry
        # (0, 4) above block [4, 6) is allowed
        d = np.eye(6)
        d[5, 3] = d[0, 4] = 1.0
        with pytest.raises(ValueError, match="shape in column 3$"):
            factor_v(SparseMatrix.from_dense(d), BlockStructure([0, 2, 4, 6]),
                     "block-upper-triangular")

    @pytest.mark.parametrize("transpose", [False, True])
    def test_zero_right_hand_side_solves_to_zeros(self, transpose):
        rng = np.random.default_rng(4)
        bounds = [0, 3, 7, 10, 13, 18, 21, 25]
        vf = factor_v(block_upper_matrix(rng, bounds), BlockStructure(bounds),
                      "block-upper-triangular")
        assert len(vf.levels) >= 3
        solve = vf.solve_transpose if transpose else vf.solve
        got = solve(np.zeros(25))
        assert got.shape == (25,) and not got.any()

    @pytest.mark.parametrize("bounds", [[0, 1, 2, 3, 4, 5, 6], [0, 3, 7, 10, 13, 18, 21, 25]])
    def test_uncoupled_solve_of_a_sparse_matrix(self, bounds):
        rng = np.random.default_rng(9)
        n = bounds[-1]
        v = block_upper_matrix(rng, bounds)
        v = v.masked(v.row_idx >= np.repeat(bounds[:-1], np.diff(bounds))[v._entry_columns()])
        vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        (pos, _, _, (there, _, _)), = vf.levels  # one level
        assert np.array_equal(pos, np.arange(n)) and len(there) == 0
        dense = rng.standard_normal((n, 9)) * (rng.random((n, 9)) < 0.3)
        dense[:, 4] = 0.0  # an empty column
        c = SparseMatrix.from_dense(dense)
        got = vf.solve_sparse(c, 0.5)  # one level: nothing is dropped
        assert got.shape == (n, 9) and np.all(got.values != 0.0)
        want = np.linalg.solve(v.to_dense(), dense)
        assert np.array_equal(got.to_dense() != 0.0, want != 0.0)
        assert np.allclose(got.to_dense(), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        for j in range(9):  # a column's result does not depend on the others
            rows, vals = c.column(j)
            alone = vf.solve_sparse(SparseMatrix(n, 1, [0, len(rows)], rows, vals), 0.5)
            assert np.array_equal(alone.row_idx, got.column(j)[0])
            assert np.array_equal(alone.values, got.column(j)[1])
        with pytest.raises(ValueError, match="dimension mismatch"):
            vf.solve_sparse(SparseMatrix.identity(n + 1), 0.5)

    def test_sparse_levels_of_a_coupled_v(self):
        rng = np.random.default_rng(11)
        bounds = [0, 3, 7, 10, 13, 18, 21, 25]
        v = block_upper_matrix(rng, bounds)
        vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        assert len(vf.levels) >= 3
        # the levels partition the indices as the loop reference levels the
        # blocks; their into and out_of parts each hold V's entries above its
        # blocks, in CSC order within a level
        d = v.to_dense()
        level = np.repeat(block_levels_reference(d, bounds), np.diff(bounds))
        assert np.array_equal(np.concatenate([pos for pos, *_ in vf.levels]),
                              np.argsort(level, kind="stable"))
        assert np.array_equal(np.sort(level), np.repeat(np.arange(len(vf.levels)),
                                                         [len(pos) for pos, *_ in vf.levels]))
        block_of = vf.blocks.block_of()
        cols = v._entry_columns()
        want = v.entry_keys()[block_of[v.row_idx] < block_of[cols]]
        into_keys, out_keys = [], []
        for pos, _, (here, col, val), (there, row, val_t) in vf.levels:
            assert np.all(np.diff(pos) > 0)
            into_keys.append(col * 25 + pos[here])
            out_keys.append(pos[there] * 25 + row)
            assert np.all(np.diff(into_keys[-1]) > 0) and np.all(np.diff(out_keys[-1]) > 0)
            assert np.array_equal(val, d[pos[here], col])
            assert np.array_equal(val_t, d[row, pos[there]])
        for keys in (into_keys, out_keys):
            assert np.array_equal(np.sort(np.concatenate(keys)), want)
        for pos, stacks, _, (there, row, _) in vf.levels:
            # the stacks cover the level; the V0 walk makes their inverses
            # one sparse matrix in the level's numbering, and the entries
            # above the blocks in the level's columns have their rows
            # outside the level
            m = len(pos)
            assert np.array_equal(np.sort(np.concatenate([at.ravel() for at, _ in stacks])),
                                  np.arange(m))
            inv = _sparse_inverse(m, stacks)
            assert inv.shape == (m, m) and np.all(inv.values != 0.0)
            want_inv = np.zeros((m, m))
            for b in np.unique(block_of[pos]):
                at = np.flatnonzero(block_of[pos] == b)
                want_inv[np.ix_(at, at)] = np.linalg.inv(d[np.ix_(pos[at], pos[at])])
            assert np.allclose(inv.to_dense(), want_inv, rtol=1e-12, atol=1e-12)
            assert not np.isin(row, pos).any()
            assert np.all(block_of[row] < block_of[pos[there]])

    def test_levels_hold_their_own_entries(self):
        # a chain of 300 blocks of one, one level each: the levels that the
        # V walks and the sparse walk read hold O(n + nnz(V)) values in all,
        # not n per level, and the V0 solver keeps nothing but its
        # factorization
        n = 300
        d = 2.0 * np.eye(n) + np.eye(n, k=1)
        v, blocks = SparseMatrix.from_dense(d), BlockStructure(np.arange(n + 1))
        vf = factor_v(v, blocks, "block-upper-triangular")
        assert len(vf.levels) == n

        def held(x):
            if isinstance(x, np.ndarray):
                return x.size
            if isinstance(x, SparseMatrix):
                return held((x.col_ptr, x.row_idx, x.values))
            return sum(held(y) for y in x)

        assert held(vf.levels) <= 8 * (n + v.nnz)
        solver = _V0Solver(v, blocks)
        assert solver.__dict__.keys() == {"_vf"} and held(solver._vf.levels) <= 8 * (n + v.nnz)
        x = np.random.default_rng(12).standard_normal(n)
        assert np.allclose(vf.solve(x), np.linalg.solve(d, x), rtol=1e-12, atol=1e-12)
        assert np.allclose(vf.solve_transpose(x), np.linalg.solve(d.T, x), rtol=1e-12, atol=1e-12)
        s = vf.solve_sparse(SparseMatrix.from_dense(x[:, None]), 0.0)
        assert np.allclose(s.to_dense()[:, 0], np.linalg.solve(d, x), rtol=1e-12, atol=1e-12)

    def test_inverse_of_an_uncoupled_v(self):
        rng = np.random.default_rng(10)
        bounds = [0, 2, 3, 7, 10, 13, 18, 21, 25]
        v = block_upper_matrix(rng, bounds)
        cols = v._entry_columns()
        lo = np.repeat(bounds[:-1], np.diff(bounds))[cols]
        diagonal = (cols >= 3) & (cols < 7)  # a block whose inverse holds exact zeros
        v = v.masked((v.row_idx >= lo) & (~diagonal | (v.row_idx == cols)))
        vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        (_, stacks, _, _), = vf.levels  # one level
        inv = _sparse_inverse(25, stacks)
        want = np.linalg.inv(v.to_dense())
        assert inv.shape == (25, 25) and np.all(inv.values != 0.0)
        assert np.array_equal(inv.to_dense() != 0.0, want != 0.0)
        assert np.allclose(inv.to_dense(), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # with one level the sparse walk applies that inverse as it is
        got = vf.solve_sparse(SparseMatrix.identity(25), 0.0)
        assert np.array_equal(got.entry_keys(), inv.entry_keys())
        assert np.array_equal(got.values, inv.values)

    def test_sparse_walk_matches_the_vector_walk(self):
        # a coupled V of at least 3 levels: with tau = 0 the sparse walk
        # drops nothing, and each column of it is the vector walk's solve of
        # that column of c, holding exactly that solve's nonzeros
        rng = np.random.default_rng(13)
        bounds = [0, 3, 7, 10, 13, 18, 21, 25]
        vf = factor_v(block_upper_matrix(rng, bounds), BlockStructure(bounds),
                      "block-upper-triangular")
        assert len(vf.levels) >= 3
        dense = rng.standard_normal((25, 8)) * (rng.random((25, 8)) < 0.2)
        dense[:, 3] = 0.0  # an empty column
        dense[:, 5] = 0.0
        dense[24, 5] = 1.0  # one entry, in the last block
        got = vf.solve_sparse(SparseMatrix.from_dense(dense), 0.0)
        assert got.shape == (25, 8)
        for j in range(8):
            want = vf.solve(dense[:, j])
            rows, vals = got.column(j)
            assert np.array_equal(rows, np.flatnonzero(want))
            assert np.allclose(vals, want[rows], rtol=1e-12, atol=0.0)


class TestBlockLuOnlyForRho:
    @pytest.fixture
    def lu_calls(self, monkeypatch):
        """The stack shapes of every lu_factor_stack call krylov makes."""
        calls, real = [], krylov.lu_factor_stack
        monkeypatch.setattr(krylov, "lu_factor_stack", lambda a: calls.append(a.shape) or real(a))
        return calls

    def test_inversion_and_v0_walk_run_no_lu(self, lu_calls):
        rng = np.random.default_rng(6)
        bounds = BlockStructure([0, 3, 7, 10, 13, 18])
        a = random_sparse(rng, 18, density=0.3)
        cfg = NeumannConfig(2, DropRule(0.05, 0), DropRule())
        pat = neumann_pattern(a, block_pattern(bounds, "block-upper-triangular"), cfg,
                              blocks=bounds)
        assert pat.nnz > 18
        factor_v(block_upper_matrix(rng, bounds.block_bounds), bounds, "block-upper-triangular")
        assert lu_calls == []

    def test_first_read_of_lu_nnz_factors_each_block_size_once(self, lu_calls):
        rng = np.random.default_rng(7)
        bounds = [0, 3, 7, 10, 13, 18]  # sizes 3, 4, 3, 3, 5
        v = block_upper_matrix(rng, bounds)
        vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        assert lu_calls == []
        lu_nnz = vf.lu_nnz
        assert sorted(lu_calls) == [(1, 4, 4), (1, 5, 5), (3, 3, 3)]
        assert vf.lu_nnz == lu_nnz and len(lu_calls) == 3


class TestApplyPrecond:
    def test_identity(self):
        w = SparseMatrix.identity(3)
        vf = factor_v(SparseMatrix.identity(3), BlockStructure([0, 3]), "block-diagonal")
        x = np.array([1.0, -2.0, 3.0])
        assert np.allclose(apply_right_precond(w, vf, x), x)

    def test_exact_inverse_construction(self):
        rng = np.random.default_rng(2)
        for n in (4, 7, 10):
            a = random_sparse(rng, n, density=0.5)
            v = SparseMatrix.from_dense(np.diag(rng.random(n) + 0.5))
            w = SparseMatrix.from_dense(np.linalg.inv(a.to_dense()) @ v.to_dense())
            vf = factor_v(v, BlockStructure([0, n]), "block-diagonal")
            x = rng.standard_normal(n)
            y = apply_right_precond(w, vf, x)
            assert np.linalg.norm(spmv(a, y) - x) <= 1e-10 * np.linalg.norm(x)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        w = random_sparse(rng, 6, density=0.5)
        v = SparseMatrix.from_dense(np.diag(rng.random(6) + 1.0))
        vf = factor_v(v, BlockStructure([0, 2, 6]), "block-diagonal")
        x, z = rng.standard_normal(6), rng.standard_normal(6)
        lhs = apply_right_precond(w, vf, 2.0 * x - 3.0 * z)
        rhs = 2.0 * apply_right_precond(w, vf, x) - 3.0 * apply_right_precond(w, vf, z)
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestBicgstab:
    def test_identity_converges_immediately(self):
        a = SparseMatrix.identity(5)
        b = np.arange(1.0, 6.0)
        x, rep = bicgstab(a, b)
        assert rep.status == "converged"
        assert rep.iterations <= 1
        assert np.allclose(x, b)

    def test_tol_must_be_finite_and_positive(self):
        a = SparseMatrix.identity(3)
        for bad in (np.nan, np.inf, 0.0, -1e-8):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                bicgstab(a, np.ones(3), tol=bad)

    def test_maxit_must_be_a_nonnegative_integer(self):
        a = SparseMatrix.identity(3)
        for bad in (-1, 2.5, 2.0, np.float64(3.0)):
            with pytest.raises(ValueError, match="^maxit must be an integer >= 0$"):
                bicgstab(a, np.ones(3), maxit=bad)
        _, rep = bicgstab(a, np.ones(3), maxit=np.int64(0))
        assert rep.iterations == 0 and rep.status == "no_convergence"

    def test_b_must_be_a_finite_vector(self):
        a = SparseMatrix.identity(4)
        bad = [np.ones((4, 1)), np.ones(3), np.array([1.0, np.nan, 1.0, 1.0]),
               np.array([1.0, 1.0, np.inf, 1.0])]
        for b in bad:
            with pytest.raises(ValueError, match="^b must be a finite vector of length 4$"):
                bicgstab(a, b)

    def test_diagonal_system(self):
        a = SparseMatrix.from_dense(np.diag(np.arange(1.0, 11.0)))
        b = np.ones(10)
        x, rep = bicgstab(a, b, tol=1e-8)
        assert rep.status == "converged"
        assert rep.relative_residual <= 1e-8
        want = 1.0 / np.arange(1.0, 11.0)
        assert np.linalg.norm(x - want) <= 1e-7 * np.linalg.norm(want)

    def test_true_residual_reduced_eight_orders(self):
        rng = np.random.default_rng(4)
        a = SparseMatrix.from_dense(np.diag(rng.random(20) + 0.1))
        b = rng.standard_normal(20)
        x, rep = bicgstab(a, b, tol=1e-8)
        assert rep.status == "converged"
        assert rep.true_relative_residual <= 1e-8 * (1 + 1e-6)

    def test_spd_diagonal_converges_within_n(self):
        rng = np.random.default_rng(5)
        for n in (5, 20, 50):
            a = SparseMatrix.from_dense(np.diag(rng.random(n) + 0.5))
            b = rng.standard_normal(n)
            _, rep = bicgstab(a, b)
            assert rep.status == "converged"
            assert rep.iterations <= n

    def test_zero_rhs(self):
        a = SparseMatrix.identity(3)
        x, rep = bicgstab(a, np.zeros(3))
        assert rep.status == "converged" and rep.iterations == 0
        assert np.all(x == 0.0)

    def test_iteration_cap_reports_no_convergence(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal((40, 40)) + np.eye(40) * 0.01
        a = SparseMatrix.from_dense(d)
        _, rep = bicgstab(a, rng.standard_normal(40), maxit=2)
        assert rep.status in ("no_convergence", "breakdown")
        if rep.status == "no_convergence":
            assert rep.iterations == 2

    def test_residual_gap_flags_a_recurrence_that_left_the_iterate(self):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 30)
        b = rng.standard_normal(30)
        _, rep = bicgstab(a, b, tol=1e-8)
        assert rep.status == "converged" and not rep.residual_gap

        def scribbling(r):
            # returns the right vector but halves the caller's copy, so the
            # recurrence residual is no longer b - A x
            out = r.copy()
            r *= 0.5
            return out

        x, rep = bicgstab(a, b, precond=scribbling, tol=1e-8)
        assert rep.status == "converged" and rep.relative_residual <= 1e-8
        assert rep.true_relative_residual > 10 * 1e-8
        assert rep.residual_gap
        assert rep.true_relative_residual == pytest.approx(
            np.linalg.norm(b - spmv(a, x)) / np.linalg.norm(b), rel=1e-12)

    def test_nan_preconditioner_reports_breakdown(self):
        rng = np.random.default_rng(8)
        a = random_sparse(rng, 30, density=0.2)
        b = rng.standard_normal(30)
        x, rep = bicgstab(a, b, precond=lambda r: np.full_like(r, np.nan), maxit=50)
        assert rep.status == "breakdown"
        assert rep.iterations <= 1
        assert np.all(np.isfinite(x))
        assert np.isfinite(rep.relative_residual) and np.isfinite(rep.true_relative_residual)

    def test_nan_in_second_apply_reports_breakdown(self):
        rng = np.random.default_rng(9)
        a = random_sparse(rng, 30, density=0.2)
        applied = []

        def precond(r):
            applied.append(1)
            return r if len(applied) == 1 else np.full_like(r, np.nan)

        x, rep = bicgstab(a, rng.standard_normal(30), precond=precond, maxit=50)
        assert rep.status == "breakdown" and rep.iterations <= 1
        assert np.all(np.isfinite(x))

    def test_preconditioning_cuts_iterations(self):
        rng = np.random.default_rng(7)
        n = 500
        a = random_sparse(rng, n, density=0.01)
        b = rng.standard_normal(n)
        _, plain = bicgstab(a, b)
        diag = SubspacePattern.diagonal(n)
        wp = random_pattern(rng, n, per_col=2)
        pair = diaf_q(a, wp, diag)
        vf = factor_v(pair.v, BlockStructure(np.arange(n + 1)), "block-diagonal")
        precond = lambda x: apply_right_precond(pair.w, vf, x)
        _, rep = bicgstab(a, b, precond)
        assert rep.status == "converged"
        assert rep.iterations <= plain.iterations


class TestCondEstimate:
    def test_identity(self):
        vf = factor_v(SparseMatrix.identity(5), BlockStructure([0, 5]), "block-diagonal")
        assert cond_estimate(vf) == pytest.approx(1.0)

    def test_diagonal_exact(self):
        v = SparseMatrix.from_dense(np.diag([1.0, 1000.0]))
        vf = factor_v(v, BlockStructure([0, 1, 2]), "block-diagonal")
        assert cond_estimate(vf) == pytest.approx(1000.0)

    def test_within_factor_ten_of_dense_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            bounds = [0, 10, 25, 40, 50]
            v = block_upper_matrix(rng, bounds)
            vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
            est = cond_estimate(vf)
            true = np.linalg.cond(v.to_dense(), 1)
            assert est <= true * (1 + 1e-10)
            assert est >= true / 10.0
