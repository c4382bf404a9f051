import numpy as np
import pytest

import diafact.factor
import diafact.kernels
import diafact.patterns
import diafact.sparse
from diafact.factor import (
    StabilizationPolicy,
    diaf_q,
    diaf_q_column,
    diaf_s,
    diaf_s_column,
)
from diafact.kernels import qr_householder
from diafact.patterns import select_v_pattern
from diafact.sparse import (
    SparseMatrix,
    SubspacePattern,
    extract_columns,
    residual_fro,
    width_order,
)

from helpers import (
    diaf_q_column_reference,
    diaf_s_column_reference,
    full_pattern,
    random_orthogonal,
    random_pattern,
    random_sparse,
    sweep_problem,
)


def upper_triangular_pattern(n):
    return SubspacePattern(n, [np.arange(j + 1) for j in range(n)])


class TestDiafQColumn:
    def test_diagonal_matrix(self):
        a = SparseMatrix.from_dense(np.diag([2.0, 5.0]))
        diag = SubspacePattern.diagonal(2)
        w, v, rep = diaf_q_column(a, diag, diag, 1)
        assert np.array_equal(v.idx, [1]) and v.val[0] == 1.0
        assert np.array_equal(w.idx, [1]) and w.val[0] == pytest.approx(0.2)
        assert rep.residual == pytest.approx(0.0, abs=1e-15)

    def test_unit_norm_v(self):
        rng = np.random.default_rng(0)
        a = random_sparse(rng, 12, density=0.3)
        wp = random_pattern(rng, 12, per_col=4)
        vp = random_pattern(rng, 12, per_col=3).with_diagonal()
        for j in range(12):
            _, v, rep = diaf_q_column(a, wp, vp, j)
            if not rep.fallback:
                assert v.norm() == pytest.approx(1.0, abs=1e-12)

    def test_missing_diagonal_rejected(self):
        a = SparseMatrix.identity(3)
        wp = SubspacePattern.diagonal(3)
        vp = SubspacePattern(3, [[0], [0], [2]])
        with pytest.raises(ValueError, match="diagonal"):
            diaf_q_column(a, wp, vp, 1)

    @pytest.mark.parametrize("j", [3, -1])
    def test_column_outside_a_rejected(self, j):
        a, diag = SparseMatrix.identity(3), SubspacePattern.diagonal(3)
        with pytest.raises(ValueError, match=rf"^column {j} is not in the valid range 0\.\.2$"):
            diaf_q_column(a, diag, diag, j)

    @pytest.mark.parametrize("j", [1.7, 1.0, "1"])
    def test_non_integer_column_rejected(self, j):
        a, diag = SparseMatrix.identity(3), SubspacePattern.diagonal(3)
        with pytest.raises(ValueError, match="^column j must be integers$"):
            diaf_q_column(a, diag, diag, j)

    def test_all_zero_candidates_fall_back(self):
        # column 0 of A touches only row 1 while V allows only row 0, so
        # every candidate position of Q^T is zero
        a = SparseMatrix.from_dense([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
        wp = SubspacePattern.diagonal(3)
        vp = SubspacePattern(3, [[0], [1], [2]])
        _, v, rep = diaf_q_column(a, wp, vp, 0)
        assert rep.fallback
        assert np.array_equal(v.idx, [0])


    def test_invisible_candidate_stores_no_entry(self):
        # rows 1, 5, 7 and 9 lie outside the active rows of A_j = A[:, [2, 3, 4]],
        # so their columns of Q_j^T are zero and v_j must skip them exactly
        rng = np.random.default_rng(9)
        j, wcols, vcols = 4, np.array([2, 3, 4]), np.array([0, 1, 3, 4, 5, 7, 8])
        active = np.array([0, 2, 3, 4, 6, 8])
        visible = np.intersect1d(vcols, active)
        wp = SubspacePattern(10, [wcols if i == j else [i] for i in range(10)])
        vp = SubspacePattern(10, [vcols if i == j else [i] for i in range(10)])
        for _ in range(10):
            dense = np.eye(10) * 4.0
            dense[np.ix_(active, wcols)] += rng.standard_normal((len(active), 3))
            _, v, rep = diaf_q_column(SparseMatrix.from_dense(dense), wp, vp, j)
            assert not rep.fallback
            assert np.array_equal(v.idx, visible)

            q = np.linalg.qr(dense[:, wcols])[0]
            oracle = np.linalg.svd(q[visible, :].T)[2][0]
            oracle *= np.sign(oracle[np.searchsorted(visible, j)])  # diagonal made positive
            assert np.allclose(v.val, oracle, atol=1e-12, rtol=0.0)

class TestDiafQ:
    def test_identity(self):
        a = SparseMatrix.identity(5)
        diag = SubspacePattern.diagonal(5)
        pair = diaf_q(a, diag, diag)
        assert np.allclose(pair.w.to_dense(), np.eye(5))
        assert np.allclose(pair.v.to_dense(), np.eye(5))
        assert pair.nrm == pytest.approx(0.0, abs=1e-15)

    def test_column_norms_are_one_finite_positive_value_per_column(self):
        a, diag = SparseMatrix.identity(4), SubspacePattern.diagonal(4)
        assert np.array_equal(diaf_q(a, diag, diag, column_norms=[1.0, 2.0, 3.0, 4.0]).v.diagonal(),
                              [1.0, 2.0, 3.0, 4.0])
        for norms in (np.ones(7), [1.0, 0.0, 1.0, 1.0], [1.0, np.nan, 1.0, 1.0],
                      [1.0, 1.0, np.inf, 1.0]):
            with pytest.raises(ValueError, match="column norms must be 4 finite positive values"):
                diaf_q(a, diag, diag, column_norms=norms)

    def test_orthogonal_matrix_recovers_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            qmat = random_orthogonal(rng, 10)
            a = SparseMatrix.from_dense(qmat)
            wp = SubspacePattern.from_matrix(a.transpose())
            vp = SubspacePattern.diagonal(10)
            pair = diaf_q(a, wp, vp)
            prod = a.to_dense() @ pair.w.to_dense() @ np.linalg.inv(pair.v.to_dense())
            assert np.linalg.norm(prod - np.eye(10)) <= 1e-10

    def test_full_patterns_reach_zero_norm(self):
        rng = np.random.default_rng(2)
        for n in (3, 5, 6):
            a = random_sparse(rng, n, density=0.6)
            pair = diaf_q(a, full_pattern(n), full_pattern(n))
            assert pair.nrm <= 1e-12

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 20, density=0.2)
        wp = random_pattern(rng, 20, per_col=4)
        vp = random_pattern(rng, 20, per_col=2).with_diagonal()
        base = diaf_q(a, wp, vp)
        norms = rng.uniform(0.1, 10.0, size=20)
        other = diaf_q(a, wp, vp, column_norms=norms)
        left = base.w.to_dense() @ np.linalg.inv(base.v.to_dense())
        right = other.w.to_dense() @ np.linalg.inv(other.v.to_dense())
        assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left)

    def test_norm_bound_sandwich(self):
        rng = np.random.default_rng(4)
        a = random_sparse(rng, 15, density=0.3)
        wp = random_pattern(rng, 15, per_col=4)
        vp = random_pattern(rng, 15, per_col=2).with_diagonal()
        pair = diaf_q(a, wp, vp)
        awvi = a.to_dense() @ pair.w.to_dense() @ np.linalg.inv(pair.v.to_dense())
        err = np.linalg.norm(awvi - np.eye(15), "fro")
        v2 = np.linalg.norm(pair.v.to_dense(), 2)
        vinv2 = np.linalg.norm(np.linalg.inv(pair.v.to_dense()), 2)
        assert err / vinv2 <= pair.nrm * (1 + 1e-10)
        assert pair.nrm <= err * v2 * (1 + 1e-10)

    def test_nrm_matches_column_residuals(self):
        rng = np.random.default_rng(5)
        a = random_sparse(rng, 10, density=0.3)
        wp = random_pattern(rng, 10, per_col=3)
        vp = random_pattern(rng, 10, per_col=2).with_diagonal()
        pair = diaf_q(a, wp, vp)
        assert pair.nrm == pytest.approx(
            float(np.sqrt((pair.column_residuals ** 2).sum())), rel=1e-12
        )
        assert pair.nrm == pytest.approx(residual_fro(a, pair.w, pair.v), rel=1e-12)

    def test_roundoff_entries_of_w_are_dropped(self):
        # A e_3 lies inside V_3 = {2, 3, 5}, so v_3 is A e_3 / ||A e_3|| and
        # w_3 is e_3 / ||A e_3|| exactly; the entries at 6 and 8 are roundoff
        rng = np.random.default_rng(15)
        n, kept = 10, 0
        wp = SubspacePattern(n, [[3, 6, 8] if j == 3 else [j] for j in range(n)])
        vp = SubspacePattern(n, [[2, 3, 5] if j == 3 else [j] for j in range(n)])
        for _ in range(20):
            dense = rng.standard_normal((n, n))
            dense[:, 3] = 0.0
            dense[[2, 3, 5], 3] = rng.standard_normal(3)
            a = SparseMatrix.from_dense(dense)
            pair = diaf_q(a, wp, vp)
            idx, val = pair.w.column(3)
            assert np.array_equal(idx, [3])
            scale = np.sign(dense[3, 3]) / np.linalg.norm(dense[:, 3])  # v_33 >= 0
            assert val[0] == pytest.approx(scale, rel=1e-12)
            assert pair.column_residuals[3] <= 1e-14
            sub = extract_columns(a, [3, 6, 8])
            qr = qr_householder(sub.dense_block)
            raw = np.linalg.solve(qr.r, qr.q_thin.T @ (dense[sub.active_rows, 3] * scale))
            kept += np.count_nonzero(raw[1:])
        assert kept > 0  # the undropped solve does leave roundoff here

    def test_one_qr_per_column(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return qr_householder(m)

        # lstsq looks the kernel up in its own module, diaf_q_column in factor
        monkeypatch.setattr(diafact.factor, "qr_householder", counted)
        monkeypatch.setattr(diafact.kernels, "qr_householder", counted)
        rng = np.random.default_rng(13)
        a = random_sparse(rng, 12, density=0.3)
        diaf_q(a, random_pattern(rng, 12, per_col=3), random_pattern(rng, 12, per_col=2))
        assert len(calls) == 12

    def test_factors_conform_to_patterns(self):
        rng = np.random.default_rng(12)
        a = random_sparse(rng, 14, density=0.3)
        wp = random_pattern(rng, 14, per_col=4)
        vp = random_pattern(rng, 14, per_col=2).with_diagonal()
        pair = diaf_q(a, wp, vp)
        for j in range(14):
            assert np.all(np.isin(pair.w.column(j)[0], wp.cols[j]))
            assert np.all(np.isin(pair.v.column(j)[0], vp.cols[j]))


class TestStabilize:
    """Stabilized columns, solved through the sweep."""

    @staticmethod
    def stabilized(a, wp, vp, j, r=2.0, threshold=1.0):
        _, v, rep = diaf_q_column(a, wp, vp, j, StabilizationPolicy(threshold=threshold, r=r))
        assert rep.stabilized
        return v

    @staticmethod
    def random_problem(seed, n=8):
        rng = np.random.default_rng(seed)
        return random_sparse(rng, n, density=0.5), random_pattern(rng, n, per_col=3), full_pattern(n)

    def test_policy_settings_must_be_finite(self):
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
                StabilizationPolicy(threshold=bad)
        for bad in (np.nan, np.inf, 0.0):
            with pytest.raises(ValueError, match="r must be finite and positive"):
                StabilizationPolicy(r=bad)

    def test_direction_independent_of_r(self):
        a, wp, vp = self.random_problem(6)
        j = 6
        results = []
        for r in (0.5, 2.0, 10.0):
            v = self.stabilized(a, wp, vp, j, r)
            off = v.idx != j
            assert np.array_equal(v.val[~off], [r])
            assert off.any() and np.all(v.idx[off] < j)
            results.append((v.idx[off], v.val[off]))
        for idx, val in results[1:]:
            assert np.array_equal(idx, results[0][0])
            assert np.array_equal(val, results[0][1])

    def test_no_admissible_positions(self):
        a, wp, vp = self.random_problem(7)
        v = self.stabilized(a, wp, vp, 0)
        assert np.array_equal(v.idx, [0])
        assert np.array_equal(v.val, [2.0])

    def test_unreachable_admissible_positions_are_left_out(self):
        # A_4 is column 5 of A, on rows {0, 5}: of V_4 = {3, 4, 5} only 5 is
        # visible, so v_44 = 0 and the column is stabilized, and its one
        # admissible position 3 cannot be reached
        dense = np.eye(6)
        dense[0, 5] = 1.0
        a = SparseMatrix.from_dense(dense)
        wp = SubspacePattern(6, [[0], [1], [2], [3], [5], [5]])
        vp = SubspacePattern(6, [[0], [1], [2], [3], [3, 4, 5], [5]])
        v = self.stabilized(a, wp, vp, 4, threshold=0.1)
        assert np.array_equal(v.idx, [4])
        assert np.array_equal(v.val, [2.0])
        pair = diaf_q(a, wp, vp, StabilizationPolicy(threshold=0.1))
        assert pair.stab_count == 1
        assert np.array_equal(pair.v.column(4)[0], [4])

    def test_zero_alignment_picks_plus_sign(self):
        # row 4 is not an active row of A_4 (columns 0-2 of the identity),
        # so the column of Q_4^T at 4 vanishes, its product with the left
        # singular vector is 0 and the +1 branch is taken
        a = SparseMatrix.identity(5)
        wp = SubspacePattern(5, [[0], [1], [2], [3], [0, 1, 2]])
        vp = SubspacePattern(5, [[0], [1], [2], [3], [1, 4]])
        v = self.stabilized(a, wp, vp, 4)
        assert np.array_equal(v.idx, [1, 4])
        assert v.val[0] > 0

    def test_aligned_case_keeps_leading_vector(self):
        a, wp, vp = self.random_problem(8)
        j = 7
        v = self.stabilized(a, wp, vp, j)
        # the selected off-diagonal part is a unit vector by construction
        off = v.idx != j
        assert np.dot(v.val[off], v.val[off]) == pytest.approx(1.0, abs=1e-12)
        assert v.val[~off][0] == 2.0

    def test_diagonal_floor_holds_on_random_problems(self):
        rng = np.random.default_rng(17)
        stabilized = 0
        for _ in range(20):
            n = int(rng.integers(4, 14))
            a = random_sparse(rng, n, density=float(rng.uniform(0.1, 0.5)),
                              dominant=bool(rng.integers(2)))
            wp = random_pattern(rng, n, per_col=int(rng.integers(1, 4)))
            vp = random_pattern(rng, n, per_col=int(rng.integers(1, 5)))
            policy = StabilizationPolicy(threshold=float(1.0 - rng.random()), r=[0.5, 2.0][rng.integers(2)])
            pair = diaf_q(a, wp, vp, policy)
            diag = pair.v.diagonal()
            assert np.all(np.abs(diag) >= min(policy.r, policy.threshold))
            reports = [diaf_q_column(a, wp, vp, j, policy)[2] for j in range(n)]
            stab = np.array([rep.stabilized for rep in reports])
            assert np.all(diag[stab] == policy.r)
            assert pair.stab_count == stab.sum()
            stabilized += pair.stab_count
        assert stabilized > 0

    def test_integration_removes_tiny_diagonals(self):
        n = 4
        dense = np.eye(n)
        dense[:, 3] = [0.9, 0.8, 0.7, 1e-4]
        a = SparseMatrix.from_dense(dense)
        wp = SubspacePattern.diagonal(n)
        vp = upper_triangular_pattern(n)
        plain = diaf_q(a, wp, vp)
        assert abs(plain.v.to_dense()[3, 3]) < 1e-2
        stab = diaf_q(a, wp, vp, StabilizationPolicy(threshold=1e-2))
        assert stab.stab_count == 1
        d = np.abs(np.diag(stab.v.to_dense()))
        assert np.all(d >= min(2.0, 1e-2) - 1e-12)
        # stabilized column norm is sqrt(r^2 + 1)
        vcol = stab.v.to_dense()[:, 3]
        assert np.linalg.norm(vcol) == pytest.approx(np.sqrt(5.0), rel=1e-12)


class TestDiafSColumn:
    def test_identity(self):
        a = SparseMatrix.identity(3)
        diag = SubspacePattern.diagonal(3)
        w, rep = diaf_s_column(a, diag, diag, 1)
        assert np.array_equal(w.idx, [1])
        assert abs(w.val[0]) == pytest.approx(1.0)
        assert rep.residual == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("j", [3, -1])
    def test_column_outside_a_rejected(self, j):
        a, diag = SparseMatrix.identity(3), SubspacePattern.diagonal(3)
        with pytest.raises(ValueError, match=rf"^column {j} is not in the valid range 0\.\.2$"):
            diaf_s_column(a, diag, diag, j)

    @pytest.mark.parametrize("j", [1.7, 1.0, "1"])
    def test_non_integer_column_rejected(self, j):
        a, diag = SparseMatrix.identity(3), SubspacePattern.diagonal(3)
        with pytest.raises(ValueError, match="^column j must be integers$"):
            diaf_s_column(a, diag, diag, j)

    def test_block_diagonal_covered_by_v(self):
        blocks = np.zeros((4, 4))
        blocks[:2, :2] = [[2.0, 1.0], [1.0, 3.0]]
        blocks[2:, 2:] = [[1.0, 0.5], [0.0, 2.0]]
        a = SparseMatrix.from_dense(blocks)
        wp = full_pattern(4)
        vp = SubspacePattern(4, [[0, 1], [0, 1], [2, 3], [2, 3]])
        pair = diaf_s(a, wp, vp)
        assert pair.nrm <= 1e-12
        aw = a.to_dense() @ pair.w.to_dense()
        for j in range(4):
            outside = np.setdiff1d(np.arange(4), vp.cols[j])
            assert np.all(np.abs(aw[outside, j]) <= 1e-12)

    def test_minimizes_against_dense_svd_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_sparse(rng, 10, density=0.35)
            wp = random_pattern(rng, 10, per_col=3)
            vp = random_pattern(rng, 10, per_col=1).with_diagonal()
            j = int(rng.integers(0, 10))
            w, rep = diaf_s_column(a, wp, vp, j)
            dense = a.to_dense()[:, wp.cols[j]]
            dense = np.delete(dense, vp.cols[j], axis=0)
            svals = np.linalg.svd(dense, compute_uv=False)
            true_min = svals[-1] if dense.shape[0] >= dense.shape[1] else 0.0
            got = np.linalg.norm(dense @ w.val)
            assert got <= true_min + 1e-10

    def test_unit_norm_w(self):
        rng = np.random.default_rng(10)
        a = random_sparse(rng, 8, density=0.4)
        wp = random_pattern(rng, 8, per_col=3)
        vp = random_pattern(rng, 8, per_col=2).with_diagonal()
        pair = diaf_s(a, wp, vp)
        for j in range(8):
            idx, val = pair.w.column(j)
            assert np.dot(val, val) == pytest.approx(1.0, rel=1e-12)


class TestDiafS:
    def test_identity(self):
        a = SparseMatrix.identity(4)
        diag = SubspacePattern.diagonal(4)
        pair = diaf_s(a, diag, diag)
        assert np.allclose(np.abs(pair.w.to_dense()), np.eye(4))
        assert pair.nrm == pytest.approx(0.0, abs=1e-14)

    def test_v_confined_to_pattern(self):
        rng = np.random.default_rng(11)
        a = random_sparse(rng, 12, density=0.3)
        wp = random_pattern(rng, 12, per_col=3)
        vp = random_pattern(rng, 12, per_col=2).with_diagonal()
        pair = diaf_s(a, wp, vp)
        for j in range(12):
            idx, _ = pair.v.column(j)
            assert np.all(np.isin(idx, vp.cols[j]))

    def test_nrm_matches_residual_fro(self):
        rng = np.random.default_rng(14)
        a = random_sparse(rng, 10, density=0.3)
        wp = random_pattern(rng, 10, per_col=3)
        vp = random_pattern(rng, 10, per_col=2).with_diagonal()
        pair = diaf_s(a, wp, vp)
        assert pair.nrm > 0.0
        assert pair.nrm == pytest.approx(residual_fro(a, pair.w, pair.v), rel=1e-12)


def local(m, j, rows):
    """Column ``j`` of a sparse matrix as a dense vector over ``rows``."""
    idx, val = m.column(j)
    out = np.zeros(len(rows))
    out[np.searchsorted(rows, idx)] = val
    return out


class TestSweep:
    """The chunked column sweep against columns solved one at a time."""

    @pytest.fixture(params=["one column", "seven columns", "all columns"])
    def problem(self, request, monkeypatch):
        a, wp, vp, size = sweep_problem(21)
        limit = {"one column": 1, "seven columns": 7 * size, "all columns": 10 ** 12}
        monkeypatch.setattr(diafact.sparse, "_SWEEP_ENTRIES", limit[request.param])
        return a, wp, vp

    def test_chunks_hold_the_stated_columns(self, monkeypatch):
        a, wp, vp, size = sweep_problem(21)
        assert np.any(vp.counts() > wp.sums(np.diff(a.col_ptr)) + 1)  # V counts capped
        k = wp.counts()
        assert len(np.unique(k)) > 3
        shuffled = np.random.default_rng(0).permutation(a.n_cols)
        for limit, count in ((1, 1), (7 * size, 7), (10 ** 12, a.n_cols)):
            monkeypatch.setattr(diafact.sparse, "_SWEEP_ENTRIES", limit)
            for given in (np.arange(a.n_cols), shuffled):
                chunks = list(diafact.sparse.column_chunks(a, wp, vp, given))
                assert [len(ch.cols) for ch in chunks[:-1]] == [count] * (len(chunks) - 1)
                # by block width, equal widths in the order given
                want = given[np.argsort(k[given], kind="stable")]
                assert np.array_equal(np.concatenate([ch.cols for ch in chunks]), want)

    @pytest.mark.parametrize("chunk", [1, 7, None])  # columns per chunk; None: all in one
    def test_chunks_hold_the_v_positions_on_active_rows(self, monkeypatch, chunk):
        a, wp, vp, size = sweep_problem(26)
        n = a.n_cols
        keys = vp.keys()  # every third column's pattern lacks its diagonal
        vp = SubspacePattern.from_keys(n, keys[(keys // n % 3 > 0) | (keys // n != keys % n)])
        keys, dense = vp.keys(), a.to_dense()
        monkeypatch.setattr(diafact.sparse, "_SWEEP_ENTRIES", 10 ** 12 if chunk is None else chunk * size)
        held = []
        for ch in diafact.sparse.column_chunks(a, wp, vp, np.arange(n)):
            assert np.all(np.diff(ch.v_col) >= 0)
            q, start, r, r_at, rank = ch.visible_q(qr_householder)
            assert len(r) == (ch.k ** 2).sum()
            for c, j in enumerate(ch.cols.tolist()):
                active = np.flatnonzero(dense[:, wp.cols[j]].any(axis=1))
                want = np.intersect1d(vp.cols[j], np.union1d(active, [j]))
                mine = ch.v_col == c
                seen = np.isin(want, active)
                assert np.array_equal(ch.v_rows[mine], want)
                assert np.array_equal(keys[ch.v_pos[mine]], j * n + want)
                assert np.array_equal(ch.v_seen[mine], seen)
                assert np.array_equal(ch.active[ch.v_at[mine][seen]], want[seen])
                held.append(j in want)
                # Q_j's row at each seen V position, never all zero (the
                # row of A_j = Q_j R_j is not), and R_j's k^2 values
                k = len(wp.cols[j])
                block = np.zeros((max(len(active), k), k))
                block[:len(active)] = dense[np.ix_(active, wp.cols[j])]
                f = qr_householder(block)
                for e, row in zip(np.flatnonzero(mine)[seen], np.searchsorted(active, want[seen])):
                    assert np.array_equal(q[start[e]:start[e] + k], f.q_thin[row])
                    assert q[start[e]:start[e] + k].any()
                assert np.array_equal(r[r_at[c]:r_at[c] + k * k].reshape(k, k), f.r)
                assert rank[c] == f.rank
        assert len(held) == n and 0 < sum(held) < n

    def test_chunk_holds_r_unpadded_and_q_over_the_blocks(self):
        # one wide column among many of width 1: R takes sum(k_j^2) values,
        # not cols * kmax^2, and Q_j is written over the block buffer
        rng = np.random.default_rng(27)
        n, wide = 40, 9
        a = random_sparse(rng, n, density=0.2)
        wp = SubspacePattern(n, [np.arange(wide)] + [np.array([j]) for j in range(1, n)])
        vp = SubspacePattern.diagonal(n)
        [ch] = diafact.sparse.column_chunks(a, wp, vp, np.arange(n))
        blocks = ch.blocks.copy()
        q, start, r, r_at, rank = ch.visible_q(qr_householder)
        assert len(r) == wide ** 2 + n - 1 < n * wide ** 2
        assert ch._blocks is None  # the chunk let go of the buffer Q_j fills
        assert np.array_equal(ch.blocks, blocks)  # and builds A_j again on a read
        dense = a.to_dense()
        for c, j in enumerate(ch.cols.tolist()):
            k = len(wp.cols[j])
            active = np.flatnonzero(dense[:, wp.cols[j]].any(axis=1))
            block = np.zeros((max(len(active), k), k))
            block[:len(active)] = dense[np.ix_(active, wp.cols[j])]
            f = qr_householder(block)
            assert np.array_equal(r[r_at[c]:r_at[c] + k * k].reshape(k, k), f.r)
            assert rank[c] == f.rank
            e = np.flatnonzero((ch.v_col == c) & ch.v_seen)
            assert np.array_equal(q[start[e][:, None] + np.arange(k)],
                                  f.q_thin[np.searchsorted(active, ch.v_rows[e])])

    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    def test_diaf_q_writes_v_only_on_active_rows_and_the_diagonal(self, threshold):
        a, wp, vp, _ = sweep_problem(21)
        policy = StabilizationPolicy(threshold=threshold)
        v, dense = diaf_q(a, wp, vp, policy).v, a.to_dense()
        for j in range(a.n_cols):
            reach = np.union1d(np.flatnonzero(dense[:, wp.cols[j]].any(axis=1)), [j])
            assert np.all(np.isin(v.column(j)[0], reach))
            # the column solved alone, over all of its V positions
            v_ref = diaf_q_column_reference(a, wp, vp, j, policy)[1]
            assert np.all(np.isin(vp.cols[j][v_ref != 0.0], reach))

    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    def test_diaf_q_matches_columns_solved_alone(self, problem, threshold):
        a, wp, vp = problem
        policy = StabilizationPolicy(threshold=threshold)
        pair = diaf_q(a, wp, vp, policy)
        seen = set()
        for j in range(a.n_cols):
            w, v, res, stab, deficient, fallback = diaf_q_column_reference(a, wp, vp, j, policy)
            assert np.array_equal(local(pair.v, j, vp.cols[j]), v)
            got = local(pair.w, j, wp.cols[j])
            assert np.linalg.norm(got - w) <= 1e-12 * np.linalg.norm(w)
            assert pair.column_residuals[j] == pytest.approx(res, rel=1e-10, abs=1e-13)
            reasons = [r for r, hit in (("rank-deficient", deficient),
                                        ("zero-candidate-fallback", fallback)) if hit]
            assert pair.flagged_columns.get(j, "") == ",".join(reasons)
            seen.update(reasons + ["stabilized"] * stab)
        assert seen >= {"rank-deficient", "zero-candidate-fallback"}
        assert ("stabilized" in seen) == (threshold > 0) == (pair.stab_count > 0)

    def test_diaf_s_matches_columns_solved_alone(self, problem):
        a, wp, vp = problem
        pair = diaf_s(a, wp, vp)
        aw = a.to_dense() @ pair.w.to_dense()
        for j in range(a.n_cols):
            w, res, deficient = diaf_s_column_reference(a, wp, vp, j)
            assert np.array_equal(local(pair.w, j, wp.cols[j]), w)
            assert pair.column_residuals[j] == pytest.approx(res, rel=1e-10, abs=1e-13)
            assert (j in pair.flagged_columns) == deficient
            assert np.allclose(local(pair.v, j, vp.cols[j]), aw[vp.cols[j], j], rtol=0, atol=1e-13)

    def test_results_do_not_depend_on_chunks(self, problem):
        a, wp, vp = problem
        policy = StabilizationPolicy(threshold=0.3)
        got = [diaf_q(a, wp, vp, policy), diaf_s(a, wp, vp)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diafact.sparse, "_SWEEP_ENTRIES", 1 << 12)
            want = [diaf_q(a, wp, vp, policy), diaf_s(a, wp, vp)]
        for g, w in zip(got, want):
            for m in ("w", "v"):
                assert np.array_equal(getattr(g, m).entry_keys(), getattr(w, m).entry_keys())
                assert np.array_equal(getattr(g, m).values, getattr(w, m).values)
            assert np.array_equal(g.column_residuals, w.column_residuals)

    def test_column_functions_are_the_sweep_over_one_column(self):
        a, wp, vp, _ = sweep_problem(22)
        policy = StabilizationPolicy(threshold=0.3)
        pair_q, pair_s = diaf_q(a, wp, vp, policy), diaf_s(a, wp, vp)
        for j in range(a.n_cols):
            w, v, rep = diaf_q_column(a, wp, vp, j, policy)
            assert np.array_equal(w.idx, wp.cols[j])
            assert np.array_equal(w.val, local(pair_q.w, j, wp.cols[j]))
            assert np.array_equal(v.idx, pair_q.v.column(j)[0])
            assert np.array_equal(v.val, pair_q.v.column(j)[1])
            assert rep.residual == pair_q.column_residuals[j]
            w, rep = diaf_s_column(a, wp, vp, j)
            assert np.array_equal(w.val, local(pair_s.w, j, wp.cols[j]))
            # diaf_s takes its residuals from A W afterwards, the column from sigma_min
            assert rep.residual == pytest.approx(pair_s.column_residuals[j], rel=1e-12, abs=1e-14)

    def test_problems_of_another_dimension_rejected(self):
        d3, d4 = SubspacePattern.diagonal(3), SubspacePattern.diagonal(4)
        cases = [(SparseMatrix.identity(3), d3, d4), (SparseMatrix.identity(3), d4, d3),
                 (SparseMatrix.identity(3), d4, d4), (SparseMatrix.from_dense(np.eye(3, 4)), d4, d4)]
        for a, wp, vp in cases:
            for factor in (diaf_q, diaf_s, lambda *p: diaf_q_column(*p, 0),
                           lambda *p: diaf_s_column(*p, 0)):
                with pytest.raises(ValueError, match="^square matrix and matching patterns required$"):
                    factor(a, wp, vp)


ORDERS = {
    "identity": lambda w_pattern, columns: np.asarray(columns, dtype=np.int64),
    "reversed": lambda w_pattern, columns: np.asarray(columns, dtype=np.int64)[::-1],
    "shuffled": lambda w_pattern, columns: np.random.default_rng(0).permutation(
        np.asarray(columns, dtype=np.int64)),
}


def sweep_outputs(a, wp, vp):
    """What the sweeps give: W, V, residuals, norms and flags of diaf-q at
    two thresholds and of diaf-s, and the V selection at three k_v."""
    pairs = [diaf_q(a, wp, vp, StabilizationPolicy(threshold=t)) for t in (0.0, 0.3)]
    pairs.append(diaf_s(a, wp, vp))
    arrays, flags = [], []
    for pair in pairs:
        for m in (pair.w, pair.v):
            arrays += [m.entry_keys(), m.values]
        arrays += [pair.column_residuals, np.array([pair.nrm, pair.stab_count])]
        flags.append(pair.flagged_columns)
    arrays += [select_v_pattern(a, wp, vp, k_v).keys() for k_v in (1, 3, 8)]
    return arrays, flags


class TestSweepOrder:
    """The sweeps visit columns in order of block width; results do not
    depend on that order."""

    def test_width_order_is_stable(self):
        _, wp, _, _ = sweep_problem(24)
        cols = np.arange(5, 50)
        got = width_order(wp, cols)
        k = wp.counts()[got]
        assert np.array_equal(np.sort(got), cols) and np.all(np.diff(k) >= 0)
        for kk in np.unique(k):
            assert np.all(np.diff(got[k == kk]) > 0)

    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("chunk", ["one column", "seven columns", "all columns"])
    def test_results_do_not_depend_on_the_order(self, monkeypatch, order, chunk):
        a, wp, vp, size = sweep_problem(24)
        limit = {"one column": 1, "seven columns": 7 * size, "all columns": 10 ** 12}[chunk]
        monkeypatch.setattr(diafact.sparse, "_SWEEP_ENTRIES", limit)
        monkeypatch.setattr(diafact.patterns, "_SELECT_ENTRIES", limit)
        want, want_flags = sweep_outputs(a, wp, vp)
        monkeypatch.setattr(diafact.sparse, "width_order", ORDERS[order])
        got, got_flags = sweep_outputs(a, wp, vp)
        assert got_flags == want_flags
        assert set(want_flags[1].values()) == {"rank-deficient", "zero-candidate-fallback"}
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_one_stacked_solve_per_width_run(self, monkeypatch):
        a, wp, vp, size = sweep_problem(25)
        monkeypatch.setattr(diafact.sparse, "_SWEEP_ENTRIES", 7 * size)
        chunks, solves = [], []
        real_chunks, real_solve = diafact.factor.column_chunks, np.linalg.solve

        def counted_chunks(*args, **kwargs):
            for ch in real_chunks(*args, **kwargs):
                chunks.append(ch.cols)
                yield ch

        def counted_solve(r, b):
            solves.append(r.shape)
            return real_solve(r, b)

        monkeypatch.setattr(diafact.factor, "column_chunks", counted_chunks)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        diaf_q(a, wp, vp)
        n_widths = len(np.unique(wp.counts()))
        assert len(chunks) > 5 and n_widths > 3
        assert all(len(shape) == 3 for shape in solves)
        assert len(solves) <= n_widths + len(chunks) - 1

    def test_one_stacked_svd_per_width_run(self, monkeypatch):
        a, wp, vp, size = sweep_problem(25)
        monkeypatch.setattr(diafact.sparse, "_SWEEP_ENTRIES", 7 * size)
        chunks, svds = [], []
        real_chunks, real_svd = diafact.factor.column_chunks, diafact.factor._svd_signed

        def counted_chunks(*args, **kwargs):
            for ch in real_chunks(*args, **kwargs):
                chunks.append(ch.cols)
                yield ch

        def counted_svd(r):
            svds.append(r.shape)
            return real_svd(r)

        monkeypatch.setattr(diafact.factor, "column_chunks", counted_chunks)
        monkeypatch.setattr(diafact.factor, "_svd_signed", counted_svd)
        diaf_s(a, wp, vp)
        n_widths = len(np.unique(wp.counts()))
        assert len(chunks) > 5 and n_widths > 3
        assert sum(shape[0] for shape in svds) == a.n_cols
        assert len(svds) <= n_widths + len(chunks) - 1
