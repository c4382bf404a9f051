import numpy as np
import pytest

from diafact.factor import (
    StabilizationPolicy,
    diaf_q,
    diaf_q_column,
    diaf_s,
    diaf_s_column,
    stabilize_column,
)
from diafact.kernels import qr_householder
from diafact.sparse import (
    SparseMatrix,
    SubspacePattern,
    extract_columns,
    residual_fro,
)

from helpers import full_pattern, random_orthogonal, random_pattern, random_sparse


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
    def policy(self, r=2.0):
        return StabilizationPolicy(threshold=1e-2, r=r, enabled=True)

    def setup_qt(self, rng, n=8, k=4):
        a = random_sparse(rng, n, density=0.5)
        sub = extract_columns(a, np.arange(k) * 2)
        q = qr_householder(sub.dense_block).q_thin
        return q, sub.active_rows

    def test_direction_independent_of_r(self):
        rng = np.random.default_rng(6)
        q, act = self.setup_qt(rng)
        j = 6
        admissible = np.arange(6)
        results = []
        for r in (0.5, 2.0, 10.0):
            idx, val = stabilize_column(q, act, j, 4, self.policy(r), admissible)
            off = idx != j
            results.append((idx[off], val[off]))
            assert val[~off][0] == pytest.approx(r)
        for idx, val in results[1:]:
            assert np.array_equal(idx, results[0][0])
            assert np.allclose(val, results[0][1])

    def test_no_admissible_positions(self):
        rng = np.random.default_rng(7)
        q, act = self.setup_qt(rng)
        idx, val = stabilize_column(q, act, 0, 3, self.policy(), np.array([0]))
        assert np.array_equal(idx, [0])
        assert val[0] == pytest.approx(2.0)

    def test_zero_alignment_picks_plus_sign(self):
        # p_j = 0 when row j is outside the active rows, so the first
        # component of U^T p_j vanishes and the +1 branch is taken
        q = np.eye(3)
        act = np.array([0, 1, 2])
        idx, val = stabilize_column(q, act, 4, 2, self.policy(), np.array([1]))
        assert np.array_equal(idx, [1, 4])
        assert val[0] > 0

    def test_aligned_case_keeps_leading_vector(self):
        rng = np.random.default_rng(8)
        q, act = self.setup_qt(rng)
        j = 7
        adm = np.arange(5)
        idx, val = stabilize_column(q, act, j, 3, self.policy(), adm)
        # the selected off-diagonal part is a unit vector by construction
        off = idx != j
        assert np.dot(val[off], val[off]) == pytest.approx(1.0, abs=1e-12)

    def test_integration_removes_tiny_diagonals(self):
        n = 4
        dense = np.eye(n)
        dense[:, 3] = [0.9, 0.8, 0.7, 1e-4]
        a = SparseMatrix.from_dense(dense)
        wp = SubspacePattern.diagonal(n)
        vp = upper_triangular_pattern(n)
        plain = diaf_q(a, wp, vp)
        assert abs(plain.v.to_dense()[3, 3]) < 1e-2
        stab = diaf_q(a, wp, vp, StabilizationPolicy(enabled=True))
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
