import numpy as np
import pytest

from diafact.kernels import (
    lstsq,
    lu_factor,
    lu_solve,
    pad_tall,
    qr_householder,
    svd_small,
)
from diafact.sparse import SparseMatrix, SparseVector, extract_columns


def assert_qr_convention(f, m):
    """Thin factors reconstruct ``m`` with orthonormal Q and R diagonal >= 0."""
    k = m.shape[1]
    assert f.q_thin.shape == m.shape and f.r.shape == (k, k)
    assert np.linalg.norm(f.q_thin.T @ f.q_thin - np.eye(k)) <= 1e-12 * k
    assert np.linalg.norm(f.q_thin @ f.r - m) <= 1e-12 * max(np.linalg.norm(m), 1e-300)
    assert np.array_equal(f.r, np.triu(f.r))
    assert np.all(np.diag(f.r) >= 0.0)


def assert_svd_convention(f, m):
    """Thin SVD of ``m`` with sorted sigma and canonical right-vector signs.

    The largest-magnitude component of each right singular vector is
    nonnegative; on exact ties the first such component decides.
    """
    k = min(m.shape)
    assert f.sigma.shape == (k,) and f.u.shape == (m.shape[0], k) and f.v.shape == (m.shape[1], k)
    assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
    scale = max(np.linalg.norm(m), 1e-300)
    assert np.linalg.norm(f.u @ np.diag(f.sigma) @ f.v.T - m) <= 1e-12 * scale
    assert np.linalg.norm(f.u.T @ f.u - np.eye(k)) <= 1e-12 * k
    assert np.linalg.norm(f.v.T @ f.v - np.eye(k)) <= 1e-12 * k
    for i in range(k):
        mag = np.abs(f.v[:, i])
        first = int(np.nonzero(mag == mag.max())[0][0])
        assert f.v[first, i] >= 0.0


class TestQR:
    def test_identity(self):
        f = qr_householder(np.eye(3))
        assert np.allclose(f.q_thin, np.eye(3))
        assert np.allclose(f.r, np.eye(3))
        assert f.rank == 3

    def test_single_column_norm(self):
        f = qr_householder(np.array([[3.0], [4.0]]))
        assert f.r[0, 0] == pytest.approx(5.0)
        assert np.allclose(f.q_thin[:, 0], [0.6, 0.8])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 4))
        assert_qr_convention(qr_householder(m), m)

    def test_negative_diagonal_flipped(self):
        m = np.diag([-2.0, 3.0, -0.5])
        f = qr_householder(m)
        assert_qr_convention(f, m)
        assert np.allclose(f.r, np.diag([2.0, 3.0, 0.5]))
        assert np.allclose(f.q_thin, np.diag([-1.0, 1.0, -1.0]))

    def test_rank_deficiency_reported(self):
        m = np.ones((5, 3))
        f = qr_householder(m)
        assert f.rank == 1
        assert_qr_convention(f, m)

    def test_zero_column_keeps_exact_zero_diagonal(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((6, 3))
        m[:, 2] = 0.0
        f = qr_householder(m)
        assert_qr_convention(f, m)
        assert f.r[2, 2] == 0.0 and f.rank == 2
        z = qr_householder(np.zeros((4, 2)))
        assert np.all(z.r == 0.0) and z.rank == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            qr_householder(np.array([[np.nan], [1.0]]))
        with pytest.raises(ValueError):
            qr_householder(np.array([[np.inf], [1.0]]))
        with pytest.raises(ValueError):
            qr_householder(np.ones((2, 3)))
        with pytest.raises(ValueError):
            qr_householder(np.ones(3))

    def test_many_random_shapes(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(1, 30))
            k = int(rng.integers(1, m + 1))
            a = rng.standard_normal((m, k))
            assert_qr_convention(qr_householder(a), a)


class TestSVD:
    def test_diagonal(self):
        f = svd_small(np.diag([3.0, 1.0]))
        assert np.allclose(f.sigma, [3.0, 1.0])
        assert np.allclose(f.v, np.eye(2))

    def test_zero_matrix(self):
        f = svd_small(np.zeros((2, 3)))
        assert np.allclose(f.sigma, [0.0, 0.0])
        assert np.allclose(f.u.T @ f.u, np.eye(2), atol=1e-12)
        assert np.allclose(f.v.T @ f.v, np.eye(2), atol=1e-12)

    def test_values_match_eigen_oracle(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 3))
        f = svd_small(m)
        want = np.sqrt(np.maximum(np.linalg.eigvalsh(m.T @ m), 0.0))[::-1]
        assert np.max(np.abs(f.sigma - want)) <= 1e-10 * want[0]

    def test_reconstruction_both_orientations(self):
        rng = np.random.default_rng(3)
        for shape in [(6, 4), (4, 6), (1, 5), (5, 1), (3, 3)]:
            m = rng.standard_normal(shape)
            assert_svd_convention(svd_small(m), m)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            shape = tuple(int(d) for d in rng.integers(1, 9, size=2))
            m = rng.standard_normal(shape)
            assert_svd_convention(svd_small(m), m)
            assert_svd_convention(svd_small(-m), -m)

    def test_sign_convention_diagonal(self):
        m = np.diag([-1.0, 3.0, -2.0])
        f = svd_small(m)
        assert_svd_convention(f, m)
        assert np.allclose(f.sigma, [3.0, 2.0, 1.0])
        assert np.array_equal(f.v, np.eye(3)[:, [1, 2, 0]])

    def test_sign_convention_first_on_ties(self):
        # the leading right singular vector is (1, -1)/sqrt(2) up to sign;
        # where its two magnitudes tie exactly the first one is made
        # positive, and either way m and -m share one canonical v
        for m in (np.array([[1.0, -1.0], [0.0, 0.0]]), np.array([[1.0, -1.0], [2.0, -2.0], [0.0, 0.0]])):
            f, g = svd_small(m), svd_small(-m)
            assert_svd_convention(f, m)
            assert_svd_convention(g, -m)
            assert np.allclose(np.abs(f.v[:, 0]), np.sqrt(0.5))
            assert np.array_equal(f.v[:, 0], g.v[:, 0])

    def test_rank_deficient_input(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((6, 2))
        for m in (base @ rng.standard_normal((2, 4)), (base @ rng.standard_normal((2, 4))).T):
            f = svd_small(m)
            assert f.sigma[2] <= 1e-12 * f.sigma[0]
            assert_svd_convention(f, m)

    def test_rejects_bad_input(self):
        for bad in (np.array([[np.nan, 1.0]]), np.array([[1.0], [-np.inf]]), np.zeros((0, 2)), np.ones(3)):
            with pytest.raises(ValueError):
                svd_small(bad)


def column_block(dense, cols):
    return extract_columns(SparseMatrix.from_dense(dense), cols)


class TestLstsq:
    def test_identity_block(self):
        sub = column_block(np.eye(2), [0, 1])
        out = lstsq(sub, SparseVector.from_dense([1.0, 0.0]))
        assert np.allclose(out.solution, [1.0, 0.0])
        assert out.residual == pytest.approx(0.0, abs=1e-15)

    def test_normal_equations_oracle(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sub = column_block(a, [0, 1])
        out = lstsq(sub, SparseVector.from_dense([1.0, 0.0, 0.0]))
        # (A^T A) w = A^T b solved by hand: w = (2/3, -1/3)
        assert np.allclose(out.solution, [2.0 / 3.0, -1.0 / 3.0])

    def test_rhs_outside_active_rows(self):
        a = np.array([[1.0], [0.0]])
        sub = column_block(a, [0])
        out = lstsq(sub, SparseVector.from_dense([0.0, 2.0]))
        assert np.allclose(out.solution, [0.0])
        assert out.residual == pytest.approx(2.0)

    def test_residual_is_variational_minimum(self):
        rng = np.random.default_rng(6)
        dense = rng.standard_normal((10, 10)) * (rng.random((10, 10)) < 0.5)
        dense[np.diag_indices(10)] += 3.0
        sub = column_block(dense, [1, 4, 6])
        rhs = SparseVector.from_dense(rng.standard_normal(10))
        out = lstsq(sub, rhs)
        b = rhs.to_dense()
        full = np.zeros((10, 3))
        full[sub.active_rows] = sub.dense_block
        for _ in range(100):
            w = out.solution + 1e-3 * rng.standard_normal(3)
            assert np.linalg.norm(full @ w - b) >= out.residual - 1e-12

    def test_rank_deficient_flagged_minimum_norm(self):
        dense = np.zeros((4, 4))
        dense[:, 0] = [1.0, 1.0, 0.0, 0.0]
        dense[:, 1] = [2.0, 2.0, 0.0, 0.0]
        sub = column_block(dense, [0, 1])
        rhs = SparseVector.from_dense([1.0, 1.0, 0.0, 0.0])
        out = lstsq(sub, rhs)
        assert out.rank_deficient
        oracle = np.linalg.lstsq(dense[:, :2], rhs.to_dense(), rcond=None)[0]
        assert np.allclose(out.solution, oracle, atol=1e-12)

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_given_qr_matches_own_factorization(self, rank_deficient):
        rng = np.random.default_rng(31)
        dense = rng.standard_normal((8, 8)) * (rng.random((8, 8)) < 0.5)
        dense[np.diag_indices(8)] += 3.0
        if rank_deficient:
            dense[:, 4] = 2.0 * dense[:, 1]
        sub = column_block(dense, [1, 4, 6])
        rhs = SparseVector.from_dense(rng.standard_normal(8))
        qr = qr_householder(pad_tall(sub.dense_block))
        own, given = lstsq(sub, rhs), lstsq(sub, rhs, qr)
        assert own.rank_deficient == given.rank_deficient == rank_deficient
        assert np.array_equal(own.solution, given.solution)
        assert own.residual == given.residual


class TestLU:
    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((9, 9)) + 3 * np.eye(9)
        b = rng.standard_normal(9)
        f = lu_factor(a)
        assert np.allclose(lu_solve(f, b), np.linalg.solve(a, b))
        # a matrix right-hand side solves all its columns at once
        inv = lu_solve(f, np.eye(9))
        ref = np.linalg.inv(a)
        assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)
        cols = np.column_stack([lu_solve(f, e) for e in np.eye(9)])
        assert np.linalg.norm(inv - cols) <= 1e-12 * np.linalg.norm(cols)

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            lu_factor(np.zeros((2, 2)))
