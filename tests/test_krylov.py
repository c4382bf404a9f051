import numpy as np
import pytest

import diafact.krylov as krylov
from diafact.factor import diaf_q
from diafact.krylov import (
    SingularBlockError,
    apply_right_precond,
    bicgstab,
    cond_estimate,
    factor_v,
)
from diafact.preprocess import BlockStructure
from diafact.sparse import SparseMatrix, SubspacePattern, spmv

from helpers import random_pattern, random_sparse


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

    def test_sparse_rhs_skips_zero_blocks(self, monkeypatch):
        calls = {"solve": 0, "transpose": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(krylov, "lu_solve", counted("solve", krylov.lu_solve))
        monkeypatch.setattr(
            krylov, "lu_solve_transpose", counted("transpose", krylov.lu_solve_transpose)
        )
        rng = np.random.default_rng(2)
        bounds = [0, 7, 13, 21, 30]
        v = block_upper_matrix(rng, bounds)
        vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        d = v.to_dense()
        # nonzero only inside block 1: blocks 2 and 3 are all zero on the way
        # back, and block 0 is reached only through the off-block coupling
        x = np.zeros(30)
        x[[8, 11]] = [1.5, -2.0]
        got = vf.solve(x)
        want = np.linalg.solve(d, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.all(got[13:] == 0.0)
        assert calls["solve"] == 2
        # transposed: blocks 0 and 1 stay zero on the way forward
        e = np.zeros(30)
        e[15] = 1.0
        got_t = vf.solve_transpose(e)
        want_t = np.linalg.solve(d.T, e)
        assert np.linalg.norm(got_t - want_t) <= 1e-12 * np.linalg.norm(want_t)
        assert np.all(got_t[:13] == 0.0)
        assert calls["transpose"] == 2

    def test_block_lu_reconstructs_blocks(self):
        rng = np.random.default_rng(1)
        bounds = [0, 5, 9]
        v = block_upper_matrix(rng, bounds)
        vf = factor_v(v, BlockStructure(bounds), "block-upper-triangular")
        d = v.to_dense()
        for k, (lu, perm) in enumerate(vf.block_lu):
            lo, hi = vf.blocks.bounds(k)
            l = np.tril(lu, -1) + np.eye(hi - lo)
            u = np.triu(lu)
            assert np.allclose((l @ u), d[lo:hi, lo:hi][perm], atol=1e-12)

    def test_singular_block_names_index(self):
        d = np.eye(6)
        d[3, 3] = 0.0
        d[3, 4] = 1.0  # keeps the column nonempty, block [3,4) stays singular
        v = SparseMatrix.from_dense(d)
        with pytest.raises(SingularBlockError) as err:
            factor_v(v, BlockStructure([0, 3, 5, 6]), "block-upper-triangular")
        assert err.value.block_index == 1

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
