"""Acceptance suite: each test enforces one gate criterion at its stated
tolerance and prints a PASS line on success.

The two benchmark reproduction gates need the sherman2 and west1505 matrices
from the sparse matrix collection; point DIAFACT_MATRIX_DIR at a directory
holding sherman2.mtx and west1505.mtx (or drop them into ./data).  Without
the files those two tests are skipped, since this environment cannot fetch
them.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from diafact.bench import ExperimentConfig, run_experiment
from diafact.factor import StabilizationPolicy, diaf_q, diaf_s
from diafact.kernels import lstsq, qr_householder, svd_small
from diafact.krylov import apply_right_precond, bicgstab, factor_v
from diafact.patterns import adjoint_pattern, select_v_pattern
from diafact.preprocess import BlockStructure, block_pattern
from diafact.sparse import (
    ColumnSubmatrix,
    SparseMatrix,
    SparseVector,
    SubspacePattern,
    read_matrix_market,
)

from helpers import full_pattern, random_pattern, random_sparse


def passed(num, text):
    print(f"PASS criterion {num}: {text}")


def matrix_dir():
    env = os.environ.get("DIAFACT_MATRIX_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for c in candidates:
        if c.is_dir():
            return c
    return None


def need_matrix(name):
    d = matrix_dir()
    if d is not None and (d / name).is_file():
        return d / name
    pytest.skip(
        f"benchmark matrix {name} not available (no network in this "
        "environment); set DIAFACT_MATRIX_DIR or place it under ./data"
    )


def dense_product(pair):
    return pair.w.to_dense() @ np.linalg.inv(pair.v.to_dense())


def block2_candidate(n):
    bounds = np.arange(0, n + 1, 2)
    if bounds[-1] != n:
        bounds = np.append(bounds, n)
    return block_pattern(BlockStructure(bounds), "block-diagonal")


def test_criterion_1_scaling_invariance():
    rng = np.random.default_rng(101)
    n = 50
    for trial in range(30):
        a = random_sparse(rng, n, density=0.12)
        wp = adjoint_pattern(a, SubspacePattern.diagonal(n))
        vp = SubspacePattern.diagonal(n) if trial % 2 == 0 else block2_candidate(n)
        unit = diaf_q(a, wp, vp)
        norms = rng.uniform(0.1, 10.0, size=n)
        scaled = diaf_q(a, wp, vp, column_norms=norms)
        left = dense_product(unit)
        right = dense_product(scaled)
        gap = np.linalg.norm(left - right, "fro")
        assert gap <= 1e-10 * np.linalg.norm(left, "fro"), trial
    passed(1, "product W V^-1 invariant under column norm constraints (30 runs, n=50)")


def _bound_corpus():
    """A varied set of factorizations with n <= 200 for the norm bound."""
    rng = np.random.default_rng(202)
    corpus = []
    for n in (20, 50, 120, 200):
        a = random_sparse(rng, n, density=min(0.15, 10.0 / n))
        wp = adjoint_pattern(a, SubspacePattern.diagonal(n))
        corpus.append((a, diaf_q(a, wp, SubspacePattern.diagonal(n))))
        corpus.append((a, diaf_s(a, wp, block2_candidate(n).with_diagonal())))
    for n in (30, 80):
        a = random_sparse(rng, n, density=0.1)
        wp = random_pattern(rng, n, per_col=5)
        vp = SubspacePattern(n, [np.arange(max(0, j - 3), j + 1) for j in range(n)])
        policy = StabilizationPolicy(threshold=1e-2)
        corpus.append((a, diaf_q(a, wp, vp, policy)))
    return corpus


def test_criterion_2_norm_bound():
    checked = 0
    for a, pair in _bound_corpus():
        v = pair.v.to_dense()
        v_inv = np.linalg.inv(v)
        err = np.linalg.norm(a.to_dense() @ pair.w.to_dense() @ v_inv - np.eye(a.n_cols), "fro")
        lower = err / np.linalg.norm(v_inv, 2)
        upper = err * np.linalg.norm(v, 2)
        assert lower <= pair.nrm * (1 + 1e-10)
        assert pair.nrm <= upper * (1 + 1e-10)
        checked += 1
    passed(2, f"norm sandwich holds on {checked} factorizations with n <= 200")


def test_criterion_3_columnwise_optimality():
    rng = np.random.default_rng(303)
    n = 30
    for _ in range(20):
        a = random_sparse(rng, n, density=0.2)
        dense = a.to_dense()
        wp = random_pattern(rng, n, per_col=3)
        vp = random_pattern(rng, n, per_col=2).with_diagonal()
        pair_q = diaf_q(a, wp, vp)
        pair_s = diaf_s(a, wp, vp)
        for j in range(n):
            wcols, vcols = wp.cols[j], vp.cols[j]
            block = dense[:, wcols]
            # independent basis: projection norms do not depend on which
            # orthonormal factor is used
            q_np = np.linalg.qr(block)[0]
            m_np = q_np[vcols, :].T  # k x l

            v_idx, v_val = pair_q.v.column(j)
            v_loc = np.zeros(len(vcols))
            v_loc[np.searchsorted(vcols, v_idx)] = v_val
            achieved = np.linalg.norm(m_np @ v_loc)
            sigma_max = np.linalg.svd(m_np, compute_uv=False)[0]
            assert abs(achieved - sigma_max) <= 1e-12

            probes = rng.standard_normal((len(vcols), 200))
            probes /= np.linalg.norm(probes, axis=0)
            assert np.all(np.linalg.norm(m_np @ probes, axis=0) <= achieved + 1e-12)

            a_hat = np.delete(block, vcols, axis=0)
            w_idx, w_val = pair_s.w.column(j)
            w_loc = np.zeros(len(wcols))
            w_loc[np.searchsorted(wcols, w_idx)] = w_val
            s_achieved = np.linalg.norm(a_hat @ w_loc)
            svals = np.linalg.svd(a_hat, compute_uv=False)
            s_min = svals[-1] if a_hat.shape[0] >= a_hat.shape[1] else 0.0
            assert abs(s_achieved - s_min) <= 1e-12
            probes = rng.standard_normal((len(wcols), 200))
            probes /= np.linalg.norm(probes, axis=0)
            assert np.all(np.linalg.norm(a_hat @ probes, axis=0) >= s_achieved - 1e-12)
    passed(3, "per-column directions match dense SVD oracles and beat 200 probes each")


def test_criterion_4_monotone_in_kv():
    rng = np.random.default_rng(404)
    n = 100
    blocks = BlockStructure(np.arange(0, n + 1, 25))
    candidate = block_pattern(blocks, "block-diagonal")
    for _ in range(10):
        a = random_sparse(rng, n, density=0.06)
        wp = adjoint_pattern(a, SubspacePattern.diagonal(n))
        prev = None
        for k_v in (5, 10, 20):
            vp = select_v_pattern(a, wp, candidate, k_v)
            nrm = diaf_q(a, wp, vp).nrm
            if prev is not None:
                assert nrm <= prev + 1e-12
            prev = nrm
    passed(4, "minimizer norm nonincreasing over nested k_V in {5, 10, 20}")


def test_criterion_5_exact_recovery():
    rng = np.random.default_rng(505)
    for n in (4, 7, 10):
        a = random_sparse(rng, n, density=0.5)
        pair = diaf_q(a, full_pattern(n), SubspacePattern.diagonal(n))
        assert pair.nrm <= 1e-10
        vf = factor_v(pair.v, BlockStructure(np.arange(n + 1)), "block-diagonal")
        b = rng.standard_normal(n)
        _, rep = bicgstab(a, b, lambda x: apply_right_precond(pair.w, vf, x))
        assert rep.status == "converged"
        assert rep.iterations <= 2
    passed(5, "full W with diagonal V reaches nrm <= 1e-10 and <= 2 iterations")


def test_criterion_6_desk_scale_reproduction():
    results = {}
    for name, its_ref, rho_ref in (("sherman2", 5, 1.05), ("west1505", 18, 2.75)):
        path = need_matrix(f"{name}.mtx")
        a = read_matrix_market(path)
        if name == "sherman2":
            assert (a.n_cols, a.nnz) == (1080, 23094)
        row = run_experiment(ExperimentConfig(matrix=str(path)))
        assert row.status == "converged", (name, row.error_message)
        assert row.its <= 3 * its_ref, (name, row.its)
        assert 0.5 * rho_ref <= row.rho <= 1.5 * rho_ref, (name, row.rho)
        results[name] = {"its": row.its, "rho": round(row.rho, 2), "blocks": row.n_blocks}
    passed(6, f"benchmark reproduction within gates: {results}")


def test_criterion_7_diaf_s_parity():
    path = need_matrix("sherman2.mtx")
    row = run_experiment(ExperimentConfig(matrix=str(path), method="diaf-s"))
    assert row.status == "converged", row.error_message
    assert row.its <= 15, row.its
    passed(7, f"sherman2 with the SVD variant converges in {row.its} iterations")


STATUS_RANK = {"converged": 0, "no_convergence": 1, "breakdown": 2, "error": 3}


def engineered_tiny_diagonal(rng, n=30, weak_col=20):
    dense = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2), 1)
    dense += np.eye(n)
    combo = np.zeros(n)
    combo[:weak_col] = dense[:weak_col, :weak_col] @ rng.standard_normal(weak_col)
    combo[weak_col] = 1e-5
    dense[:, weak_col] = combo
    return SparseMatrix.from_dense(dense)


def test_criterion_8_stabilization():
    rng = np.random.default_rng(808)
    a = engineered_tiny_diagonal(rng)
    n = a.n_cols
    wp = SubspacePattern.diagonal(n)
    blocks = BlockStructure(np.arange(n + 1))
    vp = block_pattern(blocks, "block-upper-triangular")

    plain = diaf_q(a, wp, vp)
    plain_diag = np.abs(np.diag(plain.v.to_dense()))
    assert np.any(plain_diag < 1e-2), "instance must trigger tiny diagonals"

    policy = StabilizationPolicy(threshold=1e-2, r=2.0)
    stab = diaf_q(a, wp, vp, policy)
    assert stab.stab_count >= 1
    stab_diag = np.abs(np.diag(stab.v.to_dense()))
    assert np.all(stab_diag >= min(policy.r, policy.threshold) - 1e-12)

    b = a.to_dense() @ np.ones(n)

    def status_of(pair):
        try:
            vf = factor_v(pair.v, blocks, "block-upper-triangular")
        except Exception:
            return STATUS_RANK["error"]
        _, rep = bicgstab(a, b, lambda x: apply_right_precond(pair.w, vf, x))
        return STATUS_RANK[rep.status]

    assert status_of(stab) <= status_of(plain)
    passed(8, f"stabilized {stab.stab_count} column(s); solver status not degraded")


def test_criterion_9_kernel_oracles():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        k = int(rng.integers(1, m + 1))
        block = rng.standard_normal((m, k))
        f = qr_householder(block)
        assert np.linalg.norm(f.q_thin.T @ f.q_thin - np.eye(k)) <= 1e-12 * k
        assert np.linalg.norm(f.q_thin @ f.r - block) <= 1e-12 * np.linalg.norm(block)
        assert np.all(np.diag(f.r) >= 0.0)

        p, q = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        mat = rng.standard_normal((p, q))
        s = svd_small(mat)
        oracle = np.sqrt(np.maximum(np.linalg.eigvalsh(mat.T @ mat if p >= q else mat @ mat.T), 0.0))[::-1]
        assert np.max(np.abs(s.sigma - oracle)) <= 1e-10 * max(oracle[0], 1e-300)
        assert np.linalg.norm(s.u @ np.diag(s.sigma) @ s.v.T - mat) <= 1e-11 * max(np.linalg.norm(mat), 1e-300)

        rows = np.sort(rng.choice(2 * m, size=m, replace=False))
        sub = ColumnSubmatrix(2 * m, np.arange(k), rows, block)
        rhs_dense = rng.standard_normal(2 * m) * (rng.random(2 * m) < 0.4)
        out = lstsq(sub, SparseVector.from_dense(rhs_dense))
        full = np.zeros((2 * m, k))
        full[rows] = block
        w_np, *_ = np.linalg.lstsq(full, rhs_dense, rcond=None)
        res_np = np.linalg.norm(full @ w_np - rhs_dense)
        assert out.residual <= res_np + 1e-10
        assert np.linalg.norm(full @ out.solution - rhs_dense) <= res_np + 1e-10

    for n in (10, 100):
        d = rng.uniform(0.5, 10.0, size=n)
        a = SparseMatrix.from_dense(np.diag(d))
        b = rng.standard_normal(n)
        x, rep = bicgstab(a, b, tol=1e-8)
        assert rep.status == "converged"
        assert np.linalg.norm(b - d * x) <= 1e-8 * np.linalg.norm(b)
    passed(9, "QR/SVD/least-squares invariants on 1000 shapes; diagonal solves to 1e-8")
