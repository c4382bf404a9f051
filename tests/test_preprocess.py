import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from diafact.preprocess import (
    BlockStructure,
    Permutation,
    StructuralSingularityError,
    _tarjan_components,
    block_pattern,
    equilibrate,
    max_transversal,
    scc_block_structure,
)
from diafact.sparse import SparseMatrix

from helpers import random_sparse, tarjan_components_reference


class TestPermutation:
    def test_inverse_roundtrip(self):
        p = Permutation([2, 0, 1])
        x = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(p.undo(p.apply(x)), x)
        assert np.array_equal(p.inverse[p.forward], np.arange(3))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 2])


class TestMaxTransversal:
    def test_antidiagonal_swap(self):
        a = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        q = max_transversal(a)
        assert np.array_equal(q.forward, [1, 0])

    def test_zero_free_diagonal_keeps_identity(self):
        rng = np.random.default_rng(0)
        a = random_sparse(rng, 10, density=0.3)
        q = max_transversal(a)
        assert np.array_equal(q.forward, np.arange(10))

    def test_recovers_permuted_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            perm = rng.permutation(n)
            d = np.zeros((n, n))
            d[np.arange(n), perm] = 1.0 + rng.random(n)
            a = SparseMatrix.from_dense(d)
            # brute-force oracle: some column order gives a zero-free diagonal
            dense = a.to_dense()
            assert any(
                all(dense[i, p[i]] != 0 for i in range(n))
                for p in itertools.permutations(range(n))
            )
            q = max_transversal(a)
            b = a.permuted_columns(q.forward).to_dense()
            assert np.all(np.diag(b) != 0)

    def test_structural_singularity_reported(self):
        a = SparseMatrix.from_coo(3, 3, [0, 1, 2], [1, 1, 2], [1.0, 1.0, 1.0])
        with pytest.raises(StructuralSingularityError, match="rows"):
            max_transversal(a)

    def test_singularity_without_empty_column_names_rows(self):
        # columns 0 and 1 both reach row 0 alone
        a = SparseMatrix.from_dense([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 4.0]])
        with pytest.raises(StructuralSingularityError, match=r"columns \[0, 1\] reach only rows \[0\]"):
            max_transversal(a)

    def test_product_is_brute_force_maximum(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            d = rng.standard_normal((n, n)) * np.exp(3 * rng.standard_normal((n, n)))
            d *= rng.random((n, n)) < 0.5
            d[np.arange(n), rng.permutation(n)] = 1.0 + rng.random(n)  # some perfect matching
            log_abs = np.log(np.abs(np.where(d != 0.0, d, 1.0)))
            best = max(
                log_abs[np.arange(n), p].sum()
                for p in itertools.permutations(range(n))
                if np.all(d[np.arange(n), p] != 0.0)
            )
            a = SparseMatrix.from_dense(d)
            got = np.log(np.abs(a.permuted_columns(max_transversal(a).forward).diagonal())).sum()
            assert got == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_invariant_under_diagonal_scaling(self):
        rng = np.random.default_rng(10)
        n = 60
        a = random_sparse(rng, n, density=0.1, dominant=False)
        a = SparseMatrix.from_dense(a.to_dense()[rng.permutation(n)])  # rows scrambled
        q = max_transversal(a).forward
        for _ in range(4):
            r, c = 10.0 ** rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-1, 1, n)
            assert np.array_equal(max_transversal(a.scaled(r, c)).forward, q)


class TestEquilibrate:
    def test_diagonal_scales_to_one(self):
        a = SparseMatrix.from_dense(np.diag([100.0, 0.01]))
        s = equilibrate(a)
        b = a.scaled(s.row_scale, s.col_scale)
        assert np.allclose(b.to_dense(), np.eye(2))

    def test_already_equilibrated_stays_put(self):
        rng = np.random.default_rng(3)
        d = np.sign(rng.standard_normal((6, 6)))
        a = SparseMatrix.from_dense(d)  # all magnitudes are 1
        s = equilibrate(a)
        assert np.all(s.row_scale * s.col_scale.max() <= 2.0)
        b = a.scaled(s.row_scale, s.col_scale).to_dense()
        assert 0.5 <= np.abs(b).max() <= 2.0

    def test_random_matrix_balanced(self):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((50, 50)) * np.exp(rng.standard_normal((50, 50)) * 3)
        dense[np.diag_indices(50)] += 1e-3  # no zero rows or columns
        a = SparseMatrix.from_dense(dense)
        s = equilibrate(a)
        b = np.abs(a.scaled(s.row_scale, s.col_scale).to_dense())
        assert np.all(b.max(axis=0) >= 0.5) and np.all(b.max(axis=0) <= 2.0)
        assert np.all(b.max(axis=1) >= 0.5) and np.all(b.max(axis=1) <= 2.0)

    def test_zero_row_rejected(self):
        a = SparseMatrix.from_coo(2, 2, [0, 0], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="zero"):
            equilibrate(a)


class TestSCC:
    def test_lower_triangular_gives_singletons(self):
        rng = np.random.default_rng(5)
        d = np.tril(rng.standard_normal((8, 8)))
        d[np.diag_indices(8)] += 2.0
        a = SparseMatrix.from_dense(d)
        p, blocks = scc_block_structure(a, max_block=8)
        assert blocks.n_blocks == 8
        assert np.all(blocks.sizes == 1)

    def test_dense_matrix_capped_chunks(self):
        a = SparseMatrix.from_dense(np.ones((120, 120)))
        _, blocks = scc_block_structure(a, max_block=50)
        assert list(blocks.sizes) == [50, 50, 20]

    def test_block_lower_triangular_up_to_blocks(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_sparse(rng, 30, density=0.08)
            p, blocks = scc_block_structure(a, max_block=30)
            b = a.permuted_symmetric(p.forward).to_dense()
            # nothing above the union of the diagonal blocks
            upper = np.triu(np.ones((30, 30), dtype=bool), 1)
            for k in range(blocks.n_blocks):
                lo, hi = blocks.bounds(k)
                upper[lo:hi, lo:hi] = False
            assert np.all(b[upper] == 0.0)

    def test_partition_covers_everything(self):
        rng = np.random.default_rng(7)
        a = random_sparse(rng, 40, density=0.1)
        p, blocks = scc_block_structure(a, max_block=7)
        assert blocks.max_block <= 7
        assert np.array_equal(np.sort(p.forward), np.arange(40))
        assert blocks.n == 40


def random_digraph(rng, n):
    """Pattern matrix of a digraph mixing the cases of the component walk.

    About a third of the vertices form one large strongly connected
    component (a cycle with chords), two long acyclic chains run through
    the rest, some vertices carry a self-loop, and a few have no edge at
    all, so many components are singletons.
    """
    order = rng.permutation(n)
    big, rest = order[: n // 3], order[n // 3:]
    src = [big, big[rng.integers(0, len(big), size=len(big))]]
    dst = [np.roll(big, -1), big[rng.integers(0, len(big), size=len(big))]]
    for chain in np.array_split(rest[: len(rest) * 3 // 4], 2):
        src.append(chain[:-1])
        dst.append(chain[1:])
    # forward along ``order`` only, so no cycle leaves the large component
    cross = rng.integers(0, n, size=(2, n // 4))
    src.append(order[cross.min(axis=0)])
    dst.append(order[cross.max(axis=0)])
    loops = rng.choice(n, size=n // 5, replace=False)
    src.append(loops)
    dst.append(loops)
    keys = np.unique(np.concatenate(src) * n + np.concatenate(dst))  # edge j -> i: a[i, j]
    return SparseMatrix.from_keys(n, n, keys, np.ones(len(keys)))


def workload_matrices():
    """The benchmark workloads' matrices, as generated and as the pipeline
    walks them (after the transversal)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    try:
        import harness
    finally:
        sys.path.pop(0)
    for name, spec in harness.WORKLOADS.items():
        for seed in (2, 1000):
            coo = spec.generate([seed, 0])
            a = SparseMatrix.from_coo(coo.n, coo.n, coo.rows, coo.cols, coo.vals)
            yield f"{name}-{seed}", a
            yield f"{name}-{seed}-matched", a.permuted_columns(max_transversal(a).forward)


class TestTarjan:
    """The component walk on Python ints against the numpy walk it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_digraphs(self, seed):
        rng = np.random.default_rng(seed)
        a = random_digraph(rng, int(rng.integers(30, 3000)))
        comps = _tarjan_components(a)
        assert comps == tarjan_components_reference(a)
        sizes = sorted(len(c) for c in comps)
        assert sizes[-1] >= a.n_cols // 3 and sizes.count(1) > a.n_cols // 4

    def test_workload_matrices(self):
        for name, a in workload_matrices():
            assert _tarjan_components(a) == tarjan_components_reference(a), name


class TestBlockPattern:
    def test_block_diagonal(self):
        blocks = BlockStructure([0, 2, 4])
        pat = block_pattern(blocks, "block-diagonal")
        assert np.array_equal(pat.cols[0], [0, 1])
        assert np.array_equal(pat.cols[2], [2, 3])

    def test_block_upper(self):
        blocks = BlockStructure([0, 2, 4])
        pat = block_pattern(blocks, "block-upper-triangular")
        assert np.array_equal(pat.cols[0], [0, 1])
        assert np.array_equal(pat.cols[2], [0, 1, 2, 3])


class TestRoundTrip:
    def test_preprocessed_solution_maps_back(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = 25
            a = random_sparse(rng, n, density=0.2)
            x_true = rng.standard_normal(n)
            b = a.to_dense() @ x_true

            q = max_transversal(a)
            a1 = a.permuted_columns(q.forward)
            s = equilibrate(a1)
            a2 = a1.scaled(s.row_scale, s.col_scale)
            p, _ = scc_block_structure(a2, max_block=10)
            a3 = a2.permuted_symmetric(p.forward)

            b3 = (s.row_scale * b)[p.forward]
            y3 = np.linalg.solve(a3.to_dense(), b3)
            x = q.undo(s.col_scale * p.undo(y3))
            assert np.linalg.norm(x - x_true) <= 1e-10 * np.linalg.norm(x_true)
