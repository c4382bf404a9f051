import re
import tracemalloc
import warnings

import numpy as np
import pytest

from diafact.sparse import (
    MatrixMarketError,
    SparseMatrix,
    SparseVector,
    SubspacePattern,
    extract_columns,
    gather_columns,
    pattern_subtract_offdiag,
    read_matrix_market,
    residual_fro,
    sorted_lookup,
    sparse_product,
    spmv,
    write_matrix_market,
)

from diafact.preprocess import BlockStructure, block_pattern

from helpers import random_sparse


def write_mm(tmp_path, text, name="m.mtx"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestMatrixMarket:
    def test_reads_small_diagonal(self, tmp_path):
        p = write_mm(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.0\n2 2 3.0\n")
        a = read_matrix_market(p)
        assert a.shape == (2, 2)
        assert np.allclose(a.to_dense(), np.diag([2.0, 3.0]))

    def test_duplicate_entries_are_summed(self, tmp_path):
        p = write_mm(tmp_path, "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.0\n1 1 1.0\n")
        a = read_matrix_market(p)
        assert a.nnz == 1
        assert a.values[0] == 2.0

    def test_symmetric_expanded_to_full(self, tmp_path):
        p = write_mm(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1.0\n2 1 5.0\n3 3 2.0\n",
        )
        a = read_matrix_market(p)
        d = a.to_dense()
        assert d[1, 0] == 5.0 and d[0, 1] == 5.0
        assert a.nnz == 4

    def test_integer_field_parsed_as_double(self, tmp_path):
        p = write_mm(tmp_path, "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n")
        assert read_matrix_market(p).values[0] == 7.0

    def test_complex_field_rejected(self, tmp_path):
        p = write_mm(tmp_path, "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(MatrixMarketError, match="field"):
            read_matrix_market(p)

    def test_pattern_field_rejected(self, tmp_path):
        p = write_mm(tmp_path, "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    def test_parse_failure_reports_line_number(self, tmp_path):
        p = write_mm(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 bogus 1.0\n")
        with pytest.raises(MatrixMarketError, match=":3"):
            read_matrix_market(p)

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("2 2 -1\n", 2, "negative count"),
            ("-2 2 1\n1 1 1.0\n", 2, "negative count"),
            ("2 -2 1\n1 1 1.0\n", 2, "negative count"),
            ("2 2 2\n1 1 1.0\n2 2 nan\n", 4, "non-finite entry"),
            ("2 2 1\n1 1 -inf\n", 3, "non-finite entry"),
        ],
        ids=["negative-nnz", "negative-rows", "negative-cols", "nan", "inf"],
    )
    def test_malformed_input_names_path_and_line(self, tmp_path, body, line, message):
        p = write_mm(tmp_path, "%%MatrixMarket matrix coordinate real general\n" + body)
        with pytest.raises(MatrixMarketError, match=f"{re.escape(str(p))}:{line}: {message}"):
            read_matrix_market(p)

    @pytest.mark.parametrize(
        "size",
        ["100000000000000000000 2 1", "2 100000000000000000000 1", "2 2 100000000000000000000",
         "9223372036854775808 2 1", "4611686018427387904 5 1"],
        ids=["rows", "cols", "entries", "rows-just-past-int64", "keys-past-int64"],
    )
    def test_size_beyond_int64_names_the_size_line(self, tmp_path, size):
        # the last size would wrap the key of an entry in column 5 to column 1
        p = write_mm(tmp_path, f"%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n")
        message = f"{re.escape(str(p))}:2: size line '{size}' is beyond the int64 index range"
        with pytest.raises(MatrixMarketError, match=message):
            read_matrix_market(p)

    @pytest.mark.parametrize("n_cols", [10 ** 7, 10 ** 9])
    def test_more_columns_than_entries_are_rejected_before_allocating_them(self, tmp_path, n_cols):
        # one entry leaves a column empty; 10^9 column offsets would take 8 GB
        size = f"1 {n_cols} 1"
        p = write_mm(tmp_path, f"%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n")
        message = f"{re.escape(str(p))}:2: size line '{size}' declares {n_cols} columns over 1 entries,"
        tracemalloc.start()
        try:
            with pytest.raises(MatrixMarketError, match=message):
                read_matrix_market(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_symmetric_entries_count_after_expansion(self, tmp_path):
        # two entries below the diagonal fill all three columns
        text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 1 2.0\n"
        p = write_mm(tmp_path, text)
        assert np.array_equal(np.diff(read_matrix_market(p).col_ptr), [2, 1, 1])

    def test_roundtrip_is_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(5):
            a = random_sparse(rng, 17, density=0.2)
            p = tmp_path / f"t{trial}.mtx"
            write_matrix_market(a, p)
            b = read_matrix_market(p)
            assert np.array_equal(a.col_ptr, b.col_ptr)
            assert np.array_equal(a.row_idx, b.row_idx)
            assert np.array_equal(a.values, b.values)


class TestSparseMatrix:
    def test_from_coo_drops_zeros_and_sums(self):
        a = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 0, 1], [1.0, -1.0, 3.0])
        assert a.nnz == 1
        assert a.to_dense()[1, 1] == 3.0

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 1, 2], [0, 0], [1.0, 0.0])  # explicit zero
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 2], [1, 0], [1.0, 1.0])  # unsorted rows

    def test_rejects_non_integer_sizes_and_indices(self):
        for args, name in [
            ((2.5, 2, [0, 1, 2], [0, 1]), "n_rows"),
            ((2, 2.0, [0, 1, 2], [0, 1]), "n_cols"),
            ((2, 2, [0, 1.0, 2], [0, 1]), "col_ptr"),
            ((2, 2, [0, 1, 2], [0, 1.5]), "row_idx"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                SparseMatrix(*args, [1.0, 2.0])
        a = SparseMatrix(np.int32(2), np.int64(2), np.array([0, 1, 2], dtype=np.int32),
                         np.array([0, 1], dtype=np.int32), [1.0, 2.0])
        assert a.shape == (2, 2) and a.row_idx.dtype == np.int64
        assert SparseMatrix(2, 2, [0, 0, 0], [], []).nnz == 0  # empty sequences pass

    def test_rejects_shapes_whose_keys_pass_int64(self):
        # col * n_rows + row of the entry in column 4 would wrap to 0
        rows = 2 ** 62
        with pytest.raises(ValueError, match=r"^n_rows \* n_cols is beyond the int64 key range$"):
            SparseMatrix.from_coo(rows, 5, [0], [4], [1.0])
        with pytest.raises(ValueError, match=r"^n_rows \* n_cols is beyond the int64 key range$"):
            SparseMatrix(rows, 5, [0, 0, 0, 0, 0, 1], [0], [1.0])
        a = SparseMatrix.from_coo(rows, 1, [rows - 1], [0], [1.0])
        assert a.entry_keys().tolist() == [rows - 1]

    def test_from_coo_rejects_non_integer_sizes_and_indices(self):
        for args, name in [
            ((3, 3, [0.5, 1, 2], [0, 1, 2]), "rows"),
            ((3, 3, [0, 1, 2], [0, 1, 2.9]), "cols"),
            ((3.0, 3, [0, 1, 2], [0, 1, 2]), "n_rows"),
            ((3, 3.5, [0, 1, 2], [0, 1, 2]), "n_cols"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                SparseMatrix.from_coo(*args, [1.0, 2.0, 3.0])
        assert SparseMatrix.from_coo(2, 2, [], [], []).nnz == 0

    def test_diagonal_with_missing_entries(self):
        a = SparseMatrix.from_dense([[2.0, 1.0, 0.0], [0.0, 0.0, 5.0], [4.0, 0.0, -3.0]])
        assert np.array_equal(a.diagonal(), [2.0, 0.0, -3.0])

    def test_diagonal_of_rectangular(self):
        tall = SparseMatrix.from_dense([[1.0, 0.0], [7.0, 0.0], [0.0, 9.0]])
        assert np.array_equal(tall.diagonal(), [1.0, 0.0])
        wide = SparseMatrix.from_dense([[0.0, 1.0, 2.0], [0.0, 6.0, 0.0]])
        assert np.array_equal(wide.diagonal(), [0.0, 6.0])

    def test_transpose_matches_dense(self):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 9, density=0.3)
        assert np.allclose(a.transpose().to_dense(), a.to_dense().T)

    def test_permutations_and_scaling(self):
        rng = np.random.default_rng(5)
        a = random_sparse(rng, 8, density=0.4)
        d = a.to_dense()
        order = rng.permutation(8)
        assert np.allclose(a.permuted_columns(order).to_dense(), d[:, order])
        assert np.allclose(a.permuted_symmetric(order).to_dense(), d[np.ix_(order, order)])
        r, c = rng.random(8) + 0.5, rng.random(8) + 0.5
        assert np.allclose(a.scaled(r, c).to_dense(), np.diag(r) @ d @ np.diag(c))

    def test_scaling_that_underflows_names_the_entry(self):
        a = SparseMatrix.from_dense([[1.0, 0.0, 2.0], [0.0, 1e-300, 3.0], [4.0, 1e-200, 0.0]])
        with pytest.raises(ValueError, match=r"^entry \(row 1, column 1\) underflowed to zero when scaled$"):
            a.scaled(np.ones(3), np.array([1.0, 1e-30, 1.0]))

    @pytest.mark.parametrize("method", ["permuted_columns", "permuted_symmetric"])
    @pytest.mark.parametrize("order", [[0, 0, 1], [2, 0], [0, 1, 3], [[0, 1, 2]]])
    def test_permutations_reject_a_non_permutation(self, method, order):
        permuted = getattr(SparseMatrix.from_dense(np.arange(1.0, 10.0).reshape(3, 3)), method)
        with pytest.raises(ValueError, match=r"^not a bijection on \{0\.\.n-1\}$"):
            permuted(order)
        with pytest.raises(ValueError, match="^permutation entries must be integers$"):
            permuted([0.0, 2.0, 1.0])


class TestExtractColumns:
    def test_identity_columns(self):
        a = SparseMatrix.identity(3)
        sub = extract_columns(a, [0, 2])
        assert np.array_equal(sub.active_rows, [0, 2])
        assert np.allclose(sub.dense_block, np.eye(2))

    def test_single_column_with_gap(self):
        a = SparseMatrix.from_dense([[0, 1.0], [0, 0], [0, 4.0]])
        sub = extract_columns(a, [1])
        assert np.array_equal(sub.active_rows, [0, 2])
        assert np.allclose(sub.dense_block, [[1.0], [4.0]])

    def test_matches_dense_extraction(self):
        rng = np.random.default_rng(11)
        a = random_sparse(rng, 10, density=0.25)
        cols = np.array([1, 4, 7])
        sub = extract_columns(a, cols)
        dense = a.to_dense()[:, cols]
        keep = np.nonzero(np.any(dense != 0, axis=1))[0]
        assert np.array_equal(sub.active_rows, keep)
        assert np.allclose(sub.dense_block, dense[keep])

    def test_rescatter_reproduces_columns(self):
        rng = np.random.default_rng(13)
        a = random_sparse(rng, 12, density=0.3)
        cols = np.array([0, 5, 9])
        sub = extract_columns(a, cols)
        back = np.zeros((12, 3))
        back[sub.active_rows] = sub.dense_block
        assert np.array_equal(back, a.to_dense()[:, cols])

    def test_empty_column_in_selection(self):
        a = SparseMatrix.from_dense([[1.0, 0.0, 0.0], [0.0, 0.0, 3.0], [2.0, 0.0, 0.0]])
        sub = extract_columns(a, [0, 1, 2])
        assert np.array_equal(sub.active_rows, [0, 1, 2])
        assert np.array_equal(sub.dense_block, a.to_dense())
        only = extract_columns(a, [1])
        assert len(only.active_rows) == 0 and only.dense_block.shape == (0, 1)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            extract_columns(SparseMatrix.identity(3), [])

    def test_rejects_non_integer_columns(self):
        a = SparseMatrix.identity(3)
        for bad in ([0.5, 2.7], [0.0, 2.0], ["0", "2"]):
            with pytest.raises(ValueError, match="^columns must be integers$"):
                extract_columns(a, bad)
        assert np.array_equal(extract_columns(a, np.array([0, 2], dtype=np.int32)).cols, [0, 2])


class TestPatterns:
    def test_subtract_offdiag_examples(self):
        w = SubspacePattern(3, [[0, 1, 2], [1], [2]])
        v0 = SubspacePattern(3, [[0, 1], [1], [2]])
        out = pattern_subtract_offdiag(w, v0)
        assert np.array_equal(out.cols[0], [0, 2])

        diag_only = SubspacePattern.diagonal(3)
        same = pattern_subtract_offdiag(w, diag_only)
        assert same == w

        both = pattern_subtract_offdiag(w, w)
        assert both == SubspacePattern.diagonal(3)

    def test_subtract_never_intersects_offdiag(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = 10
            w = SubspacePattern(n, [np.unique(np.append(rng.choice(n, 4), j)) for j in range(n)])
            v0 = SubspacePattern(n, [np.unique(np.append(rng.choice(n, 3), j)) for j in range(n)])
            out = pattern_subtract_offdiag(w, v0)
            for j in range(n):
                inter = np.intersect1d(out.cols[j], v0.cols[j])
                assert np.all(inter == j) or len(inter) == 0

    def test_pattern_invariants(self):
        with pytest.raises(ValueError):
            SubspacePattern(2, [[0], []])
        with pytest.raises(ValueError):
            SubspacePattern(2, [[0], [2]])

    def test_rejects_non_integer_indices(self):
        with pytest.raises(ValueError, match="^column 1: pattern indices must be integers$"):
            SubspacePattern(3, [[0], [1.7], [2]])
        bad = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="^column 1: pattern indices must be integers$"):
            SubspacePattern(3, [[0], bad, bad])
        with pytest.raises(ValueError, match="^pattern size n must be an integer"):
            SubspacePattern(3.0, [[0], [1], [2]])
        p = SubspacePattern(np.int32(2), np.array([[0, 1], [0, 1]], dtype=np.int32))
        assert [c.tolist() for c in p.cols] == [[0, 1], [0, 1]]

    def test_unsorted_and_duplicate_columns_uniqued(self):
        p = SubspacePattern(3, [[2, 0, 2], np.array([1, 1]), [0, 1, 2]])
        assert [c.tolist() for c in p.cols] == [[0, 2], [1], [0, 1, 2]]
        assert p == SubspacePattern(3, [[0, 2], [1], [0, 1, 2]])

    @pytest.mark.parametrize(
        "cols, message",
        [
            ([[0], [1], [], [5]], "column 2: pattern column must be nonempty"),
            ([[0], [1], [4], []], "column 2: pattern index out of range"),
            ([[0], [-1], [], [1]], "column 1: pattern index out of range"),
            ([[0], [4, 1, 1], [2], [3]], "column 1: pattern index out of range"),
        ],
    )
    def test_first_bad_column_named(self, cols, message):
        with pytest.raises(ValueError, match=message):
            SubspacePattern(4, cols)

    def test_row_at_the_int64_limit_is_out_of_range(self):
        # the key 1 * 4 + row of such a row would wrap below the column's keys
        with pytest.raises(ValueError, match="^column 1: pattern index out of range$"):
            SubspacePattern(4, [[0], [0, 2 ** 63 - 1], [2], [3]])

    @pytest.mark.parametrize("keys, column", [([0, 2, 1, 4, 8], 0), ([0, 0, 4, 8], 0), ([0, 4, 8, 7], 2)])
    def test_keys_that_do_not_rise_rejected(self, keys, column):
        with pytest.raises(ValueError, match=f"^column {column}: pattern keys must strictly increase$"):
            SubspacePattern.from_keys(3, keys)

    def test_first_bad_column_behind_a_shared_array(self):
        good, bad = np.array([0, 1]), np.array([0, 9])
        with pytest.raises(ValueError, match="column 2: pattern index out of range"):
            SubspacePattern(5, [good, good, bad, [3], bad])

    def test_block_upper_shares_one_array_per_block(self):
        blocks = BlockStructure([0, 3, 4, 8])
        pat = block_pattern(blocks, "block-upper-triangular")
        for b in range(blocks.n_blocks):
            lo, hi = blocks.block_bounds[b], blocks.block_bounds[b + 1]
            assert pat.cols[lo] is pat.cols[hi - 1]
            assert np.array_equal(pat.cols[lo], np.arange(hi))
        assert pat.cols[0] is not pat.cols[3]

    @staticmethod
    def random_blocks(rng, n):
        """Bounds of random blocks over n indices, with one-index blocks likely."""
        cuts = rng.choice(np.arange(1, n), size=rng.integers(0, n), replace=False)
        return BlockStructure(np.unique(np.concatenate([[0, n], cuts])))

    @pytest.mark.parametrize("shape", ["block-diagonal", "block-upper-triangular"])
    def test_block_pattern_is_its_per_column_definition(self, shape):
        rng = np.random.default_rng(41)
        cases = [BlockStructure([0, 1]), BlockStructure([0, 7]), BlockStructure(np.arange(6))]
        cases += [self.random_blocks(rng, int(rng.integers(2, 30))) for _ in range(30)]
        for blocks in cases:
            cols = []
            for b in range(blocks.n_blocks):
                lo, hi = blocks.block_bounds[b], blocks.block_bounds[b + 1]
                cols += [np.arange(lo if shape == "block-diagonal" else 0, hi)] * (hi - lo)
            pat = block_pattern(blocks, shape)
            assert pat == SubspacePattern(blocks.n, cols)
            assert [c.tolist() for c in pat.cols] == [c.tolist() for c in cols]
            assert np.array_equal(pat.counts(), [len(c) for c in cols])

    @pytest.mark.parametrize("shape", ["block-diagonal", "block-upper-triangular"])
    def test_each_block_is_stored_once(self, shape):
        rng = np.random.default_rng(42)
        for blocks in [BlockStructure([0, 5]), BlockStructure([0, 3, 4, 8])] + [
                self.random_blocks(rng, 25) for _ in range(5)]:
            bounds = blocks.block_bounds
            lo = bounds[:-1] if shape == "block-diagonal" else 0
            pat = block_pattern(blocks, shape)
            assert len(pat._set_keys) == (bounds[1:] - lo).sum()

    def test_unknown_block_shape_named(self):
        with pytest.raises(ValueError, match="^unknown block pattern shape 'block-lower'$"):
            block_pattern(BlockStructure([0, 2, 3]), "block-lower")

    def test_ranges_are_validated_per_column(self):
        pat = SubspacePattern.from_ranges(4, np.array([1, 0, 1, 0]), np.array([2, 0]), np.array([4, 1]))
        assert [c.tolist() for c in pat.cols] == [[0], [2, 3], [0], [2, 3]]
        with pytest.raises(ValueError, match="^column 2: pattern column must be nonempty$"):
            SubspacePattern.from_ranges(3, np.array([0, 0, 1]), np.array([0, 2]), np.array([2, 2]))
        with pytest.raises(ValueError, match="^column 1: pattern index out of range$"):
            SubspacePattern.from_ranges(3, np.array([0, 1, 0]), np.array([0, 2]), np.array([1, 4]))

    def test_one_array_listed_for_every_column_is_no_shared_set(self):
        x = np.array([0, 2, 3])
        shared = SubspacePattern(4, [x] * 4)
        assert shared == SubspacePattern(4, [x.copy() for _ in range(4)])
        assert len(shared._set_keys) == 4 * len(x)
        x[0] = 1  # the pattern keeps no view of its input
        assert shared.cols[0].tolist() == [0, 2, 3]

    def test_block_pattern_holds_one_key_per_stored_position(self):
        # 72 blocks of 50: the block-upper pattern stores the sum of the
        # block ends, 131,400 positions; two int64 arrays of that length
        # would hold 2.1 MB
        blocks = BlockStructure(np.arange(0, 3601, 50))
        tracemalloc.start()
        try:
            pat = block_pattern(blocks, "block-upper-triangular")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        stored = int(blocks.block_bounds[1:].sum())
        assert stored == 131_400
        assert held <= 8 * stored + 64 * pat.n

    @pytest.mark.parametrize("build", [lambda: SubspacePattern(0, []),
                                       lambda: SubspacePattern.from_keys(0, np.empty(0, np.int64))],
                             ids=["from_cols", "from_keys"])
    def test_empty_pattern(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pat = build()
            assert pat.n == 0 and pat.nnz == 0 and pat.cols == []
            for got in (pat.keys(), pat.counts(), *pat.gather(np.empty(0, np.int64)),
                        *pat.lookup(np.empty(0, np.int64))):
                assert got.shape == (0,)

    def test_missing_diagonal(self):
        p = SubspacePattern(4, [[1], [1], [0, 3], [0, 1]])
        assert p.missing_diagonal().tolist() == [0, 2, 3]
        assert p.with_diagonal().missing_diagonal().tolist() == []
        assert SubspacePattern.diagonal(3).missing_diagonal().tolist() == []

    def test_with_diagonal_and_intersection(self):
        p = SubspacePattern(3, [[1], [0], [0, 2]])
        q = p.with_diagonal()
        assert np.array_equal(q.cols[0], [0, 1])
        r = q.intersected(SubspacePattern.diagonal(3))
        assert r == SubspacePattern.diagonal(3)

    @pytest.mark.parametrize("kind", ["keyed", "shared sets"])
    def test_lookup_gives_the_index_among_keys(self, kind):
        rng = np.random.default_rng(8)
        n = 12
        if kind == "keyed":
            pat = SubspacePattern.from_keys(n, np.unique(rng.choice(n * n, 40, replace=False)))
        else:
            pat = block_pattern(BlockStructure([0, 3, 4, 8, 12]), "block-upper-triangular")
        keys = pat.keys()
        pos, found = pat.lookup(keys[::-1])
        assert found.all() and np.array_equal(pos, np.arange(len(keys))[::-1])
        absent = np.setdiff1d(np.arange(n * n), keys)
        assert not pat.lookup(absent)[1].any() and not pat.contains(absent).any()
        mixed = rng.permutation(n * n)
        pos, found = pat.lookup(mixed)
        assert np.array_equal(found, np.isin(mixed, keys))
        assert np.array_equal(keys[pos[found]], mixed[found])


class TestProducts:
    def test_spmv_matches_dense(self):
        rng = np.random.default_rng(19)
        a = random_sparse(rng, 9, density=0.3)
        x = rng.standard_normal(9)
        assert np.allclose(spmv(a, x), a.to_dense() @ x, atol=1e-14)

    def test_gather_empty_idx(self):
        a = SparseMatrix.identity(3)
        idx, val = gather_columns(a, np.array([], dtype=np.int64), np.array([]))
        assert idx.dtype == np.int64 and len(idx) == 0 and len(val) == 0

    def test_gather_drops_exact_cancellation(self):
        a = SparseMatrix.from_dense([[1.0, 1.0], [2.0, -3.0], [0.5, 0.0]])
        idx, val = gather_columns(a, np.array([0, 1]), np.array([1.0, -1.0]))
        assert idx.tolist() == [1, 2] and val.tolist() == [5.0, 0.5]
        idx, val = gather_columns(a, np.array([0, 0]), np.array([1.0, -1.0]))
        assert len(idx) == 0 and len(val) == 0

    def test_product_sums_like_per_column_gather(self):
        rng = np.random.default_rng(29)
        a = random_sparse(rng, 12, density=0.3, dominant=False)
        b = random_sparse(rng, 12, density=0.25, dominant=False)
        c = sparse_product(a, b)
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-13)
        for j in range(12):
            idx, val = gather_columns(a, *b.column(j))
            got_idx, got_val = c.column(j)
            assert np.array_equal(got_idx, idx) and np.array_equal(got_val, val)

    def test_residual_identity_is_zero(self):
        a = SparseMatrix.identity(4)
        assert residual_fro(a, a, a) == 0.0

    def test_residual_against_empty_v(self):
        a = SparseMatrix.from_dense([[2.0]])
        w = SparseMatrix.identity(1)
        v = SparseMatrix.from_coo(1, 1, [], [], [])
        assert residual_fro(a, w, v) == pytest.approx(2.0)

    def test_residual_matches_dense_reference(self):
        rng = np.random.default_rng(23)
        a = random_sparse(rng, 8, density=0.4)
        w = random_sparse(rng, 8, density=0.4)
        v = random_sparse(rng, 8, density=0.3)
        want = np.linalg.norm(a.to_dense() @ w.to_dense() - v.to_dense(), "fro")
        got = residual_fro(a, w, v)
        assert abs(got - want) <= 1e-13 * want


class TestSortedLookup:
    @pytest.mark.parametrize(
        "arr, keys, found",
        [
            ([2, 5, 9], [2, 4, 5, 9], [True, False, True, True]),
            ([], [0, 3], [False, False]),
            ([2, 5, 9], [-1, 0, 1], [False, False, False]),
            ([2, 5, 9], [10, 99], [False, False]),
        ],
        ids=["mixed", "empty", "below", "above"],
    )
    def test_vector_keys(self, arr, keys, found):
        arr = np.array(arr, dtype=np.int64)
        pos, got = sorted_lookup(arr, np.array(keys))
        assert np.array_equal(got, found)
        assert np.array_equal(pos, np.searchsorted(arr, keys))
        assert np.array_equal(arr[pos[got]], np.array(keys)[got])

    def test_scalar_key(self):
        arr = np.array([2, 5, 9])
        assert sorted_lookup(arr, 5) == (1, True)
        assert not sorted_lookup(arr, 10)[1]
        assert not sorted_lookup(np.empty(0, np.int64), 0)[1]


class TestSparseVector:
    def test_dense_roundtrip(self):
        v = SparseVector.from_dense([0.0, 2.0, 0.0, -1.0])
        assert np.array_equal(v.idx, [1, 3])
        assert np.allclose(v.to_dense(), [0.0, 2.0, 0.0, -1.0])
        assert v.norm() == pytest.approx(np.sqrt(5.0))

    def test_rejects_non_integer_size_and_indices(self):
        for n in (3.7, 3.0, "3", -1):
            with pytest.raises(ValueError, match=r"^n must be an integer >= 0$"):
                SparseVector(n, [0], [1.0])
        for idx in ([0.5, 2.9], [0.0, 2.0], ["0", "2"]):
            with pytest.raises(ValueError, match="^indices must be integers$"):
                SparseVector(3, idx, [1.0, 2.0])
        v = SparseVector(np.int32(3), np.array([0, 2], dtype=np.int32), [1.0, 2.0])
        assert v.n == 3 and v.idx.dtype == np.int64
        assert np.array_equal(v.to_dense(), [1.0, 0.0, 2.0])

    @pytest.mark.parametrize(
        "idx, val, message",
        [
            ([-1], [1.0], r"^indices must lie in 0\.\.2$"),
            ([0, 3], [1.0, 2.0], r"^indices must lie in 0\.\.2$"),
            ([1, 1], [1.0, 2.0], "^indices must be strictly increasing$"),
            ([2, 0], [1.0, 2.0], "^indices must be strictly increasing$"),
            ([0, 2], [1.0], "^indices and values must be 1-D arrays of one length$"),
            ([0], [1.0, 2.0], "^indices and values must be 1-D arrays of one length$"),
            ([[0, 2]], [[1.0, 2.0]], "^indices and values must be 1-D arrays of one length$"),
        ],
        ids=["negative", "too-large", "repeated", "unsorted", "short-values", "long-values", "2-d"],
    )
    def test_rejects_indices_that_are_not_sorted_pairs(self, idx, val, message):
        with pytest.raises(ValueError, match=message):
            SparseVector(3, idx, val)

    def test_empty_vector(self):
        v = SparseVector(0, [], [])
        assert v.nnz == 0 and v.norm() == 0.0 and v.to_dense().shape == (0,)
