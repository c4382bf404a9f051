"""Compressed sparse-column storage, Matrix Market I/O and pattern algebra.

Everything downstream (pattern construction, the columnwise factorization
algorithms, the Krylov harness) works on the types defined here.  All types
are immutable after construction and all operations are pure functions, so
they are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MatrixMarketError",
    "SparseMatrix",
    "SparseVector",
    "SubspacePattern",
    "ColumnSubmatrix",
    "read_matrix_market",
    "write_matrix_market",
    "extract_columns",
    "pattern_subtract_offdiag",
    "spmv",
    "residual_fro",
    "sorted_lookup",
]


class MatrixMarketError(Exception):
    """Raised when a Matrix Market file cannot be parsed or is unsupported."""


class SparseMatrix:
    """Immutable compressed sparse-column (CSC) matrix with float64 values.

    Invariants enforced at construction:

    * ``col_ptr`` is nondecreasing, starts at 0 and ends at ``nnz``;
    * within each column the row indices are strictly increasing and
      smaller than ``n_rows``;
    * no explicitly stored zeros.
    """

    __slots__ = ("n_rows", "n_cols", "col_ptr", "row_idx", "values", "_col_of_entry")

    def __init__(self, n_rows, n_cols, col_ptr, row_idx, values, validate=True):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.col_ptr = np.ascontiguousarray(col_ptr, dtype=np.int64)
        self.row_idx = np.ascontiguousarray(row_idx, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._col_of_entry = None
        if validate:
            self._check()

    def _check(self):
        if self.col_ptr.shape != (self.n_cols + 1,):
            raise ValueError("col_ptr must have length n_cols + 1")
        if self.col_ptr[0] != 0 or self.col_ptr[-1] != len(self.row_idx):
            raise ValueError("col_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.col_ptr) < 0):
            raise ValueError("col_ptr must be nondecreasing")
        if len(self.row_idx) != len(self.values):
            raise ValueError("row_idx and values must have equal length")
        if len(self.row_idx):
            if self.row_idx.min() < 0 or self.row_idx.max() >= self.n_rows:
                raise ValueError("row index out of range")
            # strictly increasing within each column: a decrease is only
            # allowed exactly at column boundaries
            dec = np.nonzero(np.diff(self.row_idx) <= 0)[0] + 1
            if not np.all(np.isin(dec, self.col_ptr)):
                raise ValueError("row indices must be strictly increasing per column")
        if np.any(self.values == 0.0):
            raise ValueError("explicitly stored zeros are not allowed")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite value in matrix")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, values):
        """Build from triplets; duplicates are summed, zeros dropped."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if len(rows):
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        order = np.lexsort((rows, cols))
        rows, cols, values = rows[order], cols[order], values[order]
        if len(rows):
            new_group = np.empty(len(rows), dtype=bool)
            new_group[0] = True
            new_group[1:] = (np.diff(cols) != 0) | (np.diff(rows) != 0)
            starts = np.nonzero(new_group)[0]
            summed = np.add.reduceat(values, starts) if len(starts) else values[:0]
            rows, cols, values = rows[starts], cols[starts], summed
        keep = values != 0.0
        rows, cols, values = rows[keep], cols[keep], values[keep]
        col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n_cols), out=col_ptr[1:])
        return cls(n_rows, n_cols, col_ptr, rows, values)

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], a.shape[1], rows, cols, a[rows, cols])

    @classmethod
    def identity(cls, n):
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def from_columns(cls, n_rows, columns):
        """Assemble from per-column ``(row_indices, values)`` pairs."""
        n_cols = len(columns)
        col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
        idx_parts, val_parts = [], []
        for j, (idx, val) in enumerate(columns):
            idx = np.asarray(idx, dtype=np.int64)
            val = np.asarray(val, dtype=np.float64)
            keep = val != 0.0
            idx, val = idx[keep], val[keep]
            col_ptr[j + 1] = col_ptr[j] + len(idx)
            idx_parts.append(idx)
            val_parts.append(val)
        row_idx = np.concatenate(idx_parts) if idx_parts else np.empty(0, np.int64)
        values = np.concatenate(val_parts) if val_parts else np.empty(0)
        return cls(n_rows, n_cols, col_ptr, row_idx, values)

    # -- basics ------------------------------------------------------------

    @property
    def nnz(self):
        return len(self.row_idx)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def column(self, j):
        """Row indices and values of column ``j`` (views, do not mutate)."""
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.row_idx[lo:hi], self.values[lo:hi]

    def to_dense(self):
        a = np.zeros((self.n_rows, self.n_cols))
        cols = self._entry_columns()
        a[self.row_idx, cols] = self.values
        return a

    def _entry_columns(self):
        # cached nnz-length array mapping entry -> column index
        if self._col_of_entry is None:
            self._col_of_entry = np.repeat(
                np.arange(self.n_cols, dtype=np.int64), np.diff(self.col_ptr)
            )
        return self._col_of_entry

    def diagonal(self):
        d = np.zeros(min(self.n_rows, self.n_cols))
        for j in range(len(d)):
            idx, val = self.column(j)
            k, found = sorted_lookup(idx, j)
            if found:
                d[j] = val[k]
        return d

    def transpose(self):
        cols = self._entry_columns()
        return SparseMatrix.from_coo(self.n_cols, self.n_rows, cols, self.row_idx, self.values)

    def one_norm(self):
        """Maximum absolute column sum."""
        if self.nnz == 0:
            return 0.0
        sums = np.zeros(self.n_cols)
        np.add.at(sums, self._entry_columns(), np.abs(self.values))
        return float(sums.max())

    # -- permutation and scaling -------------------------------------------

    def permuted_columns(self, order):
        """Return B with B[:, k] = A[:, order[k]]."""
        order = np.asarray(order, dtype=np.int64)
        counts = np.diff(self.col_ptr)[order]
        col_ptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=col_ptr[1:])
        gather = np.concatenate(
            [np.arange(self.col_ptr[c], self.col_ptr[c + 1]) for c in order]
        ) if self.nnz else np.empty(0, np.int64)
        return SparseMatrix(
            self.n_rows, self.n_cols, col_ptr,
            self.row_idx[gather], self.values[gather], validate=False,
        )

    def permuted_symmetric(self, order):
        """Return B with B[i, j] = A[order[i], order[j]]."""
        order = np.asarray(order, dtype=np.int64)
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        cols = self._entry_columns()
        return SparseMatrix.from_coo(
            self.n_rows, self.n_cols, inv[self.row_idx], inv[cols], self.values
        )

    def scaled(self, row_scale, col_scale):
        """Return diag(row_scale) @ A @ diag(col_scale)."""
        cols = self._entry_columns()
        vals = self.values * np.asarray(row_scale)[self.row_idx] * np.asarray(col_scale)[cols]
        return SparseMatrix(self.n_rows, self.n_cols, self.col_ptr.copy(),
                            self.row_idx.copy(), vals)


class SparseVector:
    """A length-``n`` vector stored as sorted (index, value) pairs."""

    __slots__ = ("n", "idx", "val")

    def __init__(self, n, idx, val, sort=False):
        self.n = int(n)
        self.idx = np.ascontiguousarray(idx, dtype=np.int64)
        self.val = np.ascontiguousarray(val, dtype=np.float64)
        if sort and len(self.idx) > 1:
            order = np.argsort(self.idx, kind="stable")
            self.idx, self.val = self.idx[order], self.val[order]

    @classmethod
    def from_dense(cls, x):
        x = np.asarray(x, dtype=np.float64)
        idx = np.nonzero(x)[0]
        return cls(len(x), idx, x[idx])

    def to_dense(self):
        x = np.zeros(self.n)
        x[self.idx] = self.val
        return x

    def norm(self):
        return float(np.sqrt(np.dot(self.val, self.val)))

    @property
    def nnz(self):
        return len(self.idx)


class SubspacePattern:
    """Per-column allowed row-index sets defining a standard matrix subspace.

    Column ``j`` of any member matrix may only have nonzeros at the row
    indices in ``cols[j]``.  Every index set is nonempty and within
    ``[0, n)``.  Patterns meant to host an invertible factor must include
    the diagonal index ``j`` in column ``j``; that is the caller's duty and
    is validated by the consumers that rely on it.
    """

    __slots__ = ("n", "cols")

    def __init__(self, n, cols):
        self.n = int(n)
        if len(cols) != self.n:
            raise ValueError("pattern needs one index set per column")
        checked = []
        seen = {}  # columns may share one array (full blocks); validate once
        for j, c in enumerate(cols):
            cached = seen.get(id(c))
            if cached is not None:
                checked.append(cached)
                continue
            arr = np.asarray(c, dtype=np.int64)
            if arr.ndim != 1 or len(arr) == 0:
                raise ValueError(f"column {j}: pattern column must be nonempty")
            if len(arr) > 1 and not np.all(np.diff(arr) > 0):
                arr = np.unique(arr)
            if arr[0] < 0 or arr[-1] >= self.n:
                raise ValueError(f"column {j}: pattern index out of range")
            seen[id(c)] = arr
            checked.append(arr)
        self.cols = checked

    @classmethod
    def diagonal(cls, n):
        return cls(n, [np.array([j]) for j in range(n)])

    @classmethod
    def from_matrix(cls, a):
        if a.n_rows != a.n_cols:
            raise ValueError("pattern requires a square matrix")
        return cls(a.n_cols, [a.column(j)[0] for j in range(a.n_cols)])

    def with_diagonal(self):
        """Return a copy whose column ``j`` always contains index ``j``."""
        cols = []
        for j, c in enumerate(self.cols):
            k, found = sorted_lookup(c, j)
            if found:
                cols.append(c)
            else:
                cols.append(np.insert(c, k, j))
        return SubspacePattern(self.n, cols)

    def intersected(self, other):
        """Columnwise intersection; empty columns fall back to the diagonal."""
        if other.n != self.n:
            raise ValueError("pattern dimension mismatch")
        cols = []
        for j in range(self.n):
            c = np.intersect1d(self.cols[j], other.cols[j], assume_unique=True)
            cols.append(c if len(c) else np.array([j], dtype=np.int64))
        return SubspacePattern(self.n, cols)

    def column_counts(self):
        return np.array([len(c) for c in self.cols])

    def __eq__(self, other):
        if not isinstance(other, SubspacePattern):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(a, b) for a, b in zip(self.cols, other.cols)
        )


class ColumnSubmatrix:
    """A handful of columns of a sparse matrix, compressed to their nonzero rows.

    ``dense_block`` has one row per entry of ``active_rows`` (the union of
    the selected columns' supports, sorted) and one column per selected
    column.
    """

    __slots__ = ("n_rows", "cols", "active_rows", "dense_block")

    def __init__(self, n_rows, cols, active_rows, dense_block):
        self.n_rows = n_rows
        self.cols = cols
        self.active_rows = active_rows
        self.dense_block = dense_block

    @property
    def k(self):
        return len(self.cols)


def read_matrix_market(path):
    """Read a Matrix Market coordinate file into a :class:`SparseMatrix`.

    Supports the ``real`` and ``integer`` fields with ``general`` or
    ``symmetric`` symmetry.  Symmetric storage is expanded to full,
    duplicate entries are summed and explicit zeros dropped.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError(f"{path}:1: missing MatrixMarket banner")
        parts = header.strip().split()
        if len(parts) < 5:
            raise MatrixMarketError(f"{path}:1: malformed banner")
        obj, fmt, field, symmetry = (p.lower() for p in parts[1:5])
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketError(f"{path}:1: only coordinate matrices are supported")
        if field not in ("real", "integer"):
            raise MatrixMarketError(f"{path}:1: unsupported field '{field}'")
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(f"{path}:1: unsupported symmetry '{symmetry}'")

        lineno = 1
        size_line = None
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            size_line = s
            break
        if size_line is None:
            raise MatrixMarketError(f"{path}:{lineno}: missing size line")
        try:
            n_rows, n_cols, nnz = (int(t) for t in size_line.split())
        except ValueError:
            raise MatrixMarketError(f"{path}:{lineno}: malformed size line") from None

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        k = 0
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            t = s.split()
            try:
                i, j, v = int(t[0]), int(t[1]), float(t[2])
            except (ValueError, IndexError):
                raise MatrixMarketError(f"{path}:{lineno}: malformed entry") from None
            if k >= nnz:
                raise MatrixMarketError(f"{path}:{lineno}: more entries than declared")
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise MatrixMarketError(f"{path}:{lineno}: index out of range")
            rows[k], cols[k], vals[k] = i - 1, j - 1, v
            k += 1
        if k != nnz:
            raise MatrixMarketError(f"{path}: declared {nnz} entries, found {k}")

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


def write_matrix_market(a, path):
    """Write ``a`` in coordinate/real/general form with round-trip precision."""
    cols = a._entry_columns()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        for e in range(a.nnz):
            fh.write(f"{a.row_idx[e] + 1} {cols[e] + 1} {a.values[e]:.17g}\n")


def extract_columns(a, cols):
    """Extract columns ``cols`` of ``a`` compressed to their nonzero rows."""
    cols = np.asarray(cols, dtype=np.int64)
    if len(cols) == 0:
        raise ValueError("at least one column must be selected")
    if np.any(np.diff(cols) <= 0):
        raise ValueError("columns must be sorted and unique")
    if cols[0] < 0 or cols[-1] >= a.n_cols:
        raise ValueError("column index out of range")
    chunks = [a.column(c)[0] for c in cols]
    active = np.unique(np.concatenate(chunks)) if chunks else np.empty(0, np.int64)
    block = np.zeros((len(active), len(cols)))
    for t, c in enumerate(cols):
        idx, val = a.column(c)
        block[np.searchsorted(active, idx), t] = val
    return ColumnSubmatrix(a.n_rows, cols, active, block)


def pattern_subtract_offdiag(w_pattern, v0_pattern):
    """Remove the off-diagonal part of ``v0_pattern`` from ``w_pattern``.

    Column ``j`` of the result is ``w.cols[j]`` minus ``v0.cols[j] \\ {j}``;
    a diagonal index present in ``w`` is always retained.
    """
    if w_pattern.n != v0_pattern.n:
        raise ValueError("pattern dimension mismatch")
    cols = []
    for j in range(w_pattern.n):
        v0 = v0_pattern.cols[j]
        drop = v0[v0 != j]
        cols.append(np.setdiff1d(w_pattern.cols[j], drop, assume_unique=True))
    return SubspacePattern(w_pattern.n, cols)


def sorted_lookup(arr, keys):
    """Where ``keys`` sit in the sorted array ``arr``, and whether they are there.

    Returns ``(pos, found)``: the insertion points of ``np.searchsorted``
    and a mask (a bool for a scalar key) that is true exactly where
    ``arr[pos] == keys``.  Only ``pos[found]`` is guaranteed to index
    ``arr``.
    """
    pos = np.searchsorted(arr, keys)
    if len(arr) == 0:
        return pos, np.zeros(np.shape(keys), dtype=bool)
    return pos, arr[np.minimum(pos, len(arr) - 1)] == keys


def spmv(a, x):
    """Dense matrix-vector product ``a @ x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n_cols,):
        raise ValueError("dimension mismatch")
    if a.nnz == 0:
        return np.zeros(a.n_rows)
    contrib = a.values * x[a._entry_columns()]
    return np.bincount(a.row_idx, weights=contrib, minlength=a.n_rows)


def gather_columns(a, idx, val):
    """Sparse product ``a @ x`` for sparse ``x`` given as (idx, val).

    Returns sorted (idx, val) with exact zeros removed.
    """
    if len(idx) == 0:
        return np.empty(0, np.int64), np.empty(0)
    parts_i, parts_v = [], []
    for c, xv in zip(idx, val):
        ri, rv = a.column(c)
        parts_i.append(ri)
        parts_v.append(rv * xv)
    return merge_sum(np.concatenate(parts_i), np.concatenate(parts_v))


def merge_sum(idx, val):
    """Sum duplicate indices of an unsorted sparse vector; drop exact zeros."""
    if len(idx) == 0:
        return idx.astype(np.int64), val
    uniq, inverse = np.unique(idx, return_inverse=True)
    sums = np.bincount(inverse, weights=val)
    keep = sums != 0.0
    return uniq[keep], sums[keep]


def residual_fro(a, w, v):
    """Frobenius norm of ``a @ w - v``, formed columnwise and never densified."""
    if a.n_cols != w.n_rows or w.n_cols != v.n_cols or a.n_rows != v.n_rows:
        raise ValueError("dimension mismatch")
    total = 0.0
    for j in range(w.n_cols):
        widx, wval = w.column(j)
        vidx, vval = v.column(j)
        ri, rv = gather_columns(a, widx, wval)
        _, dv = merge_sum(np.concatenate([ri, vidx]), np.concatenate([rv, -vval]))
        total += float(np.dot(dv, dv))
    return float(np.sqrt(total))
