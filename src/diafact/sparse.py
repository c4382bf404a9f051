"""Compressed sparse-column storage, Matrix Market I/O and pattern algebra.

Everything downstream (pattern construction, the columnwise factorization
algorithms, the Krylov harness) works on the types defined here.  All types
are immutable after construction and all operations are pure functions, so
they are safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MatrixMarketError",
    "SparseMatrix",
    "SparseVector",
    "SubspacePattern",
    "ColumnSubmatrix",
    "ColumnChunk",
    "read_matrix_market",
    "write_matrix_market",
    "extract_columns",
    "column_chunks",
    "sparse_product",
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

    * sizes and indices are integers, never truncated floats, and every
      key ``col * n_rows + row`` fits in int64;
    * ``col_ptr`` is nondecreasing, starts at 0 and ends at ``nnz``;
    * within each column the row indices are strictly increasing and
      smaller than ``n_rows``;
    * no explicitly stored zeros.
    """

    __slots__ = ("n_rows", "n_cols", "col_ptr", "row_idx", "values", "_col_of_entry")

    def __init__(self, n_rows, n_cols, col_ptr, row_idx, values, validate=True):
        if validate:
            n_rows, n_cols = _require_shape(n_rows, n_cols)
            col_ptr = _integer_array("col_ptr", col_ptr)
            row_idx = _integer_array("row_idx", row_idx)
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
        n_rows, n_cols = _require_shape(n_rows, n_cols)
        rows, cols = _integer_array("rows", rows), _integer_array("cols", cols)
        values = np.asarray(values, dtype=np.float64)
        if len(rows):
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        keys, values = merge_sum(cols * n_rows + rows, values)
        cols = keys // n_rows
        return cls(n_rows, n_cols, _col_ptr(cols, n_cols), keys - cols * n_rows, values)

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
    def from_keys(cls, n_rows, n_cols, keys, values):
        """Build from sorted unique keys ``col * n_rows + row`` and nonzero values."""
        cols = keys // n_rows
        return cls(n_rows, n_cols, _col_ptr(cols, n_cols), keys - cols * n_rows, values,
                   validate=False)

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

    def entry_keys(self):
        """Key ``col * n_rows + row`` of every entry; sorted, as CSC stores them."""
        return self._entry_columns() * self.n_rows + self.row_idx

    def masked(self, keep):
        """The entries where the nnz-length mask ``keep`` is true."""
        col_ptr = _col_ptr(self._entry_columns()[keep], self.n_cols)
        return SparseMatrix(self.n_rows, self.n_cols, col_ptr, self.row_idx[keep],
                            self.values[keep], validate=False)

    def diagonal(self):
        d = np.zeros(min(self.n_rows, self.n_cols))
        cols = self._entry_columns()
        on = self.row_idx == cols
        d[cols[on]] = self.values[on]
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
        """Return B with B[:, k] = A[:, order[k]] for a permutation ``order`` of the columns."""
        _inverse_permutation(order, self.n_cols)
        order = np.asarray(order, dtype=np.int64)
        counts = np.diff(self.col_ptr)[order]
        col_ptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=col_ptr[1:])
        gather, _ = _span_gather(self.col_ptr, order)
        return SparseMatrix(
            self.n_rows, self.n_cols, col_ptr,
            self.row_idx[gather], self.values[gather], validate=False,
        )

    def permuted_symmetric(self, order):
        """Return B with B[i, j] = A[order[i], order[j]] for a permutation ``order``."""
        inv = _inverse_permutation(order, self.n_cols)
        cols = self._entry_columns()
        return SparseMatrix.from_coo(
            self.n_rows, self.n_cols, inv[self.row_idx], inv[cols], self.values
        )

    def scaled(self, row_scale, col_scale):
        """Return diag(row_scale) @ A @ diag(col_scale).

        Raises ``ValueError`` naming the first entry (0-based row and column
        of A) whose scaled value underflows to zero.
        """
        cols = self._entry_columns()
        vals = self.values * np.asarray(row_scale)[self.row_idx] * np.asarray(col_scale)[cols]
        zero = np.flatnonzero(vals == 0.0)
        if len(zero):
            e = zero[0]
            raise ValueError(f"entry (row {self.row_idx[e]}, column {cols[e]}) underflowed "
                             f"to zero when scaled")
        return SparseMatrix(self.n_rows, self.n_cols, self.col_ptr.copy(),
                            self.row_idx.copy(), vals)


class SparseVector:
    """A length-``n`` vector stored as sorted (index, value) pairs.

    The indices must lie in ``[0, n)`` and increase strictly, with one value
    per index.
    """

    __slots__ = ("n", "idx", "val")

    def __init__(self, n, idx, val):
        self.n = _require_integer("n", n, 0)
        self.idx = np.ascontiguousarray(_integer_array("indices", idx))
        self.val = np.ascontiguousarray(val, dtype=np.float64)
        if self.idx.ndim != 1 or self.val.shape != self.idx.shape:
            raise ValueError("indices and values must be 1-D arrays of one length")
        if np.any(np.diff(self.idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if len(self.idx) and (self.idx[0] < 0 or self.idx[-1] >= self.n):
            raise ValueError(f"indices must lie in 0..{self.n - 1}")

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
    indices in ``cols[j]``.  Every index set is nonempty and holds integers
    within ``[0, n)``.  Patterns meant to host an invertible factor must include
    the diagonal index ``j`` in column ``j``; that is the caller's duty and
    is validated by the consumers that rely on it.

    The index sets sit back to back in ``_set_keys`` with offsets ``_ptr``,
    each position once, as the key ``d * n + row`` of its set ``d``, and
    ``_which[j]`` names the set of column ``j``: each column of ``cols`` has
    its own set, and only :meth:`from_ranges` gives many columns one set.
    The keys ascend, so :meth:`lookup` is one ``searchsorted``, and a row is
    its key ``% n``.  Whole-pattern operations work on keys ``col * n + row``
    (see :meth:`keys`); a position of column ``j`` at ``_set_keys[i]`` is
    ``keys()[i + _key_shift[j]]``.
    """

    __slots__ = ("n", "_which", "_ptr", "_set_keys", "_key_shift", "_cols")

    def __init__(self, n, cols):
        n = _require_integer("pattern size n", n, 0)
        if len(cols) != n:
            raise ValueError("pattern needs one index set per column")
        arrs = [_integer_array(f"column {j}: pattern indices", c) for j, c in enumerate(cols)]
        # a set that is not one-dimensional is reported like an empty one; rows
        # clipped to -1 .. n keep their keys within int64 and out of range
        arrs = [np.unique(arr).clip(-1, n) + j * n if arr.ndim == 1 else np.empty(0, np.int64)
                for j, arr in enumerate(arrs)]
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(arr) for arr in arrs], out=ptr[1:])
        keys = np.concatenate(arrs) if arrs else np.empty(0, np.int64)
        self._set(n, np.arange(n, dtype=np.int64), ptr, keys)

    def _set(self, n, which, ptr, keys):
        """Check and store the sets, keys ``set * n + row`` strictly rising; return the pattern."""
        self.n = n
        lens = np.diff(ptr)
        bad = lens == 0
        # a set's first and last keys hold its smallest and largest rows
        full = np.flatnonzero(~bad)
        bad[full] = (keys[ptr[full]] < full * n) | (keys[ptr[full + 1] - 1] >= (full + 1) * n)
        if bad[which].any():
            j = int(np.argmax(bad[which]))
            if lens[which[j]] == 0:
                raise ValueError(f"column {j}: pattern column must be nonempty")
            raise ValueError(f"column {j}: pattern index out of range")
        self._which, self._ptr, self._set_keys, self._cols = which, ptr, keys, None
        counts = lens[which]
        self._key_shift = np.cumsum(counts) - counts - ptr[which]
        return self

    @property
    def cols(self):
        """Per-column index arrays; the columns of one range share one array."""
        if self._cols is None:
            ptr, rows = self._ptr.tolist(), self._set_keys % self.n
            views = [rows[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])]
            self._cols = [views[d] for d in self._which.tolist()]
        return self._cols

    @property
    def nnz(self):
        """Number of allowed positions over all columns."""
        return int(self.counts().sum())

    def counts(self):
        """Number of allowed positions of each column."""
        return np.diff(self._ptr)[self._which]

    def sums(self, weights):
        """Per column, the sum of ``weights[i]`` over its allowed indices ``i``."""
        return np.add.reduceat(weights[self._set_keys % self.n], self._ptr[:-1])[self._which]

    @classmethod
    def from_keys(cls, n, keys):
        """Pattern allowing exactly the sorted unique keys ``col * n + row``."""
        n = int(n)
        keys = np.array(keys, dtype=np.int64)  # a copy: the pattern keeps no view of its input
        bad = np.flatnonzero(np.diff(keys) <= 0)
        if len(bad):
            raise ValueError(f"column {keys[bad[0] + 1] // n}: pattern keys must strictly increase")
        return cls.__new__(cls)._set(n, np.arange(n, dtype=np.int64), _col_ptr(keys // n, n), keys)

    @classmethod
    def from_ranges(cls, n, which, lo, hi):
        """Pattern whose column ``j`` allows ``lo[d] .. hi[d] - 1``, ``d = which[j]``.

        Each range is stored once, however many columns name it.
        """
        n, lens = int(n), hi - lo
        ptr = np.concatenate([[0], np.cumsum(lens)])
        keys = np.arange(ptr[-1], dtype=np.int64)
        keys += np.repeat(np.arange(len(lens)) * n + lo - ptr[:-1], lens)
        return cls.__new__(cls)._set(n, which, ptr, keys)

    @classmethod
    def from_keys_or_diagonal(cls, n, keys):
        """Like :meth:`from_keys`; a column without keys allows its diagonal."""
        empty = np.flatnonzero(np.bincount(keys // n, minlength=n) == 0)
        return cls.from_keys(n, _insert_keys(keys, empty * (n + 1)))

    @classmethod
    def diagonal(cls, n):
        return cls.from_keys(n, np.arange(n, dtype=np.int64) * (n + 1))

    @classmethod
    def from_matrix(cls, a):
        if a.n_rows != a.n_cols:
            raise ValueError("pattern requires a square matrix")
        return cls.from_keys(a.n_cols, a.entry_keys())

    def keys(self):
        """Sorted keys ``col * n + row`` of every allowed position."""
        pos, col = _span_gather(self._ptr, self._which)
        return col * self.n + self._set_keys[pos] % self.n

    def gather(self, cols):
        """The allowed positions of the columns ``cols``, column after column.

        Returns ``(pos, owner, rows)``: each position's index among
        :meth:`keys`, the index into ``cols`` of its column, and its row.
        """
        cols = np.asarray(cols, dtype=np.int64)
        at, owner = _span_gather(self._ptr, self._which[cols])
        return at + self._key_shift[cols][owner], owner, self._set_keys[at] % self.n

    def lookup(self, keys):
        """Where the keys ``col * n + row`` sit among :meth:`keys`.

        Returns ``(pos, found)`` as :func:`sorted_lookup` does: each key's
        index among :meth:`keys`, meaningful only where ``found``.
        """
        keys = np.asarray(keys, dtype=np.int64)
        cols = keys // self.n
        at, found = sorted_lookup(self._set_keys, self._which[cols] * self.n + keys - cols * self.n)
        return at + self._key_shift[cols], found

    def contains(self, keys):
        """Whether each key ``col * n + row`` names an allowed position."""
        return self.lookup(keys)[1]

    def missing_diagonal(self):
        """The columns ``j`` that do not allow index ``j``, ascending."""
        return np.flatnonzero(~self.contains(np.arange(self.n, dtype=np.int64) * (self.n + 1)))

    def with_diagonal(self):
        """Return a pattern whose column ``j`` always contains index ``j``."""
        missing = self.missing_diagonal()
        if not len(missing):
            return self
        return SubspacePattern.from_keys(self.n, _insert_keys(self.keys(), missing * (self.n + 1)))

    def intersected(self, other):
        """Columnwise intersection; empty columns fall back to the diagonal."""
        if other.n != self.n:
            raise ValueError("pattern dimension mismatch")
        small, large = (self, other) if self.nnz <= other.nnz else (other, self)
        keys = small.keys()
        return SubspacePattern.from_keys_or_diagonal(self.n, keys[large.contains(keys)])

    def __eq__(self, other):
        if not isinstance(other, SubspacePattern):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.keys(), other.keys())


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
    ``symmetric`` symmetry.  A symmetric file lists the lower triangle, which
    is expanded to full; duplicate entries are summed, explicit zeros dropped.
    A size line that declares more columns than the file has entries (after
    the expansion) is rejected before anything of that length is allocated.
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
        size_lineno = lineno
        try:
            n_rows, n_cols, nnz = (int(t) for t in _fields(size_line))
        except ValueError:
            raise MatrixMarketError(f"{path}:{lineno}: malformed size line") from None
        if min(n_rows, n_cols, nnz) < 0:
            raise MatrixMarketError(f"{path}:{lineno}: negative count in size line")
        if max(n_rows * n_cols, nnz) > np.iinfo(np.int64).max:
            raise MatrixMarketError(f"{path}:{lineno}: size line '{size_line}' is beyond "
                                    f"the int64 index range")
        if min(n_rows, n_cols) == 0:
            raise MatrixMarketError(f"{path}:{lineno}: the matrix is empty ({n_rows} x {n_cols})")
        if symmetry == "symmetric" and n_rows != n_cols:
            raise MatrixMarketError(f"{path}:{lineno}: symmetric but not square ({n_rows} x {n_cols})")

        # the declared count is checked at the end, never trusted for an
        # allocation
        rows, cols, vals = [], [], []
        value = int if field == "integer" else float
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            try:
                ti, tj, tv = _fields(s)
                i, j, v = int(ti), int(tj), float(value(tv))
            except (ValueError, OverflowError):
                raise MatrixMarketError(f"{path}:{lineno}: malformed entry: expected row, "
                                        f"column and {field} value") from None
            if not math.isfinite(v):
                raise MatrixMarketError(f"{path}:{lineno}: non-finite entry")
            if len(rows) >= nnz:
                raise MatrixMarketError(f"{path}:{lineno}: more entries than declared")
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise MatrixMarketError(f"{path}:{lineno}: index out of range")
            if symmetry == "symmetric" and i < j:
                raise MatrixMarketError(f"{path}:{lineno}: entry above the diagonal (symmetric)")
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
        if len(rows) != nnz:
            raise MatrixMarketError(f"{path}: declared {nnz} entries, found {len(rows)}")
    rows, cols, vals = np.array(rows, np.int64), np.array(cols, np.int64), np.array(vals)

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    # nothing of length n_cols is made before this: a size line that declares
    # more columns than there are entries cannot make the reader allocate them
    if n_cols > len(rows):
        raise MatrixMarketError(f"{path}:{size_lineno}: size line '{size_line}' declares "
                                f"{n_cols} columns over {len(rows)} entries, so a column is empty")
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


def _fields(line):
    """``line.split()``, refusing ``_``, which ``int`` and ``float`` accept between digits."""
    if "_" in line:
        raise ValueError("underscore in a number")
    return line.split()


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
    cols = _integer_array("columns", cols)
    if len(cols) == 0:
        raise ValueError("at least one column must be selected")
    if (cols[1:] <= cols[:-1]).any():
        raise ValueError("columns must be sorted and unique")
    if cols[0] < 0 or cols[-1] >= a.n_cols:
        raise ValueError("column index out of range")
    owner, at, rows, vals = _set_entries(a, cols, np.array([0, len(cols)]))
    _, active, local = _set_rows(a.n_rows, 1, owner, rows)
    block = np.zeros((len(active), len(cols)))
    block[local, at] = vals
    return ColumnSubmatrix(a.n_rows, cols, active, block)


# A chunk of a factor sweep gathers about this many entries (of A and of
# the V positions on its blocks' rows).  :func:`column_chunks` visits the
# columns in width order (:func:`width_order`), so a larger chunk makes
# fewer stacked passes, but it holds more: one dense buffer (its blocks,
# or the Q_j written over them) and sum(k_j^2) values of R.  Sized by
# alternating benchmark runs on a 2-core x86_64 machine: against 2^12,
# 2^14 made cd2d-q-diag about 6% faster with every peak RSS flat; 2^13
# gained less, and 2^15 no more while it raised cd2d-q-diag's peak RSS by
# 7%.  The V selection takes chunks of at least this size, and decides
# what to factor in runs of ``patterns._SELECT_ENTRIES`` entries.
_SWEEP_ENTRIES = 1 << 14


class ColumnChunk:
    """The blocks A_j of a run of columns j, gathered in one index pass.

    Column ``c`` of the chunk is matrix column ``cols[c]``.  Its block takes
    the matrix columns ``sets[set_ptr[c]:set_ptr[c + 1]]`` (``k[c]`` of
    them; ``slots`` holds their positions among the W pattern's
    :meth:`SubspacePattern.keys`) on its ``m[c]`` active rows
    ``active[row_ptr[c]:row_ptr[c + 1]]``, ascending.  The block's entries
    are ``val`` at flat active row ``entry_row`` and flat set position
    ``entry_set``.

    The chunk holds the V pattern's positions that a column problem sees:
    those on the column's active rows, and its diagonal when the pattern
    has it.  They come column after column, ascending: ``v_pos`` among the
    pattern's keys, chunk column ``v_col`` and row ``v_rows``; ``v_at``
    indexes ``active`` where ``v_seen``, which is true exactly at an
    active row.

    ``offset`` holds each column's first entry among those of the whole
    sweep, as :func:`column_chunks` counts them, so a caller can cut the
    sweep's columns into runs that do not follow the chunks.

    ``blocks`` holds the dense blocks, zero-padded to ``max(m, k) x k`` and
    built when first read; :meth:`visible_q` writes the columns' Q_j over
    them and hands the buffer on.
    """

    __slots__ = ("cols", "offset", "k", "m", "sets", "set_ptr", "slots", "active", "row_ptr",
                 "entry_row", "entry_set", "val", "v_pos", "v_col", "v_rows", "v_at", "v_seen",
                 "_blocks", "_val_at", "_pad", "_by_shape", "_off")

    def __init__(self, a, w_pattern, v_pattern, cols, outside_v, offset):
        n = a.n_rows
        self.cols, self.offset = cols, offset
        self.slots, owner, self.sets = w_pattern.gather(cols)
        self.set_ptr = _col_ptr(owner, len(cols))
        col, at, rows, self.val = _set_entries(a, self.sets, self.set_ptr)
        if outside_v:
            keep = ~v_pattern.contains(cols[col] * n + rows)
            col, at, rows, self.val = col[keep], at[keep], rows[keep], self.val[keep]
        self.row_ptr, self.active, local = _set_rows(n, len(cols), col, rows)
        self.entry_row, self.entry_set = self.row_ptr[col] + local, self.set_ptr[col] + at
        self.k, self.m = np.diff(self.set_ptr), np.diff(self.row_ptr)
        # the active rows and the diagonal of each column, as keys c * n + row
        c = np.arange(len(cols), dtype=np.int64)
        seen, diag = c.repeat(self.m) * n + self.active, c * n + cols
        keys = _insert_keys(seen, diag[~sorted_lookup(seen, diag)[1]])
        key_col = keys // n
        pos, found = v_pattern.lookup(keys + (cols[key_col] - key_col) * n)
        self.v_pos, self.v_col, keys = pos[found], key_col[found], keys[found]
        self.v_rows = keys - self.v_col * n
        self.v_at, self.v_seen = sorted_lookup(seen, keys)

        # the dense blocks, padded to at least k rows, back to back in one
        # flat array and ordered by shape, so blocks of one shape are a slice;
        # they are filled when first read, since a chunk in which the V
        # selection factors nothing reads none
        self._pad = np.maximum(self.m, self.k)
        size = self._pad * self.k
        order = self._by_shape = np.lexsort((self.k, self._pad))
        self._off = np.empty(len(cols), dtype=np.int64)
        self._off[order] = np.cumsum(size[order]) - size[order]
        self._blocks, self._val_at = None, self._off[col] + local * self.k[col] + at

    @property
    def blocks(self):
        """The dense blocks, zero-padded to ``max(m, k) x k``, in one flat array."""
        if self._blocks is None:
            self._blocks = np.zeros(int((self._pad * self.k).sum()))
            self._blocks[self._val_at] = self.val
        return self._blocks

    def shape_groups(self):
        """Chunk columns sharing one padded block shape, with their blocks stacked.

        A group is one stacked QR.  Its R factors are ``k x k`` whatever the
        padding, so diaf-s runs the later passes once per width, over
        every group of that width.
        """
        order = self._by_shape
        shape = self._pad[order] * (self.k.max() + 1) + self.k[order]
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(shape)) + 1, [len(order)]])
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            sel = order[lo:hi]
            rows, k, off = int(self._pad[sel[0]]), int(self.k[sel[0]]), int(self._off[sel[0]])
            yield sel, self.blocks[off:off + len(sel) * rows * k].reshape(len(sel), rows, k)

    def visible_q(self, qr, factor=None):
        """Factor each column's block by one call of ``qr``, column after column.

        ``qr`` maps a dense block to factors with ``q_thin``, ``r`` and
        ``rank``, and keeps no view of the block it is given.  With a mask
        ``factor`` over the chunk's columns, only the masked columns are
        factored: an unmasked column's block stays as it is, its R_j is
        zero and its rank 0.  Returns ``(q, start, r, r_at, rank)``.  ``q``
        is the buffer of :attr:`blocks` with each factored column's
        ``max(m, k) x k`` Q_j written over its block A_j; the chunk lets go
        of it, so reading :attr:`blocks` again builds the blocks anew.  The
        row of Q_j at V position ``e`` starts at ``start[e]``, which is
        meaningful only where ``v_seen`` is true.  Column ``c``'s R_j is the
        ``k[c]^2`` values from ``r[r_at[c]]`` on, row after row, and
        ``rank`` holds each column's rank.
        """
        q, self._blocks = self.blocks, None
        size = self.k * self.k
        r_at = np.cumsum(size) - size
        r, rank = np.zeros(int(size.sum())), np.zeros(len(self.cols), np.int64)
        cs = np.arange(len(self.cols)) if factor is None else np.flatnonzero(factor)
        spans = zip(cs.tolist(), self._off[cs].tolist(), self._pad[cs].tolist(),
                    self.k[cs].tolist(), r_at[cs].tolist())
        for c, o, rows, kk, at in spans:
            f = qr(q[o:o + rows * kk].reshape(rows, kk))
            q[o:o + rows * kk] = f.q_thin.ravel()
            r[at:at + kk * kk] = f.r.ravel()
            rank[c] = f.rank
        col = self.v_col
        start = self._off[col] + (self.v_at - self.row_ptr[col]) * self.k[col]
        return q, start, r, r_at, rank


def column_chunks(a, w_pattern, v_pattern, columns, outside_v=False, entries=None):
    """The blocks A_j of ``columns`` as :class:`ColumnChunk` runs, in width order.

    A_j holds the columns ``w_pattern.cols[j]`` of ``a`` on their nonzero
    rows; with ``outside_v`` the rows in ``v_pattern.cols[j]`` are left
    out.  The columns are visited in :func:`width_order`, so a chunk holds
    few block widths and its stacked passes run on few shapes; callers
    pass ``columns`` in any order.  A chunk holds about ``entries`` entries
    (``_SWEEP_ENTRIES`` when None) of ``a`` and of ``v_pattern``, counting
    for a column at most one V position per entry of A_j plus the
    diagonal, so its index arrays do not grow with the V pattern; a
    chunk's :attr:`ColumnChunk.offset` places its columns in that count
    over the whole sweep.  Its dense blocks are not bounded by that count:
    a column's padded ``max(m, k) x k`` block can hold many more values
    than A_j has entries.  A column's block does not depend on its chunk.
    """
    columns = width_order(w_pattern, columns)
    size = w_pattern.sums(np.diff(a.col_ptr))[columns]
    size += np.minimum(v_pattern.counts()[columns], size + 1)
    offset = np.cumsum(size) - size
    chunk = offset // (_SWEEP_ENTRIES if entries is None else entries)
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(chunk)) + 1, [len(columns)]])
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        if lo < hi:
            yield ColumnChunk(a, w_pattern, v_pattern, columns[lo:hi], outside_v, offset[lo:hi])


def width_order(w_pattern, columns):
    """``columns`` sorted by their number of W positions, equal ones in order."""
    columns = np.asarray(columns, dtype=np.int64)
    return columns[np.argsort(w_pattern.counts()[columns], kind="stable")]


def pattern_subtract_offdiag(w_pattern, v0_pattern):
    """Remove the off-diagonal part of ``v0_pattern`` from ``w_pattern``.

    Column ``j`` of the result is ``w.cols[j]`` minus ``v0.cols[j] \\ {j}``;
    a diagonal index present in ``w`` is always retained.
    """
    if w_pattern.n != v0_pattern.n:
        raise ValueError("pattern dimension mismatch")
    keys = w_pattern.keys()
    cols = keys // w_pattern.n
    keep = ~v0_pattern.contains(keys) | (keys - cols * w_pattern.n == cols)
    return SubspacePattern.from_keys(w_pattern.n, keys[keep])


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


def _require_integer(name, value, low):
    """``value`` as an ``int``; ``ValueError`` unless it is an integer (numpy's
    too) of at least ``low``."""
    if not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}")
    return int(value)


def _require_square(a, *patterns):
    """The size n of the square matrix ``a``; ``ValueError`` unless each pattern has it."""
    n = a.n_cols
    if a.n_rows != n or any(p.n != n for p in patterns):
        noun = "patterns" if len(patterns) > 1 else "pattern"
        raise ValueError(f"square matrix and matching {noun} required")
    return n


def _require_shape(n_rows, n_cols):
    """``(n_rows, n_cols)`` as ints; ``ValueError`` unless both are integers
    >= 0 whose keys ``col * n_rows + row`` fit in int64."""
    n_rows, n_cols = _require_integer("n_rows", n_rows, 0), _require_integer("n_cols", n_cols, 0)
    if n_rows * n_cols > np.iinfo(np.int64).max:
        raise ValueError("n_rows * n_cols is beyond the int64 key range")
    return n_rows, n_cols


def _integer_array(name, values):
    """``values`` as an int64 array; ``ValueError`` unless its entries are
    integers (numpy's too).  An empty sequence passes."""
    values = np.asarray(values)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise ValueError(f"{name} must be integers")
    return values.astype(np.int64, copy=False)


def _inverse_permutation(order, n):
    """The inverse of ``order``; ``ValueError`` unless it holds the integers 0..n-1 once each."""
    order = _integer_array("permutation entries", order)
    if order.shape != (n,) or np.any(np.sort(order) != np.arange(n)):
        raise ValueError("not a bijection on {0..n-1}")
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)
    return inv


def spmv(a, x):
    """Dense matrix-vector product ``a @ x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n_cols,):
        raise ValueError("dimension mismatch")
    if a.nnz == 0:
        return np.zeros(a.n_rows)
    contrib = a.values * x[a._entry_columns()]
    return np.bincount(a.row_idx, weights=contrib, minlength=a.n_rows)


def _col_ptr(cols, n_cols):
    """CSC column offsets of entries whose sorted column indices are ``cols``."""
    col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=col_ptr[1:])
    return col_ptr


def _span_gather(col_ptr, cols):
    """Entry positions of the columns ``cols`` of a CSC array, in order.

    Returns ``(pos, owner)``: the positions of the columns' entries, column
    after column and in storage order within each, and for every position
    the index into ``cols`` of the column it belongs to.
    """
    cols = np.asarray(cols, dtype=np.int64)
    starts = col_ptr[cols]
    counts = col_ptr[cols + 1] - starts
    # ndarray methods: this runs once per chunk of a sweep and per pattern
    # operation, where the dispatch of the np.* wrappers is a noticeable
    # share of the cost
    owner = np.arange(len(cols), dtype=np.int64).repeat(counts)
    shift = (starts + counts - counts.cumsum()).repeat(counts)
    return np.arange(len(owner), dtype=np.int64) + shift, owner


def _set_entries(a, sets, ptr):
    """Entries of the column sets ``sets[ptr[i]:ptr[i + 1]]`` of ``a``, set after set.

    Returns ``(owner, at, rows, vals)``: per entry the index of its set, the
    position of its column within the set, its row and its value.
    """
    pos, flat = _span_gather(a.col_ptr, sets)
    owner = np.arange(len(ptr) - 1, dtype=np.int64).repeat(np.diff(ptr))[flat]
    return owner, flat - ptr[owner], a.row_idx[pos], a.values[pos]


def _set_rows(n_rows, n_sets, owner, rows):
    """The distinct rows of each set and each entry's position among them.

    Returns ``(row_ptr, active, local)``: the sets' distinct rows, ascending
    and set after set, with their offsets, and for every entry the index of
    its row among its set's rows.
    """
    keys, inverse = np.unique(owner * n_rows + rows, return_inverse=True)
    key_set = keys // n_rows
    row_ptr = _col_ptr(key_set, n_sets)
    return row_ptr, keys - key_set * n_rows, inverse - row_ptr[owner]


def _insert_keys(keys, new):
    """Sorted ``keys`` with the sorted ``new`` keys, absent from it, merged in."""
    return np.insert(keys, np.searchsorted(keys, new), new)


def gather_columns(a, idx, val):
    """Sparse product ``a @ x`` for sparse ``x`` given as (idx, val).

    Returns sorted (idx, val) with exact zeros removed.
    """
    pos, owner = _span_gather(a.col_ptr, idx)
    return merge_sum(a.row_idx[pos], a.values[pos] * np.asarray(val, dtype=np.float64)[owner])


def sparse_product(a, b):
    """Sparse product ``a @ b`` with exact zeros removed.

    Column ``j`` is summed exactly as ``gather_columns(a, *b.column(j))``
    sums it: over the entries of ``b``'s column in row order and, for
    each, over the matching column of ``a``, with one keyed merge for the
    whole matrix.
    """
    if a.n_cols != b.n_rows:
        raise ValueError("dimension mismatch")
    pos, owner = _span_gather(a.col_ptr, b.row_idx)
    keys = b._entry_columns()[owner] * a.n_rows + a.row_idx[pos]
    keys, vals = merge_sum(keys, a.values[pos] * b.values[owner])
    return SparseMatrix.from_keys(a.n_rows, b.n_cols, keys, vals)


def merge_sum(idx, val):
    """Sum duplicate indices of an unsorted sparse vector; drop exact zeros.

    Duplicates are summed in input order, so with keys ``col * n + row`` for
    ``idx`` this is the keyed merge of whole sparse matrices.
    """
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
