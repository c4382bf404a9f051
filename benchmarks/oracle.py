"""Capturing a run's intermediate results and checking them independently.

:class:`Capture` wraps the collaborators that ``diafact.bench`` binds
(reader, preprocessing, factorization, V factorization, solver) from the
outside, records what they return without changing it, and converts the
program's objects to plain arrays.  :func:`check_call` then verifies those
results with this module's own numpy code against the generator's copy of
``A``; nothing is compared with a stored copy of an earlier output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from matgen import Coo

# relative agreement required between independently computed norms
NRM_RTOL = 1e-10
# columns whose residual is compared with a dense numpy oracle
ORACLE_SAMPLE = 24
# results the checks need from every call
CAPTURED = ("col_perm", "row_scale", "col_scale", "sym_perm", "block_bounds", "a3", "w", "v", "y")


def coo_from_csc(m):
    """Plain coordinate copy of a CSC matrix given by its public arrays."""
    cols = np.repeat(np.arange(m.n_cols, dtype=np.int64), np.diff(m.col_ptr))
    return Coo(m.n_cols, np.array(m.row_idx), cols, np.array(m.values))


@dataclass
class Outputs:
    """What one ``run_experiment`` call produced, as plain arrays."""

    col_perm: np.ndarray = None  # transversal gather order
    row_scale: np.ndarray = None
    col_scale: np.ndarray = None
    sym_perm: np.ndarray = None  # block ordering gather order
    block_bounds: np.ndarray = None
    a3: Coo = None  # the matrix the factorization saw
    w_pattern: list = None
    v_pattern: list = None
    w: Coo = None
    v: Coo = None
    column_residuals: np.ndarray = None
    nrm: float = float("nan")
    flagged: dict = field(default_factory=dict)
    stab_count: int = 0
    y: np.ndarray = None  # solution in solver coordinates
    iterations: int = -1
    status: str = ""
    true_relative_residual: float = float("nan")
    setup_end: float = float("nan")  # perf_counter when factor_v returned


class Capture:
    """Wraps ``bench``'s collaborators to record their results per call."""

    def __init__(self, bench):
        self.bench = bench
        self.out = Outputs()
        self._saved = {}

    def _wrap(self, name, record):
        fn = getattr(self.bench, name, None)
        if fn is None:  # no longer bound by bench: its checks fail instead
            return
        self._saved[name] = fn

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(self.out, result, *args)
            return result

        setattr(self.bench, name, wrapper)

    def __enter__(self):
        self._wrap("max_transversal", _record_transversal)
        self._wrap("equilibrate", _record_scaling)
        self._wrap("scc_block_structure", _record_blocks)
        self._wrap("diaf_q", _record_factors)
        self._wrap("diaf_s", _record_factors)
        self._wrap("factor_v", _record_factor_v)
        self._wrap("bicgstab", _record_solve)
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(self.bench, name, fn)
        self._saved.clear()


def _record_transversal(out, q, *_):
    out.col_perm = np.array(q.forward)


def _record_scaling(out, sc, *_):
    out.row_scale = np.array(sc.row_scale)
    out.col_scale = np.array(sc.col_scale)


def _record_blocks(out, result, *_):
    p, blocks = result
    out.sym_perm = np.array(p.forward)
    out.block_bounds = np.array(blocks.block_bounds)


def _record_factors(out, pair, a3, w_pattern, v_pattern, *_):
    out.a3 = coo_from_csc(a3)
    out.w_pattern = [np.array(c) for c in w_pattern.cols]
    out.v_pattern = [np.array(c) for c in v_pattern.cols]
    out.w = coo_from_csc(pair.w)
    out.v = coo_from_csc(pair.v)
    out.column_residuals = np.array(pair.column_residuals)
    out.nrm = float(pair.nrm)
    out.flagged = dict(pair.flagged_columns)
    out.stab_count = int(pair.stab_count)


def _record_factor_v(out, *_):
    out.setup_end = time.perf_counter()


def _record_solve(out, result, *_):
    y, report = result
    out.y = np.array(y)
    out.iterations = int(report.iterations)
    out.status = str(report.status)
    out.true_relative_residual = float(report.true_relative_residual)


# -- independent checks -------------------------------------------------------


def _inverse(perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def _is_permutation(perm, n):
    return perm is not None and len(perm) == n and np.array_equal(np.sort(perm), np.arange(n))


def preprocessed(a, out):
    """``P R A Q C P^T`` from the captured permutations and scales."""
    q_inv = _inverse(out.col_perm)
    p_inv = _inverse(out.sym_perm)
    k = q_inv[a.cols]
    vals = a.vals * out.row_scale[a.rows] * out.col_scale[k]
    return Coo.build(a.n, p_inv[a.rows], p_inv[k], vals)


def original_solution(out):
    """Map the solver's ``y`` back to the original unknowns."""
    z = np.empty_like(out.y)
    z[out.sym_perm] = out.y
    z *= out.col_scale
    x = np.empty_like(z)
    x[out.col_perm] = z
    return x


def column_residuals(a, w, v):
    """``||A w_j - v_j||`` per column, expanding every entry of W over a column of A."""
    n = a.n
    order = np.argsort(a.cols, kind="stable")
    a_rows, a_vals = a.rows[order], a.vals[order]
    a_ptr = np.concatenate([[0], np.cumsum(np.bincount(a.cols, minlength=n))])
    counts = a_ptr[w.rows + 1] - a_ptr[w.rows]
    entry = np.repeat(np.arange(w.nnz), counts)
    offset = np.arange(len(entry)) - np.repeat(np.cumsum(counts) - counts, counts)
    src = a_ptr[w.rows][entry] + offset
    keys = np.concatenate([w.cols[entry] * n + a_rows[src], v.cols * n + v.rows])
    vals = np.concatenate([a_vals[src] * w.vals[entry], -v.vals])
    uniq, inv = np.unique(keys, return_inverse=True)
    d = np.bincount(inv, weights=vals)
    return np.sqrt(np.bincount(uniq // n, weights=d * d, minlength=n))


def _inside(m, pattern):
    """Whether every entry of ``m`` lies in the per-column ``pattern``."""
    n = m.n
    lens = np.array([len(c) for c in pattern])
    keys = np.repeat(np.arange(n), lens) * n + np.concatenate(pattern)
    return bool(np.isin(m.cols * n + m.rows, keys).all())


def _column_block(a3, cols):
    """Dense ``A_j``: columns ``cols`` of ``a3`` on their nonzero rows."""
    sel = np.isin(a3.cols, cols)
    active = np.unique(a3.rows[sel])
    block = np.zeros((len(active), len(cols)))
    block[np.searchsorted(active, a3.rows[sel]), np.searchsorted(cols, a3.cols[sel])] = a3.vals[sel]
    return active, block


def column_oracle_errors(out, method):
    """Largest disagreement between sampled column residuals and numpy.

    diaf-q: a unit v_j on the admissible rows S leaves the residual
    ``||(I - Q_j Q_j^T) v_j||``, least at ``sigma_min((I - Q_j Q_j^T)[:, S])``
    (the same as ``sqrt(1 - sigma_max(Q_j[S])**2)``, but without its
    cancellation for small residuals).  diaf-s: it is ``sigma_min`` of
    ``A_j`` without the admissible rows.  Flagged columns are skipped;
    stabilization is off in every workload.
    """
    n = out.a3.n
    worst = 0.0
    for j in np.unique(np.linspace(0, n - 1, ORACLE_SAMPLE).astype(np.int64)):
        if int(j) in out.flagged:
            continue
        vcols = out.v_pattern[j]
        active, block = _column_block(out.a3, out.w_pattern[j])
        if block.shape[0] < block.shape[1]:
            continue
        if method == "diaf-q":
            rows = np.union1d(active, vcols)
            q = np.zeros((len(rows), block.shape[1]))
            q[np.searchsorted(rows, active)] = np.linalg.qr(block)[0]
            at_s = np.searchsorted(rows, vcols)
            m = -q @ q[at_s].T
            m[at_s, np.arange(len(vcols))] += 1.0
            expected = np.linalg.svd(m, compute_uv=False)[-1]
            scale = 1.0
        else:
            a_hat = block[~np.isin(active, vcols)]
            if a_hat.shape[0] < a_hat.shape[1]:
                continue
            expected = np.linalg.svd(a_hat, compute_uv=False)[-1]
            scale = max(1.0, np.linalg.norm(block))
        worst = max(worst, abs(out.column_residuals[j] - expected) / scale)
    return float(worst)


def _block_shape_ok(v, bounds, shape):
    block = np.searchsorted(bounds, np.arange(v.n), side="right") - 1
    lo, hi = bounds[block[v.cols]], bounds[block[v.cols] + 1]
    if shape == "block-diag":
        return bool(np.all((v.rows >= lo) & (v.rows < hi)))
    return bool(np.all(v.rows < hi))


def rho_bounds(out, nnz_a):
    """Bounds on the reported density from the pattern sizes.

    The program counts the unit diagonal of L, so a full diagonal block of
    size b holds at most ``b**2 + b`` LU nonzeros.
    """
    sizes = np.diff(out.block_bounds)
    block = np.searchsorted(out.block_bounds, np.arange(out.v.n), side="right") - 1
    off_block = int(np.count_nonzero(out.v.rows < out.block_bounds[block[out.v.cols]]))
    lower = out.w.nnz / nnz_a
    upper = (out.w.nnz + int(np.sum(sizes * sizes + sizes)) + off_block) / nnz_a
    return lower, upper


def check_call(a, row, out, cfg):
    """Independent checks of one call; returns ``(failures, measures)``.

    ``measures`` holds the true relative residual and forward error in
    original coordinates; the forward error is checked later against
    ``kappa(A)`` by :func:`forward_error_ok`.
    """
    fails = []
    if row.status != "converged" or out.status != "converged":
        fails.append(f"status {row.status} ({row.error_stage}: {row.error_message})")
        return fails, {}
    missing = [f for f in CAPTURED if getattr(out, f) is None]
    if missing:
        fails.append(f"not captured: {', '.join(missing)}")
        return fails, {}
    n = a.n
    if not all(_is_permutation(p, n) for p in (out.col_perm, out.sym_perm)):
        fails.append("preprocessing permutations are not bijections")
        return fails, {}

    mine = preprocessed(a, out)
    same = (
        mine.nnz == out.a3.nnz
        and np.array_equal(mine.rows, out.a3.rows)
        and np.array_equal(mine.cols, out.a3.cols)
        and np.allclose(mine.vals, out.a3.vals, rtol=1e-14, atol=0.0)
    )
    if not same:
        fails.append("factored matrix differs from P R A Q C P^T")

    ones = np.ones(n)
    b = a.matvec(ones)
    x = original_solution(out)
    true_res = float(np.linalg.norm(b - a.matvec(x)) / np.linalg.norm(b))
    fwd = float(np.linalg.norm(x - ones) / np.sqrt(n))
    if not true_res <= 10.0 * cfg.tol:
        fails.append(f"true relative residual {true_res:.3e} > 10 tol")
    if row.its != out.iterations:
        fails.append("reported iterations differ from the solver's")

    per_column = column_residuals(mine, out.w, out.v)
    nrm = float(np.sqrt(np.dot(per_column, per_column)))
    from_columns = float(np.sqrt(np.dot(out.column_residuals, out.column_residuals)))
    for label, value in (("reported nrm", row.nrm), ("column residuals", from_columns)):
        if not abs(value - nrm) <= NRM_RTOL * nrm:
            fails.append(f"{label} {value!r} disagrees with ||AW - V||_F {nrm!r}")
    off = np.abs(per_column - out.column_residuals) - NRM_RTOL * (1.0 + per_column)
    if np.any(off > 0):
        j = int(np.argmax(off))
        fails.append(f"column {j}: ||A w_j - v_j|| {per_column[j]!r} but reported {out.column_residuals[j]!r}")

    if not _inside(out.w, out.w_pattern):
        fails.append("W has entries outside its pattern")
    if not _inside(out.v, out.v_pattern):
        fails.append("V has entries outside its pattern")
    if not _block_shape_ok(out.v, out.block_bounds, cfg.v_shape):
        fails.append(f"V has entries outside the {cfg.v_shape} shape")

    oracle = column_oracle_errors(out, cfg.method)
    if not oracle <= 1e-9:
        fails.append(f"column residual differs from the numpy oracle by {oracle:.3e}")

    lo, hi = rho_bounds(out, a.nnz)
    if not lo <= row.rho <= hi:
        fails.append(f"rho {row.rho} outside [{lo}, {hi}]")
    return fails, {"true_relative_residual": true_res, "forward_error": fwd}


def forward_error_ok(measures, kappa_a):
    """Forward error within ``kappa(A)`` times the relative residual."""
    eps = np.finfo(float).eps
    bound = kappa_a * (measures["true_relative_residual"] + 4 * eps)
    return measures["forward_error"] <= bound * (1 + 1e-8)
