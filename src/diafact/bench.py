"""End-to-end experiment driver: ingest, preprocess, factor, solve, report.

The pipeline mirrors the benchmark protocol: permute to a zero-free
diagonal, equilibrate, order strongly connected components into capped
diagonal blocks, construct the W pattern from sparsified powers, pick the V
pattern inside the chosen block shape, factor with one of the two direct
algorithms, and run right-preconditioned BiCGSTAB on a right-hand side
whose solution in the original coordinates is the ones vector.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .factor import StabilizationPolicy, diaf_q, diaf_s
from .krylov import apply_right_precond, bicgstab, cond_estimate, factor_v
from .patterns import DropRule, NeumannConfig, neumann_pattern, select_v_pattern
from .preprocess import block_pattern, equilibrate, max_transversal, scc_block_structure
from .sparse import SubspacePattern, read_matrix_market, spmv

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "run_experiment",
    "emit_report",
    "preconditioner_density",
]

V_SHAPES = {"block-diag": "block-diagonal", "block-upper": "block-upper-triangular"}
METHODS = ("diaf-q", "diaf-s")


@dataclass
class ExperimentConfig:
    """All knobs of one benchmark run; defaults follow the benchmark setup."""

    matrix: str
    method: str = "diaf-q"
    v_shape: str = "block-diag"
    max_block: int = 50
    k_v: int = 0  # 0: keep the structure of A inside the block shape
    neumann_k: int = 3
    tau_i: float = 0.1
    p_i: int = 0
    tau_l: float = 0.0
    p_l: int = 0
    stab_threshold: float = 0.0  # 0 disables stabilization
    stab_r: float = 2.0
    tol: float = 1e-8
    maxit: int = 1000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.v_shape not in V_SHAPES:
            raise ValueError(f"v_shape must be one of {tuple(V_SHAPES)}")
        if self.max_block < 1 or self.k_v < 0 or self.neumann_k < 0:
            raise ValueError("max_block, k_v and neumann_k must be nonnegative (max_block >= 1)")
        for name in ("tau_i", "tau_l"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.p_i < 0 or self.p_l < 0:
            raise ValueError("drop counts must be nonnegative")
        if self.stab_threshold < 0 or self.stab_r <= 0:
            raise ValueError("stab_threshold must be >= 0 and stab_r > 0")
        if self.tol <= 0 or self.maxit < 1:
            raise ValueError("tol must be positive and maxit >= 1")


@dataclass
class ResultRow:
    """One line of the benchmark report."""

    problem: str
    n: int = 0
    nnz: int = 0
    max_block: int = 0
    n_blocks: int = 0
    rho: float = float("nan")
    kappa_v: float = float("nan")
    nrm: float = float("nan")
    its: int = -1
    status: str = "error"
    true_relative_residual: float = float("nan")
    residual_gap: bool = False
    stab_count: int = 0
    flagged_columns: int = 0
    column_residual_max: float = float("nan")
    column_residual_p99: float = float("nan")
    min_abs_v_diag: float = float("nan")
    solution_error: float = float("nan")
    timings: dict = field(default_factory=dict)
    error_stage: str = ""
    error_message: str = ""
    config: dict = field(default_factory=dict)


def preconditioner_density(w, vf, nnz_a):
    """Fill of the preconditioner relative to A: (nz(W)+nz(L_V)+nz(U_V))/nz(A)."""
    nz_l, nz_u = vf.lu_nonzeros()
    return (w.nnz + nz_l + nz_u) / nnz_a


class _Stage:
    """Times named pipeline stages, failed ones too, and remembers where one failed."""

    def __init__(self):
        self.timings = {}
        self.current = ""

    def run(self, name, fn):
        self.current = name
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.timings[name] = time.perf_counter() - t0


def run_experiment(cfg):
    """Execute the full pipeline for one matrix and return a result row."""
    row = ResultRow(problem=Path(cfg.matrix).stem, config=asdict(cfg))
    stage = _Stage()
    try:
        a0 = stage.run("read", lambda: read_matrix_market(cfg.matrix))
        row.n, row.nnz = a0.n_cols, a0.nnz

        q = stage.run("transversal", lambda: max_transversal(a0))
        a1 = a0.permuted_columns(q.forward)
        sc = stage.run("scale", lambda: equilibrate(a1))
        a2 = a1.scaled(sc.row_scale, sc.col_scale)
        p, blocks = stage.run("blocks", lambda: scc_block_structure(a2, cfg.max_block))
        a3 = a2.permuted_symmetric(p.forward)
        row.max_block = blocks.max_block
        row.n_blocks = blocks.n_blocks

        shape = V_SHAPES[cfg.v_shape]
        w_pat, v_pat = stage.run(
            "patterns", lambda: _build_patterns(a3, blocks, shape, cfg)
        )

        policy = StabilizationPolicy(threshold=cfg.stab_threshold, r=cfg.stab_r)
        if cfg.method == "diaf-q":
            pair = stage.run("factor", lambda: diaf_q(a3, w_pat, v_pat, policy))
        else:
            pair = stage.run("factor", lambda: diaf_s(a3, w_pat, v_pat))
        row.nrm = pair.nrm
        row.stab_count = pair.stab_count
        row.flagged_columns = len(pair.flagged_columns)
        row.column_residual_max = float(pair.column_residuals.max())
        row.column_residual_p99 = float(np.percentile(pair.column_residuals, 99))
        row.min_abs_v_diag = float(np.abs(pair.v.diagonal()).min())

        vf = stage.run("factor_v", lambda: factor_v(pair.v, blocks, shape))

        # RHS so that the solution of the *original* system is all ones
        b3 = (sc.row_scale * spmv(a0, np.ones(a0.n_cols)))[p.forward]
        precond = lambda x: apply_right_precond(pair.w, vf, x)
        y3, report = stage.run(
            "solve", lambda: bicgstab(a3, b3, precond, tol=cfg.tol, maxit=cfg.maxit)
        )
        row.its = report.iterations
        row.status = report.status
        row.true_relative_residual = report.true_relative_residual
        row.residual_gap = report.residual_gap

        def metrics():
            x0 = q.undo(sc.col_scale * p.undo(y3))
            row.solution_error = float(np.max(np.abs(x0 - 1.0)))
            row.rho = preconditioner_density(pair.w, vf, a0.nnz)
            row.kappa_v = cond_estimate(vf)

        stage.run("metrics", metrics)
    except Exception as exc:  # noqa: BLE001 - every stage failure becomes a row
        row.status = "error"
        row.error_stage = stage.current
        row.error_message = f"{type(exc).__name__}: {exc}"
    row.timings = stage.timings
    return row


def _build_patterns(a3, blocks, shape, cfg):
    candidate = block_pattern(blocks, shape)
    neumann_cfg = NeumannConfig(
        k=cfg.neumann_k,
        initial_drop=DropRule(cfg.tau_i, cfg.p_i),
        level_drop=DropRule(cfg.tau_l, cfg.p_l),
    )
    if cfg.k_v == 0:
        # V keeps the structure of A inside the block shape; the powers
        # pattern is seeded from the plain diagonal
        w_pat = neumann_pattern(a3, SubspacePattern.diagonal(a3.n_cols), neumann_cfg)
        v_pat = candidate.intersected(SubspacePattern.from_matrix(a3)).with_diagonal()
    else:
        # full-block seed keeps the final subspaces disjoint off the diagonal
        w_pat = neumann_pattern(a3, candidate, neumann_cfg, blocks=blocks, v0_shape=shape)
        v_pat = select_v_pattern(a3, w_pat, candidate, cfg.k_v)
    return w_pat, v_pat


def _format_timings(timings):
    return ";".join(f"{k}={v:.6f}" for k, v in timings.items())


def _null_non_finite(value):
    """``value`` with each non-finite float, in nested dicts too, as None."""
    if isinstance(value, dict):
        return {k: _null_non_finite(v) for k, v in value.items()}
    return None if isinstance(value, float) and not np.isfinite(value) else value


def emit_report(rows, fmt="csv", path=None):
    """Serialize rows to CSV or JSON (non-finite floats as null); returns the text."""
    if not rows:
        raise ValueError("no rows to report")
    if fmt == "csv":
        # every field of a row but its config, in declaration order
        names = [f.name for f in fields(ResultRow) if f.name != "config"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for r in rows:
            d = asdict(r)
            d["timings"] = _format_timings(r.timings)
            writer.writerow([d[k] for k in names])
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([_null_non_finite(asdict(r)) for r in rows], indent=2, allow_nan=False)
    else:
        raise ValueError(f"unknown report format '{fmt}'")
    if path is not None:
        Path(path).write_text(text)
    return text
