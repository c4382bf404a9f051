"""The V selection's QR count on one benchmark matrix."""

import sys
from pathlib import Path

import diafact.bench as bench
import diafact.patterns as patterns

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks"))

import harness  # noqa: E402
import matgen  # noqa: E402


def test_cd3d_s_upper_selection_factors_only_runs_with_a_choice(tmp_path, monkeypatch):
    # cd3d-s-upper, seed 2, matrix 0: 9 of its 216 ranked columns hold more
    # than k_v = 10 positions. At the default budgets the selection factors
    # the 11 blocks of their runs; deciding per chunk of 4,096 entries
    # instead factors 175
    spec = harness.WORKLOADS["cd3d-s-upper"]
    path = tmp_path / "a.mtx"
    matgen.write_matrix_market(spec.generate([2, 0]), path)
    calls = []
    real = patterns.qr_householder
    monkeypatch.setattr(patterns, "qr_householder", lambda m: calls.append(1) or real(m))
    row = bench.run_experiment(bench.ExperimentConfig(matrix=str(path), **spec.config))
    assert row.status == "converged"
    assert len(calls) == 11
