"""Tests of the benchmark itself: generators, independent checks, tracing."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]

import diafact.bench as bench  # noqa: E402
import diafact.kernels  # noqa: E402
import harness  # noqa: E402
import matgen  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

SMALL_FLOWSHEET = {1: 6, 2: 5, 3: 4, 4: 2}


def small_flowsheet(seed):
    return matgen.flowsheet(seed, units=SMALL_FLOWSHEET, n_recycles=1, recycle_span=2)


def same(a, b):
    return (
        a.n == b.n
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.vals, b.vals)
    )


@pytest.mark.parametrize(
    "gen",
    [
        lambda s: matgen.convection_diffusion_2d(8, s),
        lambda s: matgen.convection_diffusion_3d(4, s),
        small_flowsheet,
    ],
)
def test_generators_are_deterministic_per_seed(gen):
    assert same(gen([3, 0]), gen([3, 0]))
    assert not same(gen([3, 0]), gen([3, 1]))
    assert not same(gen([3, 0]), gen([4, 0]))


def test_flowsheet_is_scrambled_and_nonsingular():
    a = small_flowsheet(1)
    assert a.n == sum(s * c for s, c in SMALL_FLOWSHEET.items())
    assert np.count_nonzero(a.rows == a.cols) < a.n // 4
    assert np.isfinite(np.linalg.cond(a.to_dense()))


def test_matrix_market_roundtrip(tmp_path):
    a = matgen.convection_diffusion_2d(5, 2)
    path = tmp_path / "a.mtx"
    matgen.write_matrix_market(a, path)
    back = oracle.coo_from_csc(diafact.read_matrix_market(str(path)))
    assert same(a, back)


def run_small(tmp_path, a, **config):
    path = tmp_path / "a.mtx"
    matgen.write_matrix_market(a, path)
    cfg = bench.ExperimentConfig(matrix=str(path), **config)
    row, out, _, _, _ = harness._timed_call(bench, cfg)
    return cfg, row, out


@pytest.fixture
def cd2d_run(tmp_path):
    a = matgen.convection_diffusion_2d(8, 1)
    cfg, row, out = run_small(tmp_path, a, method="diaf-q", v_shape="block-diag", k_v=0, max_block=16)
    return a, cfg, row, out


def test_checks_pass_on_program_output(cd2d_run):
    a, cfg, row, out = cd2d_run
    fails, measures = oracle.check_call(a, row, out, cfg)
    assert fails == []
    assert oracle.forward_error_ok(measures, np.linalg.cond(a.to_dense()))


@pytest.mark.parametrize(
    "method,shape,k_v",
    [("diaf-s", "block-upper", 4), ("diaf-q", "block-upper", 4)],
)
def test_checks_pass_on_other_routes(tmp_path, method, shape, k_v):
    a = small_flowsheet(2)
    cfg, row, out = run_small(tmp_path, a, method=method, v_shape=shape, k_v=k_v, max_block=8)
    assert oracle.check_call(a, row, out, cfg)[0] == []


def test_perturbed_w_entry_fails(cd2d_run):
    a, cfg, row, out = cd2d_run
    # W is optimal, so ||AW - V|| moves only to second order: change a large entry
    out.w.vals[np.argmax(np.abs(out.w.vals))] *= 1.01
    fails, _ = oracle.check_call(a, row, out, cfg)
    assert any("||AW - V||_F" in f for f in fails)
    assert any(f.startswith("column ") for f in fails)


def test_wrong_nrm_fails(cd2d_run):
    a, cfg, row, out = cd2d_run
    row.nrm *= 1.0 + 1e-8
    fails, _ = oracle.check_call(a, row, out, cfg)
    assert any(f.startswith("reported nrm") for f in fails)


def test_w_entry_outside_pattern_fails(cd2d_run):
    a, cfg, row, out = cd2d_run
    j = 0
    out.w_pattern[j] = out.w_pattern[j][1:]
    fails, _ = oracle.check_call(a, row, out, cfg)
    assert "W has entries outside its pattern" in fails


def test_wrong_solution_fails(cd2d_run):
    a, cfg, row, out = cd2d_run
    out.y[3] += 1e-3
    fails, _ = oracle.check_call(a, row, out, cfg)
    assert any("true relative residual" in f for f in fails)


def test_wrong_column_residual_fails(cd2d_run):
    a, cfg, row, out = cd2d_run
    out.column_residuals[0] += 1e-6
    fails, _ = oracle.check_call(a, row, out, cfg)
    assert any("numpy oracle" in f for f in fails)


def test_forward_error_above_bound_fails():
    assert not oracle.forward_error_ok({"true_relative_residual": 1e-10, "forward_error": 1e-3}, 10.0)


def test_tracer_survives_missing_function_and_restores(tmp_path):
    a = matgen.convection_diffusion_2d(6, 1)
    path = tmp_path / "a.mtx"
    matgen.write_matrix_market(a, path)
    cfg = bench.ExperimentConfig(matrix=str(path), method="diaf-q", v_shape="block-upper", k_v=3, max_block=12)
    targets = tracer.TARGETS + (("kernels.removed", "diafact.kernels", "no_such_kernel"),)
    original = diafact.kernels.qr_householder
    tr = tracer.Tracer(targets)
    with tr:
        assert diafact.factor.qr_householder is not original
        row = bench.run_experiment(cfg)
    assert row.status == "converged"
    assert diafact.factor.qr_householder is original
    assert diafact.patterns.qr_householder is original
    summary = tr.summary()
    assert tr.missing == ["kernels.removed"]
    assert summary["kernels.removed"]["calls"] == 0
    assert summary["bench.run_experiment"]["calls"] == 1
    # two QR per column in diaf_q plus one in select_v_pattern at most
    assert 2 * a.n <= summary["kernels.qr_householder"]["calls"] <= 3 * a.n
    spans = tr.spans()
    root = np.nonzero(spans["parent"] == -1)[0]
    assert len(root) == 1
    assert spans["self_s"].sum() == pytest.approx(spans["duration_s"][root[0]], rel=1e-9)
    stages = [i for i, name in enumerate(tr.names) if name.startswith("stage.")]
    assert sorted(tr.names[i] for i in stages) == sorted(f"stage.{s}" for s in harness.STAGES)


def test_run_prints_every_declared_metric(tmp_path, monkeypatch):
    spec = harness.Workload(
        small_flowsheet,
        dict(method="diaf-q", v_shape="block-upper", k_v=4, max_block=8),
    )
    monkeypatch.setitem(harness.WORKLOADS, "tiny", spec)
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = harness.run("tiny", 5, 0.0, trace, tmp_path)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == harness.MIN_ROUNDS * harness.MATRICES_PER_ROUND * (1 + trace)
        units = {m["name"]: m["unit"] for m in declared[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert not list((tmp_path / harness.OUT_DIR).glob("*.mtx"))
