"""W and V share only the diagonal on both pattern routes of ``run_experiment``."""

import sys
from pathlib import Path

import pytest

import diafact.bench as bench

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import matgen  # noqa: E402


def _mtx(tmp_path, name, a):
    path = tmp_path / f"{name}.mtx"
    matgen.write_matrix_market(a, path)
    return str(path)


@pytest.mark.parametrize("v_shape", ["block-diag", "block-upper"])
def test_flowsheet_diaf_q_kv0_converges(tmp_path, v_shape):
    # with V's off-diagonal positions left in W, V came out singular in factor_v
    path = _mtx(tmp_path, "flowsheet", matgen.flowsheet([2, 0]))
    row = bench.run_experiment(
        bench.ExperimentConfig(matrix=path, method="diaf-q", v_shape=v_shape, k_v=0))
    assert row.status == "converged", row.error_message


@pytest.mark.parametrize("k_v", [0, 10])
@pytest.mark.parametrize("name", ["cd2d", "flowsheet"])
def test_patterns_share_only_the_diagonal(tmp_path, monkeypatch, name, k_v):
    a = {"cd2d": lambda: matgen.convection_diffusion_2d(12, [2, 0]),
         "flowsheet": lambda: matgen.flowsheet([2, 0])}[name]()
    built = []
    build = bench._build_patterns

    def capture(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(bench, "_build_patterns", capture)
    bench.run_experiment(bench.ExperimentConfig(matrix=_mtx(tmp_path, name, a), k_v=k_v))
    (w_pat, v_pat), = built
    keys = w_pat.keys()
    shared = keys[v_pat.contains(keys)]
    assert len(shared) and (shared // w_pat.n == shared % w_pat.n).all()
