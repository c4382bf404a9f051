"""A reducible matrix is ordered block upper triangular, so a block-upper V holds it.

When every component fits in ``max_block``, all of A3 lies in the block-upper
shape: with ``k_v`` at least the largest column count, V holds all of A3,
W is the diagonal and the solve is a block back-substitution.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import diafact.bench as bench
from diafact.sparse import SubspacePattern

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import matgen  # noqa: E402

# the flowsheet proxy of the benchmark (components of at most 50), and a
# small one of 36 unknowns with one recycle
PLANTS = {
    "flowsheet": lambda: matgen.flowsheet([2, 0]),
    "small-flowsheet": lambda: matgen.flowsheet(
        [2, 0], units={1: 6, 2: 5, 3: 4, 4: 2}, n_recycles=1, recycle_span=2),
}


def _mtx(tmp_path, name):
    a = PLANTS[name]()
    path = tmp_path / f"{name}.mtx"
    matgen.write_matrix_market(a, path)
    return str(path), a


@pytest.mark.parametrize("name", PLANTS)
def test_block_upper_v_holds_all_of_a(tmp_path, monkeypatch, name):
    path, a = _mtx(tmp_path, name)
    built = []
    build = bench._build_patterns

    def capture(a3, *args):
        built.append((a3, build(a3, *args)))
        return built[-1][1]

    monkeypatch.setattr(bench, "_build_patterns", capture)
    k_v = int(np.bincount(a.cols).max())
    row = bench.run_experiment(bench.ExperimentConfig(
        matrix=path, method="diaf-q", v_shape="block-upper", k_v=k_v))
    (a3, (w_pat, v_pat)), = built
    assert row.max_block < 50  # every component fits in one block
    assert row.status == "converged" and row.its <= 2, (row.status, row.its)
    assert w_pat == SubspacePattern.diagonal(a.n)
    assert v_pat.contains(a3.entry_keys()).all()


@pytest.mark.parametrize("name", PLANTS)
def test_diaf_s_block_upper_kv0_converges(tmp_path, name):
    # ordered block lower triangular, the benchmark's flowsheet matrices
    # stop at the iteration cap on this route
    path, _ = _mtx(tmp_path, name)
    row = bench.run_experiment(bench.ExperimentConfig(
        matrix=path, method="diaf-s", v_shape="block-upper", k_v=0))
    assert row.status == "converged" and row.its <= 2, (row.status, row.its)
