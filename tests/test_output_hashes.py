"""``tools/output_hashes.py`` on one benchmark matrix."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import diafact.bench as bench

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks"))

import harness  # noqa: E402
import matgen  # noqa: E402
import oracle  # noqa: E402

_spec = importlib.util.spec_from_file_location("output_hashes", REPO / "tools" / "output_hashes.py")
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)


def test_one_line_per_run_that_follows_the_outputs(tmp_path, monkeypatch):
    runs = list(output_hashes.runs(harness))
    assert len(runs) == 43 and len({label for label, *_ in runs}) == 43
    label = runs[0][0]
    line = output_hashes.run_line(bench, matgen, oracle, *runs[0], tmp_path)
    assert line.startswith(f"{label} converged its=")
    assert output_hashes.run_line(bench, matgen, oracle, *runs[0], tmp_path) == line

    # one ulp more in one value of W changes the line
    diaf_q = bench.diaf_q

    def perturbed(*args, **kwargs):
        pair = diaf_q(*args, **kwargs)
        pair.w.values[0] = np.nextafter(pair.w.values[0], np.inf)
        return pair

    monkeypatch.setattr(bench, "diaf_q", perturbed)
    assert output_hashes.run_line(bench, matgen, oracle, *runs[0], tmp_path) != line


@pytest.mark.parametrize("name", sorted(output_hashes.STABILIZED))
def test_each_stabilized_run_stabilizes_some_but_not_all_columns(tmp_path, name):
    [(label, generate, seed, config)] = [
        run for run in output_hashes.runs(harness) if run[0] == f"{name} seed=2 k=0"]
    path = tmp_path / "a.mtx"
    matgen.write_matrix_market(generate(seed), path)
    row = bench.run_experiment(bench.ExperimentConfig(matrix=str(path), **config))
    assert row.status == "converged" and 0 < row.stab_count < row.n, (label, row.stab_count)
