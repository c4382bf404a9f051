"""Fuzz the Matrix Market reader and the pipeline behind it.

Each trial mutates the entry lines of a valid 16 x 16 convection-diffusion
file: hostile tokens, deleted or duplicated lines, swapped indices and
values scaled by 10^+-300.  The banner and the size line are never
touched, so no trial declares a size that the reader would allocate for.
A trial must end in a ``MatrixMarketError`` from the reader, or in a
``run_experiment`` row with a documented status: an error row names its
stage, and a converged row has a true relative residual within
``10 * tol``.  No trial may raise a RuntimeWarning.
"""

import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from diafact.bench import ExperimentConfig, run_experiment
from diafact.krylov import BREAKDOWN, CONVERGED, NO_CONVERGENCE
from diafact.sparse import MatrixMarketError, read_matrix_market

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import matgen  # noqa: E402

TRIALS = 500
STATUSES = {CONVERGED, NO_CONVERGENCE, BREAKDOWN, "error"}
# the stages after the read, which the reader has already passed
STAGES = {"transversal", "scale", "blocks", "patterns", "factor", "factor_v", "solve", "metrics"}
# tokens that put a field out of range, out of int64, out of float64 or
# out of the grammar; "" drops a field and "1 2" adds one
HOSTILE = ["nan", "-inf", "1e400", "1e-400", "0", "-1", "17", "99999999999999999999999",
           "1_0", "0x1f", "1e3", "2.5", "+3", "-0.0", "1d0", "abc", "", "1 2", "٣"]


def _mutated(lines, rng):
    """``lines``, the entry lines of a file, after one to three mutations."""
    lines = list(lines)
    for _ in range(1 + int(rng.integers(3))):
        at = int(rng.integers(len(lines)))
        fields = lines[at].split()
        kind = int(rng.integers(5))
        if kind == 0:
            fields[int(rng.integers(3))] = HOSTILE[int(rng.integers(len(HOSTILE)))]
            lines[at] = " ".join(fields)
        elif kind == 1:
            del lines[at]
        elif kind == 2:
            lines.insert(int(rng.integers(len(lines) + 1)), lines[at])
        elif len(fields) != 3:  # a line that an earlier mutation broke stays so
            continue
        elif kind == 3:
            lines[at] = " ".join([fields[1], fields[0], fields[2]])
        else:
            try:
                value = float(fields[2]) * 10.0 ** (300 * (1 - 2 * int(rng.integers(2))))
            except ValueError:
                continue
            lines[at] = " ".join(fields[:2] + [repr(value)])
    return lines


def test_mutated_files_end_in_a_reader_error_or_a_documented_row(tmp_path):
    valid = tmp_path / "valid.mtx"
    matgen.write_matrix_market(matgen.convection_diffusion_2d(4, [2, 0]), valid)
    lines = valid.read_text().splitlines()
    head, entries = lines[:2], lines[2:]
    rng = np.random.default_rng(33)
    path = tmp_path / "mutated.mtx"
    outcomes = Counter()
    for trial in range(TRIALS):
        lines = head + _mutated(entries, rng)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = ExperimentConfig(matrix=str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                read_matrix_market(path)
                row = run_experiment(cfg)
            except MatrixMarketError:
                row = None
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (trial, lines)
        if row is None:
            outcomes["MatrixMarketError"] += 1
            continue
        assert row.status in STATUSES, (trial, row.status)
        if row.status == "error":
            assert row.error_stage in STAGES and row.error_message, (trial, row)
            outcomes[f"error in {row.error_stage}"] += 1
            continue
        if row.status == CONVERGED:
            assert row.true_relative_residual <= 10.0 * cfg.tol, (trial, lines)
        outcomes[row.status] += 1
    # the fixed seed reaches both the reader's errors and whole runs
    assert outcomes["MatrixMarketError"] and outcomes[CONVERGED], outcomes
