"""Fuzz the Matrix Market reader and the pipeline behind it.

Each trial mutates a valid 16 x 16 convection-diffusion file.  One test
mutates its entry lines: hostile tokens, deleted or duplicated lines,
swapped indices and values scaled by 10^+-300.  The other mutates its
size line: each of the three counts becomes 0, -1, one of its neighbours,
itself, a count far beyond the file (10^9, 10^12, 2^63) or a token out of
the grammar, and a field may be dropped or added.  The banner is never
touched.  A trial must end in a ``MatrixMarketError`` from the reader, or
in a ``run_experiment`` row with a documented status: an error row names
its stage, and a converged row has a true relative residual within
``10 * tol``.  No trial may raise a RuntimeWarning, and no size-line trial
may allocate 50 MB or more, whatever size it declares.
"""

import sys
import tracemalloc
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
SIZE_TRIALS = 500
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


def _size_value(count, rng):
    """A value for a count of the size line: 0, -1, ``count`` or one of its
    neighbours, a count far beyond the file, or a token out of the grammar."""
    values = [0, -1, count - 1, count, count + 1, 10 ** 9, 10 ** 12, 2 ** 63, "1e3", "1_0", "x"]
    return str(values[int(rng.integers(len(values)))])


def _mutated_size_line(line, rng):
    """``line``, a size line, with one to three of its counts replaced and
    perhaps a field dropped or one added."""
    counts = [int(c) for c in line.split()]
    fields = [str(c) for c in counts]
    for i in rng.permutation(3)[:1 + int(rng.integers(3))].tolist():
        fields[i] = _size_value(counts[i], rng)
    kind = int(rng.integers(3))
    if kind == 1:
        del fields[int(rng.integers(len(fields)))]
    elif kind == 2:
        fields.insert(int(rng.integers(len(fields) + 1)), _size_value(counts[0], rng))
    return " ".join(fields)


def _valid_file(tmp_path):
    """The banner, the size line and the entry lines of a valid file."""
    valid = tmp_path / "valid.mtx"
    matgen.write_matrix_market(matgen.convection_diffusion_2d(4, [2, 0]), valid)
    lines = valid.read_text().splitlines()
    return lines[0], lines[1], lines[2:]


def _outcome(path, lines, trial):
    """Write ``lines`` to ``path``, read and run it, check the outcome
    contract and name the outcome."""
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
        return "MatrixMarketError"
    assert row.status in STATUSES, (trial, row.status)
    if row.status == "error":
        assert row.error_stage in STAGES and row.error_message, (trial, row)
        return f"error in {row.error_stage}"
    if row.status == CONVERGED:
        assert row.true_relative_residual <= 10.0 * cfg.tol, (trial, lines)
    return row.status


def test_mutated_files_end_in_a_reader_error_or_a_documented_row(tmp_path):
    banner, size, entries = _valid_file(tmp_path)
    rng = np.random.default_rng(33)
    path = tmp_path / "mutated.mtx"
    outcomes = Counter(_outcome(path, [banner, size] + _mutated(entries, rng), trial)
                       for trial in range(TRIALS))
    # the fixed seed reaches both the reader's errors and whole runs
    assert outcomes["MatrixMarketError"] and outcomes[CONVERGED], outcomes


def test_mutated_size_lines_end_in_a_reader_error_or_a_documented_row(tmp_path):
    banner, size, entries = _valid_file(tmp_path)
    rng = np.random.default_rng(36)
    path = tmp_path / "mutated.mtx"
    outcomes = Counter()
    tracemalloc.start()
    try:
        for trial in range(SIZE_TRIALS):
            lines = [banner, _mutated_size_line(size, rng)] + entries
            tracemalloc.reset_peak()
            outcomes[_outcome(path, lines, trial)] += 1
            assert tracemalloc.get_traced_memory()[1] < 50 * 2 ** 20, (trial, lines[1])
    finally:
        tracemalloc.stop()
    # the fixed seed reaches both the reader's errors and sizes that pass it
    assert 0 < outcomes["MatrixMarketError"] < SIZE_TRIALS, outcomes
