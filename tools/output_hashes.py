"""Print one hash per run of everything the pipeline computes but its timings.

    python3 tools/output_hashes.py > hashes.txt

Run from the root of a checkout; it imports the ``diafact`` sources and the
``benchmarks/`` modules of that checkout, and changes neither.  The runs
are the benchmark matrices (each workload of ``benchmarks/harness.py``,
seeds 2 and 1000, ``generate([seed, k])`` for k = 0 ... 5, with the
workload's configuration), two stabilized diaf-q configurations on the
first three ``cd2d-q-diag`` matrices of seed 2, and one 60 x 60 grid whose
V0 and V walks have 72 levels; no workload runs these last three.

Each line names a run and gives its status (the fourth field), its
iterations, ``rho`` (as ``repr``), the nonzeros of W and V, the flagged and
the stabilized column counts, and last a hash of W and V (keys and
values), both patterns' keys, the column residuals, the flagged columns,
the solution ``y`` and every report field but ``timings`` and ``config``.
The results are captured by wrapping ``diafact.bench``'s collaborators with
``benchmarks/oracle.Capture``.  Two checkouts give bitwise equal outputs
exactly where ``diff`` of their lines is empty.  A change that moves only
roundoff leaves every field but the hash alone, which ``diff`` of the lines
without their last field (``awk '{NF--; print}'``) shows.
"""

import hashlib
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

SEEDS = (2, 1000)
# stabilized diaf-q runs: block-diagonal V stabilizes 11 of the 576 columns of
# the first matrix, block-upper V 276
STABILIZED = {
    "cd2d-q-diag-stab-diag": dict(method="diaf-q", v_shape="block-diag", k_v=0, max_block=50,
                                  stab_threshold=0.85),
    "cd2d-q-diag-stab-upper": dict(method="diaf-q", v_shape="block-upper", k_v=10, max_block=50,
                                   stab_threshold=0.9),
}
STABILIZED_MATRICES = 3
# the deep walks: diaf-s with block-upper V on convection_diffusion_2d(60, [2, 0])
DEEP = dict(method="diaf-s", v_shape="block-upper", k_v=10, max_block=50)


def runs(harness):
    """``(label, generate, seed, config)`` of every run, in output order."""
    for name, spec in harness.WORKLOADS.items():
        for seed in SEEDS:
            for k in range(harness.MATRICES_PER_ROUND):
                yield f"{name} seed={seed} k={k}", spec.generate, [seed, k], spec.config
    generate = harness.WORKLOADS["cd2d-q-diag"].generate
    for name, config in STABILIZED.items():
        for k in range(STABILIZED_MATRICES):
            yield f"{name} seed=2 k={k}", generate, [2, k], config

    def deep(seed):
        return harness.matgen.convection_diffusion_2d(60, seed)

    yield "cd2d-60-s-upper seed=2 k=0", deep, [2, 0], DEEP


def run_line(bench, matgen, oracle, label, generate, seed, config, tmp):
    """Run one matrix and return its output line."""
    import numpy as np

    path = Path(tmp) / (label.replace(" ", "-").replace("=", "") + ".mtx")
    matgen.write_matrix_market(generate(seed), path)
    with oracle.Capture(bench) as cap:
        row = bench.run_experiment(bench.ExperimentConfig(matrix=str(path), **config))
    out = cap.out
    h = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())

    for m in (out.w, out.v):
        feed(None if m is None else m.cols * m.n + m.rows)
        feed(None if m is None else m.vals)
    for pattern in (out.w_pattern, out.v_pattern):
        if pattern is None:
            feed(None)
        else:
            n = len(pattern)
            lens = np.array([len(c) for c in pattern])
            feed(np.repeat(np.arange(n), lens) * n + np.concatenate(pattern))
    feed(out.column_residuals)
    feed(sorted(out.flagged.items()))
    feed(out.y)
    feed({k: v for k, v in asdict(row).items() if k not in ("timings", "config")})
    return (f"{label} {row.status} its={row.its} rho={row.rho!r} w_nnz={row.w_nnz} "
            f"v_nnz={row.v_nnz} flagged={row.flagged_columns} stab={row.stab_count} "
            f"{h.hexdigest()}")


def main():
    root = Path.cwd()
    if not (root / "src" / "diafact" / "__init__.py").is_file():
        print(f"no diafact sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # BLAS runs on one thread, as in the benchmark, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import diafact.bench as bench
    import harness
    import matgen
    import oracle

    with tempfile.TemporaryDirectory() as tmp:
        for spec in runs(harness):
            print(run_line(bench, matgen, oracle, *spec, tmp), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
