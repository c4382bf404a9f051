"""Time the pipeline on growing 2D grids, where V and V0 have many levels.

    python3 tools/scale_probe.py                 # m = 48, 96 and 144
    python3 tools/scale_probe.py --sizes 48 96

It imports the ``diafact`` sources and ``benchmarks/matgen.py`` of the
checkout it sits in, and changes neither.  Each size ``m`` runs
``matgen.convection_diffusion_2d(m, [2, 0])`` (n = m * m) once through
``diafact.bench.run_experiment`` with diaf-s, a block-upper V and ``k_v``
= 10, in a fresh Python process, so the peak RSS is that run's alone.
BLAS runs on one thread.

Each size prints one line of ``name=value`` fields: ``m``, ``n``, the
run's ``status``, ``its`` and ``rho``; ``v_levels`` and ``v0_levels``, the
levels of the block DAG that V's and V0's walks go through (0 when V0 is
not factored, as when S = 0); ``candidate_mb``, the memory the block-upper
candidate pattern holds (tracemalloc, MiB); one ``<stage>_s`` per
pipeline stage, in seconds; and ``peak_rss_mb``, the process's peak
resident set (MiB).  Only the times and the two memory figures vary from
run to run on one machine.
"""

import argparse
import multiprocessing
import os
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = dict(method="diaf-s", v_shape="block-upper", k_v=10, max_block=50)


def probe(m):
    """Run size ``m`` in this process and return its line."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import diafact.bench as bench
    import diafact.patterns as patterns
    import matgen

    seen = {}  # what the wrapped collaborators report
    block_pattern = bench.block_pattern

    def counted(name, factor_v):
        def wrapped(*args):
            vf = factor_v(*args)
            seen[name] = len(vf.levels)
            return vf
        return wrapped

    def traced(*args):
        tracemalloc.start()
        try:
            pattern = block_pattern(*args)
            seen["candidate_mb"] = tracemalloc.get_traced_memory()[0] / 2 ** 20
        finally:
            tracemalloc.stop()
        return pattern

    bench.factor_v = counted("v_levels", bench.factor_v)
    patterns.factor_v = counted("v0_levels", patterns.factor_v)
    bench.block_pattern = traced
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"cd2d-{m}.mtx"
        matgen.write_matrix_market(matgen.convection_diffusion_2d(m, [2, 0]), path)
        row = bench.run_experiment(bench.ExperimentConfig(matrix=str(path), **CONFIG))
    fields = [f"m={m}", f"n={row.n}", f"status={row.status}", f"its={row.its}", f"rho={row.rho:.6g}",
              f"v_levels={seen.get('v_levels', 0)}", f"v0_levels={seen.get('v0_levels', 0)}",
              f"candidate_mb={seen.get('candidate_mb', 0.0):.2f}"]
    fields += [f"{stage}_s={t:.4f}" for stage, t in row.timings.items()]
    fields.append(f"peak_rss_mb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return " ".join(fields)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[48, 96, 144], metavar="M",
                        help="grid sides m to run, each in its own process (default: 48 96 144)")
    args = parser.parse_args(argv)
    # set before numpy loads in a worker; the probe process itself never loads it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for m in args.sizes:
            print(pool.apply(probe, (m,)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
