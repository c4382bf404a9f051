"""Run one benchmark workload against the diafact sources of this checkout.

    python3 benchmarks/run.py --workload cd2d-q-diag --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  A fuller record goes to ``.perfbench_out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy is first imported
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "diafact" / "__init__.py").is_file():
        print(f"no diafact sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    import diafact
    import harness

    if Path(diafact.__file__).resolve().parent != (src / "diafact").resolve():
        print(f"diafact imported from {diafact.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
