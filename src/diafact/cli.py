"""Command-line benchmark driver.

Runs the full preconditioning pipeline on one or more Matrix Market files
and reports the usual metrics (density, condition estimate, minimizer norm,
iteration count).  Exit code 0 means every run converged, 2 that some run
hit the iteration cap, 3 that the solver broke down, 1 that a pipeline
stage failed or the command line or configuration is invalid.
"""

from __future__ import annotations

import argparse
import sys

from .bench import METHODS, V_SHAPES, ExperimentConfig, emit_report, run_experiment


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1; 2 means the iteration cap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    """Parser with one flag per :class:`ExperimentConfig` field.

    Each flag stores into the field it sets; a flag not given is left out
    of the parsed namespace, so the field keeps its dataclass default.
    """
    p = _Parser(
        prog="diafact",
        description="Approximate inverse factoring preconditioner benchmark",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--matrix", dest="matrix", nargs="+", required=True,
                   help="Matrix Market file(s)")
    p.add_argument("--method", dest="method", choices=METHODS)
    p.add_argument("--v-shape", dest="v_shape", choices=tuple(V_SHAPES))
    p.add_argument("--max-block", dest="max_block", type=int, help="diagonal block size cap")
    p.add_argument("--kv", dest="k_v", type=int,
                   help="entries kept per column of V (0: structure of A in the shape)")
    p.add_argument("--neumann-k", dest="neumann_k", type=int, help="power series truncation")
    p.add_argument("--tau-i", dest="tau_i", type=float, help="initial drop tolerance")
    p.add_argument("--p-i", dest="p_i", type=int, help="initial drop count (0: unused)")
    p.add_argument("--tau-l", dest="tau_l", type=float, help="per-level drop tolerance")
    p.add_argument("--p-l", dest="p_l", type=int, help="per-level drop count (0: unused)")
    p.add_argument("--stab-threshold", dest="stab_threshold", type=float,
                   help="stabilize columns with |v_jj| below this (0: off)")
    p.add_argument("--stab-r", dest="stab_r", type=float, help="imposed diagonal weight")
    p.add_argument("--tol", dest="tol", type=float, help="relative residual target")
    p.add_argument("--maxit", dest="maxit", type=int, help="iteration cap")
    p.add_argument("--out", default=None, help="report file path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return p


def main(argv=None):
    config_args = vars(build_parser().parse_args(argv))
    matrices = config_args.pop("matrix")
    out, fmt = config_args.pop("out"), config_args.pop("format")
    rows = []
    for path in matrices:
        try:
            cfg = ExperimentConfig(matrix=path, **config_args)
        except ValueError as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 1
        row = run_experiment(cfg)
        rows.append(row)
        if row.status == "error":
            print(f"{row.problem}: failed in stage '{row.error_stage}': "
                  f"{row.error_message}", file=sys.stderr)
        else:
            print(
                f"{row.problem}: n={row.n} blocks={row.n_blocks} "
                f"rho={row.rho:.2f} kappa={row.kappa_v:.2e} nrm={row.nrm:.2f} "
                f"its={row.its} status={row.status}"
            )

    text = emit_report(rows, fmt=fmt, path=out)
    if out is None:
        print(text, end="")

    statuses = [r.status for r in rows]
    if "error" in statuses:
        return 1
    if "breakdown" in statuses:
        return 3
    if "no_convergence" in statuses:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
