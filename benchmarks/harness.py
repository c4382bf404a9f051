"""Closed-loop benchmark of ``diafact.bench.run_experiment``.

One process makes one call at a time, in rounds over the matrices generated
from one seed, for a fixed wall-clock budget, and checks every call's
outputs independently.  With ``trace=False`` it reports the end-to-end
metrics; with ``trace=True`` it follows each untraced call with a traced one
on the same matrix and reports the per-layer metrics, with the tracing
overhead as traced minus untraced time.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

import matgen
import oracle
import tracer as tracing

OUT_DIR = ".perfbench_out"
STAGES = ("read", "transversal", "scale", "blocks", "patterns", "factor", "factor_v", "solve", "metrics")
# rounds made whatever the time budget, so a median always has samples
MIN_ROUNDS = 1
# matrices drawn from one seed; each round makes one call on each
MATRICES_PER_ROUND = 6
# Time of the calibration loop on the reference machine (a 2.1 GHz x86 vCPU)
# when it is not slowed by other tenants.  End-to-end times are reported in
# seconds at that speed; see README.md, "Timing on a shared machine".
CALIBRATION_REFERENCE_S = 0.012


@dataclass(frozen=True)
class Workload:
    generate: object  # seed -> matgen.Coo
    config: dict


# why each workload is there: README.md and BENCHMARK.json
WORKLOADS = {
    "cd2d-q-diag": Workload(
        lambda seed: matgen.convection_diffusion_2d(24, seed),
        dict(method="diaf-q", v_shape="block-diag", k_v=0, max_block=50),
    ),
    "cd3d-s-upper": Workload(
        lambda seed: matgen.convection_diffusion_3d(6, seed),
        dict(method="diaf-s", v_shape="block-upper", k_v=10, max_block=50),
    ),
    "flowsheet-q-upper": Workload(
        lambda seed: matgen.flowsheet(seed),
        dict(method="diaf-q", v_shape="block-upper", k_v=10, max_block=50),
    ),
}


def environment(blas_threads):
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy older than 1.25
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
    }


def makeup(a, block_bounds):
    sizes = np.diff(block_bounds)
    hist = np.bincount(sizes)
    return {
        "n": a.n,
        "nnz": a.nnz,
        "zero_diagonal": int(a.n - np.count_nonzero(a.rows == a.cols)),
        "blocks": int(len(sizes)),
        "block_size_histogram": {int(s): int(c) for s, c in enumerate(hist) if c},
    }


def _median(values):
    return float(statistics.median(values)) if values else float("nan")


_CALIBRATION_INPUT = np.random.default_rng(0).standard_normal((40, 12))


def calibration_loop():
    """Seconds for a fixed mix of small numpy calls and Python loops.

    The mix resembles diafact's column sweeps, so it slows down with them
    when the machine is loaded.
    """
    m = _CALIBRATION_INPUT
    x = m[0]
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        r = np.linalg.qr(m)[1]
        for i in range(12):
            acc += float(np.dot(r[i, i:], x[i:]))
        acc += float(np.bincount(np.arange(40) % 7, weights=m[:, 0]).sum())
    return time.perf_counter() - t0


def _timed_call(bench, cfg):
    """One ``run_experiment`` call, between two calibration loops.

    Returns (row, outputs, seconds, speed, probes); ``speed`` converts this
    call's seconds to seconds at the reference speed, and ``probes`` holds
    the loop times before and after the call.
    """
    before = calibration_loop()
    with oracle.Capture(bench) as cap:
        t0 = time.perf_counter()
        row = bench.run_experiment(cfg)
        t1 = time.perf_counter()
    after = calibration_loop()
    cap.out.setup_end -= t0
    return row, cap.out, t1 - t0, 2.0 * CALIBRATION_REFERENCE_S / (before + after), (before, after)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def alloc_peak_mb(bench, cfg):
    """Peak of the memory allocated through Python during one plain call.

    tracemalloc slows the call several-fold, so this call is neither timed
    nor checked; the checked calls on the same input stand for its outputs.
    """
    tracemalloc.start()
    try:
        bench.run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1] / 2.0**20
    finally:
        tracemalloc.stop()


def _spread(values):
    """Interquartile range over median, the spread measure of the bounds."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def calibration_summary(tts, speeds, probes, matrices):
    """How far the speed scaling steadies the calls of one run.

    ``matrices`` gives each call's input index.  Per matrix, the range of
    its calls' times over their median is reported raw and scaled, so a
    reader can see whether the scaling helped within this run.
    """
    scaled = [t * v for t, v in zip(tts, speeds)]

    def per_matrix_range(values):
        ranges = []
        for k in sorted(set(matrices)):
            own = [v for v, m in zip(values, matrices) if m == k]
            ranges.append((max(own) - min(own)) / statistics.median(own))
        return max(ranges) if ranges else 0.0

    return {
        "reference_s": CALIBRATION_REFERENCE_S,
        "probe_before_s": [p[0] for p in probes],
        "probe_after_s": [p[1] for p in probes],
        "speed_min_median_max": [min(speeds), _median(speeds), max(speeds)] if speeds else [],
        "spread_raw": _spread(tts),
        "spread_scaled": _spread(scaled),
        "per_matrix_range_raw": per_matrix_range(tts),
        "per_matrix_range_scaled": per_matrix_range(scaled),
    }


@dataclass
class Input:
    """One generated matrix of a run, with the checks of its passing calls."""

    a: matgen.Coo
    cfg: object
    measures: list


class Run:
    """The matrices of one run, and the calls made and checked on them."""

    def __init__(self, bench, spec, seed, out_dir, tag):
        self.inputs = []
        for k in range(MATRICES_PER_ROUND):
            a = spec.generate([seed, k])
            path = out_dir / f"{tag}-{k}.mtx"
            matgen.write_matrix_market(a, path)
            cfg = bench.ExperimentConfig(matrix=str(path), **spec.config)
            self.inputs.append(Input(a, cfg, []))
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, inp, row, out):
        """Check one call; returns whether it passed."""
        self.attempted += 1
        fails, measures = oracle.check_call(inp.a, row, out, inp.cfg)
        if fails:
            self.failed += 1
            self.failures.extend(fails)
        else:
            inp.measures.append(measures)
        return not fails

    def finish_checks(self):
        """Checks that need ``kappa(A)``, computed once per matrix outside timing."""
        kappas = []
        for inp in self.inputs:
            kappa = float(np.linalg.cond(inp.a.to_dense()))
            kappas.append(kappa)
            bad = [m for m in inp.measures if not oracle.forward_error_ok(m, kappa)]
            if bad:
                self.failed += len(bad)
                self.failures.append(
                    f"forward error {bad[0]['forward_error']:.3e} above kappa(A)={kappa:.3e} "
                    f"times residual {bad[0]['true_relative_residual']:.3e}"
                )
        return kappas


def run(workload, seed, seconds, trace, root):
    """Run one workload for ``seconds``; returns the result line's object."""
    import diafact.bench as bench

    spec = WORKLOADS[workload]
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    tts, setup, speeds, its, rhos, column_rates = [], [], [], [], [], []
    probes, matrices = [], []  # calibration loop times and input of each sample
    stage_times = {s: [] for s in STAGES}
    pairs, layer_samples = [], []  # (untraced, traced, traced stage sum), scaled
    tr = tracing.Tracer() if trace else None
    span_dump, span_summary = None, {}
    makeups = [None] * MATRICES_PER_ROUND
    alloc_peak = float("nan")
    try:
        state = Run(bench, spec, seed, out_dir, f"{tag}-{os.getpid()}")
        rss_baseline_mb = _rss_mb()
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds += 1
            for k, inp in enumerate(state.inputs):
                row, out, dt, speed, probe = _timed_call(bench, inp.cfg)
                passed = state.record(inp, row, out)
                if passed:
                    tts.append(dt)
                    setup.append(out.setup_end)
                    speeds.append(speed)
                    probes.append(probe)
                    matrices.append(k)
                    its.append(row.its)
                    rhos.append(row.rho)
                    for s in STAGES:
                        stage_times[s].append(row.timings.get(s, 0.0))
                    column_rates.append(row.n / row.timings["factor"])
                    if makeups[k] is None:
                        makeups[k] = makeup(inp.a, out.block_bounds)
                if tr is None:
                    continue
                with tr:
                    row, out, traced_dt, traced_speed, _ = _timed_call(bench, inp.cfg)
                if state.record(inp, row, out) and passed:
                    sample, span_summary = _layer_sample(tr, row, out)
                    stage_sum = sum(span_summary.get(f"stage.{s}", {"s": 0.0})["s"] for s in STAGES)
                    pairs.append((dt * speed, traced_dt * traced_speed, stage_sum * traced_speed))
                    layer_samples.append(sample)
                    span_dump = (tr.names, tr.spans())
        peak_rss_mb = _rss_mb()
        if trace:
            alloc_peak = alloc_peak_mb(bench, state.inputs[0].cfg)
    finally:
        for path in out_dir.glob(f"{tag}-{os.getpid()}-*.mtx"):
            path.unlink()
    kappas = state.finish_checks()

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "config": spec.config,
        "environment": environment(os.environ.get("OPENBLAS_NUM_THREADS")),
        "inputs": [dict(m or {}, kappa_a=kap) for m, kap in zip(makeups, kappas)],
        "rounds": rounds,
        "attempted": state.attempted,
        "failed": state.failed,
        "check_failures": state.failures[:20],
        "samples": {"time_to_solution_s": tts, "setup_s": setup, "speed": speeds, "iterations": its},
        "calibration": calibration_summary(tts, speeds, probes, matrices),
        # the interpreter, numpy and the inputs hold most of the peak; the
        # rise is what the calls added to the high-water mark
        "memory": {
            "peak_rss_mb": peak_rss_mb,
            "rss_before_first_call_mb": rss_baseline_mb,
            "rss_rise_mb": peak_rss_mb - rss_baseline_mb,
        },
    }
    if trace:
        metrics = _layer_metrics(layer_samples, stage_times, column_rates, pairs)
        metrics["memory.alloc_peak_mb"] = (alloc_peak, "MB")
        result["missing_trace_targets"] = tr.missing
        result["span_summary"] = span_summary
        # the traced stage spans should add up to the untraced time plus at
        # most the tracing overhead
        result["stage_sum"] = {
            "traced_stage_sum_s": _median([p[2] for p in pairs]),
            "untraced_time_to_solution_s": _median([p[0] for p in pairs]),
            "overhead_s": metrics["trace.overhead_s"][0],
        }
        if span_dump is not None:
            names, spans = span_dump
            np.savez_compressed(out_dir / f"spans-{tag}.npz", names=np.array(names), **spans)
    else:
        result["raw_medians"] = {"time_to_solution_s": _median(tts), "setup_s": _median(setup)}
        metrics = {
            "time_to_solution_s": (_median([t * v for t, v in zip(tts, speeds)]), "s"),
            "setup_s": (_median([t * v for t, v in zip(setup, speeds)]), "s"),
            # mean over the run's matrices: BiCGSTAB counts jump by tens of
            # percent between nearly equal matrices, their mean is steady
            "iterations": (float(np.mean(its)) if its else float("nan"), "count"),
            "rho": (_median(rhos), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(result, indent=1, default=_plain))
    return {
        "correct": not state.failures,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": result["metrics"],
    }


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(type(obj).__name__)


def _layer_sample(tr, row, out):
    """Per-layer figures of one traced call, and its span summary."""
    summary = tr.summary()
    n = row.n
    stats = lambda name: summary.get(name, {"calls": 0, "s": 0.0})
    qr = stats("kernels.qr_householder")
    lu = stats("kernels.lu_solve")
    m = np.frombuffer(tr.shapes_m, dtype=np.int64)
    k = np.frombuffer(tr.shapes_k, dtype=np.int64)
    sample = {
        "kernels.qr_householder.calls": (qr["calls"], "count"),
        "kernels.qr_householder.s": (qr["s"], "s"),
        "kernels.qr_householder.flops": (tr.counters.get("kernels.qr_householder.flops", 0.0), "flop.computed"),
        "kernels.qr_householder.per_column": (qr["calls"] / n, "calls/column"),
        "kernels.lu_solve.zero_rhs_ratio": (
            tr.counters.get("kernels.lu_solve.zero_rhs", 0) / lu["calls"] if lu["calls"] else 0.0,
            "ratio",
        ),
        "kernels.block_k.p50": (float(np.median(k)) if len(k) else 0.0, "columns"),
        "kernels.block_k.max": (float(k.max()) if len(k) else 0.0, "columns"),
        "kernels.block_m.p50": (float(np.median(m)) if len(m) else 0.0, "rows"),
        "patterns.v0_solves": (stats("patterns.v0_solve")["calls"], "count"),
        "patterns.w_nnz": (int(sum(len(c) for c in out.w_pattern)), "count"),
        "patterns.v_nnz": (int(sum(len(c) for c in out.v_pattern)), "count"),
        "factor.nrm": (row.nrm, "1"),
        "factor.column_residual_max": (float(out.column_residuals.max()), "1"),
        "factor.flagged_columns": (len(out.flagged), "count"),
        "factor.stab_count": (out.stab_count, "count"),
        "krylov.kappa_v": (row.kappa_v, "1"),
        "krylov.true_relative_residual": (out.true_relative_residual, "1"),
        "preprocess.n_blocks": (row.n_blocks, "count"),
    }
    for name in ("kernels.svd_small", "kernels.lstsq", "kernels.lu_factor", "kernels.lu_solve",
                 "krylov.v_solve", "krylov.precond_apply", "sparse.extract_columns",
                 "sparse.gather_columns", "sparse.spmv"):
        sample[f"{name}.calls"] = (stats(name)["calls"], "count")
        sample[f"{name}.s"] = (stats(name)["s"], "s")
    for name in ("krylov.factor_v", "krylov.cond_estimate", "patterns.neumann_pattern",
                 "patterns.select_v_pattern", "sparse.residual_fro", "preprocess.max_transversal",
                 "preprocess.equilibrate", "preprocess.scc_block_structure"):
        sample[f"{name}.s"] = (stats(name)["s"], "s")
    return sample, summary


def _layer_metrics(samples, stage_times, column_rates, pairs):
    metrics = {f"stage.{s}_s": (_median(stage_times[s]), "s") for s in STAGES}
    for key, (_, unit) in (samples[0].items() if samples else ()):
        metrics[key] = (_median([s[key][0] for s in samples]), unit)
    metrics["factor.columns_per_s"] = (_median(column_rates), "1/s")
    # each traced call follows an untraced call on the same matrix; both
    # are scaled to the reference speed, so a slow phase cancels
    metrics["trace.overhead_s"] = (_median([traced - plain for plain, traced, _ in pairs]), "s")
    return metrics
