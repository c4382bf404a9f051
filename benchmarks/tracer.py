"""Span tracing of diafact from outside the package.

:class:`Tracer` replaces the public functions of each module, on every name
a diafact module binds them to (``diafact.factor.svd_small`` and
``diafact.kernels.svd_small`` alike), with wrappers that record a span:
name, start, end and parent.  Spans live in flat in-memory arrays and are
written out once at the end.  A target that a later version of the program
deletes or renames is listed as missing and reports zero calls.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (span name, module, attribute path) of every traced function.  Methods are
# given as "Class.method".
TARGETS = (
    ("bench.run_experiment", "diafact.bench", "run_experiment"),
    ("kernels.qr_householder", "diafact.kernels", "qr_householder"),
    ("kernels.svd_small", "diafact.kernels", "svd_small"),
    ("kernels.lstsq", "diafact.kernels", "lstsq"),
    ("kernels.lu_factor", "diafact.kernels", "lu_factor"),
    ("kernels.lu_solve", "diafact.kernels", "lu_solve"),
    ("sparse.read_matrix_market", "diafact.sparse", "read_matrix_market"),
    ("sparse.extract_columns", "diafact.sparse", "extract_columns"),
    ("sparse.gather_columns", "diafact.sparse", "gather_columns"),
    ("sparse.spmv", "diafact.sparse", "spmv"),
    ("sparse.residual_fro", "diafact.sparse", "residual_fro"),
    ("preprocess.max_transversal", "diafact.preprocess", "max_transversal"),
    ("preprocess.equilibrate", "diafact.preprocess", "equilibrate"),
    ("preprocess.scc_block_structure", "diafact.preprocess", "scc_block_structure"),
    ("patterns.neumann_pattern", "diafact.patterns", "neumann_pattern"),
    ("patterns.select_v_pattern", "diafact.patterns", "select_v_pattern"),
    ("patterns.v0_solve", "diafact.patterns", "_V0Solver.solve_sparse"),
    ("factor.diaf_q", "diafact.factor", "diaf_q"),
    ("factor.diaf_s", "diafact.factor", "diaf_s"),
    ("krylov.factor_v", "diafact.krylov", "factor_v"),
    ("krylov.bicgstab", "diafact.krylov", "bicgstab"),
    ("krylov.cond_estimate", "diafact.krylov", "cond_estimate"),
    ("krylov.precond_apply", "diafact.krylov", "apply_right_precond"),
    ("krylov.v_solve", "diafact.krylov", "VFactorization.solve"),
)

# modules whose bindings are rewritten
CONSUMERS = (
    "diafact",
    "diafact.sparse",
    "diafact.kernels",
    "diafact.preprocess",
    "diafact.patterns",
    "diafact.factor",
    "diafact.krylov",
    "diafact.bench",
)


def _qr_observe(tracer, args, _result):
    m, k = np.shape(args[0])
    # Householder QR with an explicit thin Q: 2mk^2 - 2k^3/3 for R, the
    # same again for accumulating Q (computed from shapes, not counted)
    tracer.add("kernels.qr_householder.flops", 4.0 * m * k * k - 4.0 * k ** 3 / 3.0)


def _lu_solve_observe(tracer, args, _result):
    if not np.any(args[1]):
        tracer.add("kernels.lu_solve.zero_rhs", 1)


def _extract_observe(tracer, _args, sub):
    m, k = sub.dense_block.shape
    tracer.shapes_m.append(m)
    tracer.shapes_k.append(k)


OBSERVERS = {
    "kernels.qr_householder": _qr_observe,
    "kernels.lu_solve": _lu_solve_observe,
    "sparse.extract_columns": _extract_observe,
}


def _resolve(module, path):
    obj = importlib.import_module(module)
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self._restore = []
        self._reset()

    def _reset(self):
        """Forget the spans and span names of the previous installation."""
        self.names = []
        self.missing = []
        self.span_name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters = {}
        self.shapes_m = array("q")
        self.shapes_k = array("q")
        self._stack = [-1]

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _span(self, nid, fn, args, kwargs):
        """Call ``fn`` inside a span of name id ``nid``."""
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            result = self._span(nid, fn, args, kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _stage_wrapper(self, fn):
        """Spans named after the stage of diafact.bench's stage timer."""
        ids = {}

        def run(stage, name, body):
            if name not in ids:
                ids[name] = len(self.names)
                self.names.append(f"stage.{name}")
            return self._span(ids[name], fn, (stage, name, body), {})

        return run

    def __enter__(self):
        self._reset()
        modules = [importlib.import_module(m) for m in CONSUMERS]
        for name, module, path in self.targets:
            owner, fn = _resolve(module, path)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrapper(name, fn)
            if isinstance(owner, type):
                self._set(owner, path.rsplit(".", 1)[1], wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)
        owner, fn = _resolve("diafact.bench", "_Stage.run")
        if fn is None:
            self.missing.append("stage")
        else:
            self._set(owner, "run", self._stage_wrapper(fn))
        return self

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def spans(self):
        """Spans recorded since the tracer was last installed, as numpy arrays."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (end - start) * 1e-9
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int64).copy(),
            "parent": parent.copy(),
            "start_ns": start.copy(),
            "end_ns": end.copy(),
            "duration_s": dur,
            "self_s": dur - covered,
        }

    def summary(self):
        """Calls, inclusive and self seconds per span name."""
        sp = self.spans()
        calls = np.bincount(sp["name"], minlength=len(self.names))
        incl = np.bincount(sp["name"], weights=sp["duration_s"], minlength=len(self.names))
        self_s = np.bincount(sp["name"], weights=sp["self_s"], minlength=len(self.names))
        out = {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        for name in self.missing:
            out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        return out
