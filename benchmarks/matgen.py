"""Seeded generators for the benchmark matrices.

Each generator returns a :class:`Coo` matrix in original coordinates; the
benchmark writes it as a Matrix Market file and keeps its own copy for the
independent checks.  The same seed always gives the same matrix.

* ``convection_diffusion_2d`` / ``convection_diffusion_3d``: first-order
  upwind discretization of ``-div(k grad u) + beta . grad u`` on the unit
  square or cube with Dirichlet boundaries, scaled by ``h**2``.  The seed
  turns the convection direction by up to TURN_DEGREES and perturbs the
  diffusion coefficient per cell by up to PERTURBATION, so the work per
  seed stays nearly the same.
* ``flowsheet``: a nearly reducible process-flowsheet proxy.  Units of 1 to
  8 coupled equations are chained by feed streams, a few recycle streams
  merge runs of units into larger strongly connected components, each
  unit's equations and variables carry magnitudes spread over ``10**(+-3)``,
  and rows and columns are scrambled so the diagonal is nearly empty.  The
  seed perturbs only the stream coefficients, by up to PERTURBATION.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Coo:
    """Square sparse matrix as sorted, duplicate-free coordinate triplets."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def build(cls, n, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        key = cols * n + rows
        uniq, inv = np.unique(key, return_inverse=True)
        sums = np.bincount(inv, weights=np.asarray(vals, dtype=np.float64))
        keep = sums != 0.0
        uniq, sums = uniq[keep], sums[keep]
        return cls(n, uniq % n, uniq // n, sums)

    @property
    def nnz(self):
        return len(self.vals)

    def matvec(self, x):
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.n)

    def to_dense(self):
        d = np.zeros((self.n, self.n))
        d[self.rows, self.cols] = self.vals
        return d


def write_matrix_market(a, path):
    """Coordinate/real/general Matrix Market with round-trip precision."""
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"{a.n} {a.n} {a.nnz}",
    ]
    lines.extend(
        f"{i + 1} {j + 1} {v:.17g}" for i, j, v in zip(a.rows.tolist(), a.cols.tolist(), a.vals.tolist())
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# How far a seed moves a problem: relative coefficient perturbation and
# turn of the convection direction.  Small, so the work per seed stays
# nearly the same and run-to-run figures are comparable across seeds.
PERTURBATION = 0.002
TURN_DEGREES = 0.2
# Length of the grid problems' convection vector
PECLET = 60.0


def _convection(rng, dim):
    """Convection vector of length PECLET, turned by up to TURN_DEGREES."""
    base = np.ones(dim) / np.sqrt(dim)
    turn = rng.uniform(-1.0, 1.0, dim) * np.deg2rad(TURN_DEGREES)
    beta = base + turn
    return PECLET * beta / np.linalg.norm(beta)


def _upwind_grid(m, dim, seed):
    rng = np.random.default_rng(seed)
    beta = _convection(rng, dim)
    kappa = 1.0 + rng.uniform(-PERTURBATION, PERTURBATION, (m,) * dim)
    h = 1.0 / (m + 1)
    n = m ** dim
    idx = np.arange(n).reshape((m,) * dim)
    rows, cols, vals = [], [], []
    diag = np.zeros((m,) * dim)
    for axis in range(dim):
        b = beta[axis]
        for step in (-1, 1):
            # neighbour in direction ``step`` along ``axis``; upwind takes
            # the convection term from the side the flow comes from
            upwind = h * b if (step == -1 and b > 0) or (step == 1 and b < 0) else 0.0
            here = [slice(None)] * dim
            there = [slice(None)] * dim
            if step == -1:
                here[axis], there[axis] = slice(1, None), slice(None, -1)
            else:
                here[axis], there[axis] = slice(None, -1), slice(1, None)
            k_face = 0.5 * (kappa[tuple(here)] + kappa[tuple(there)])
            coeff = k_face + abs(upwind)
            rows.append(idx[tuple(here)].ravel())
            cols.append(idx[tuple(there)].ravel())
            vals.append(-coeff.ravel())
            diag[tuple(here)] += coeff
        # Dirichlet faces still contribute diffusion and inflow to the diagonal
        for boundary in (0, m - 1):
            face = [slice(None)] * dim
            face[axis] = boundary
            inflow = h * abs(b) if (boundary == 0) == (b > 0) else 0.0
            diag[tuple(face)] += kappa[tuple(face)] + inflow
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    return Coo.build(n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def convection_diffusion_2d(m, seed):
    """Upwind 2D convection-diffusion on an ``m x m`` grid (n = m**2)."""
    return _upwind_grid(m, 2, seed)


def convection_diffusion_3d(m, seed):
    """Upwind 3D convection-diffusion on an ``m**3`` grid."""
    return _upwind_grid(m, 3, seed)


# Unit sizes of the flowsheet proxy: fixed counts, so the dimension does not
# depend on the seed.
FLOWSHEET_UNIT_SIZES = {1: 60, 2: 50, 3: 40, 4: 30, 5: 20, 6: 12, 8: 8}
# The plant's topology (unit order, streams, recycles), its unit magnitudes
# and its scrambling are fixed; the seed varies only the stream coefficients.
FLOWSHEET_TOPOLOGY_SEED = 1505


def _flowsheet_topology(units, n_recycles, recycle_span):
    rng = np.random.default_rng(FLOWSHEET_TOPOLOGY_SEED)
    sizes = np.repeat(list(units), list(units.values()))
    sizes = sizes[rng.permutation(len(sizes))]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n_units = len(sizes)
    rows, cols = [], []

    def add(r, c):
        rows.append(np.atleast_1d(r))
        cols.append(np.atleast_1d(c))

    for u in range(n_units):
        lo, s = starts[u], sizes[u]
        members = np.arange(lo, lo + s)
        if s > 1:
            # a cycle through the unit keeps it strongly connected
            add(members, np.roll(members, -1))
            extra = s // 2
            add(rng.choice(members, extra), rng.choice(members, extra))
        # feed streams: equations of this unit read variables of earlier units
        for src in rng.choice(u, min(u, 2), replace=False) if u else ():
            k = 1 + int(rng.integers(2))
            add(rng.choice(members, k), starts[src] + rng.integers(0, sizes[src], k))
    recycle = []
    for _ in range(n_recycles):
        # a recycle stream from a later unit back to an earlier one merges
        # the units in between into one strongly connected component
        dst = int(rng.integers(0, n_units - recycle_span))
        src = dst + recycle_span
        for a_unit, b_unit in ((dst, src), *((w, w - 1) for w in range(dst + 1, src + 1))):
            recycle.append((starts[a_unit] + rng.integers(0, sizes[a_unit]),
                            starts[b_unit] + rng.integers(0, sizes[b_unit])))
    r = np.concatenate(rows + [np.array([p[0] for p in recycle])])
    c = np.concatenate(cols + [np.array([p[1] for p in recycle])])
    is_recycle = np.zeros(len(r), dtype=bool)
    is_recycle[len(r) - len(recycle):] = True
    keep = r != c
    return sizes, r[keep], c[keep], is_recycle[keep]


def flowsheet(seed, units=FLOWSHEET_UNIT_SIZES, n_recycles=6, recycle_span=4):
    """Nearly reducible flowsheet proxy with scrambled rows and columns."""
    sizes, r, c, is_recycle = _flowsheet_topology(units, n_recycles, recycle_span)
    n = int(sizes.sum())
    fixed = np.random.default_rng(FLOWSHEET_TOPOLOGY_SEED)
    coupling = fixed.uniform(0.2, 1.0, len(r)) * fixed.choice([-1.0, 1.0], len(r))
    coupling[is_recycle] *= 0.5
    diag_factor = fixed.uniform(1.5, 2.5, n) * fixed.choice([-1.0, 1.0], n)
    unit_of = np.repeat(np.arange(len(sizes)), sizes)
    row_mag = 10.0 ** fixed.uniform(-3.0, 3.0, len(sizes))
    col_mag = 10.0 ** fixed.uniform(-3.0, 3.0, len(sizes))
    row_perm = fixed.permutation(n)
    col_perm = fixed.permutation(n)

    rng = np.random.default_rng(seed)
    coupling *= 1.0 + rng.uniform(-PERTURBATION, PERTURBATION, len(r))
    off = Coo.build(n, r, c, coupling)
    colsum = np.bincount(off.cols, weights=np.abs(off.vals), minlength=n)
    # strict column diagonal dominance keeps A nonsingular before scaling
    diag = (colsum + 0.5) * diag_factor
    rows = np.concatenate([off.rows, np.arange(n)])
    cols = np.concatenate([off.cols, np.arange(n)])
    vals = np.concatenate([off.vals, diag]) * row_mag[unit_of[rows]] * col_mag[unit_of[cols]]
    return Coo.build(n, row_perm[rows], col_perm[cols], vals)
