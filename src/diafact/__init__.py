"""Approximate factoring of sparse matrix inverses for right preconditioning.

The package builds sparse factors W and V with A^{-1} ~= W V^{-1}, where V
is confined to an easily invertible (block triangular) subspace, and drives
them through a preconditioned BiCGSTAB harness.
"""

from .sparse import (
    MatrixMarketError,
    SparseMatrix,
    SparseVector,
    SubspacePattern,
    ColumnSubmatrix,
    read_matrix_market,
    write_matrix_market,
    extract_columns,
    pattern_subtract_offdiag,
    spmv,
    residual_fro,
)
from .kernels import QRFactors, SVDFactors, qr_householder, svd_small, lstsq
from .preprocess import (
    Permutation,
    Scaling,
    BlockStructure,
    StructuralSingularityError,
    max_transversal,
    equilibrate,
    scc_block_structure,
    block_pattern,
)
from .patterns import (
    DropRule,
    NeumannConfig,
    neumann_pattern,
    adjoint_pattern,
    select_v_pattern,
)
from .factor import (
    FactorPair,
    StabilizationPolicy,
    diaf_q,
    diaf_s,
)
from .krylov import (
    SingularBlockError,
    VFactorization,
    SolveReport,
    factor_v,
    apply_right_precond,
    bicgstab,
    cond_estimate,
)
from .bench import ExperimentConfig, ResultRow, run_experiment, emit_report

__version__ = "0.1.0"
