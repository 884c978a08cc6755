"""Minimum-residual solvers for 2x2 block partitioned linear systems.

The package implements GPMR, the orthogonal Hessenberg reduction it is
built on, GMRES and Block-GMRES baselines, block-Jacobi preconditioning,
Matrix Market I/O and a command-line harness for convergence
experiments. Matrices are ``scipy.sparse.csr_array`` throughout;
``csr_from_coo``, ``csr_identity`` and ``spmv`` build and apply them.
"""

from .baselines import (
    BlockArnoldiState,
    block_arnoldi_init,
    block_arnoldi_step,
    block_gmres_solve,
    gmres_solve,
)
from .hessenberg import (
    HessenbergState,
    ReductionExhaustedError,
    hessenberg_init,
    hessenberg_step,
    orthogonalize,
)
from .operators import (
    BlockJacobiPreconditioner,
    BlockSplit,
    GraphPartitionError,
    LinearOperator,
    PartitionedSystem,
    PreconditionerError,
    bisect_graph,
    build_preconditioned_system,
    extract_blocks,
    read_permutation,
    recover_solution,
)
from .solver import (
    SingularSubproblemError,
    SolveReport,
    backward_substitution,
    givens,
    gpmr_solve,
    ref,
)
from .sparse import (
    IndexOutOfRangeError,
    MalformedEntryError,
    MalformedHeaderError,
    MatrixMarketError,
    SingularMatrixError,
    UnsupportedFormatError,
    csr_from_coo,
    csr_identity,
    load_matrix_market,
    parse_matrix_market,
    sparse_lu,
    spmv,
    write_matrix_market,
)

__all__ = [
    "BlockArnoldiState",
    "BlockJacobiPreconditioner",
    "BlockSplit",
    "GraphPartitionError",
    "HessenbergState",
    "IndexOutOfRangeError",
    "LinearOperator",
    "MalformedEntryError",
    "MalformedHeaderError",
    "MatrixMarketError",
    "PartitionedSystem",
    "PreconditionerError",
    "ReductionExhaustedError",
    "SingularMatrixError",
    "SingularSubproblemError",
    "SolveReport",
    "UnsupportedFormatError",
    "backward_substitution",
    "bisect_graph",
    "block_arnoldi_init",
    "block_arnoldi_step",
    "block_gmres_solve",
    "build_preconditioned_system",
    "csr_from_coo",
    "csr_identity",
    "extract_blocks",
    "givens",
    "gmres_solve",
    "gpmr_solve",
    "hessenberg_init",
    "hessenberg_step",
    "load_matrix_market",
    "orthogonalize",
    "parse_matrix_market",
    "read_permutation",
    "recover_solution",
    "ref",
    "sparse_lu",
    "spmv",
    "write_matrix_market",
]
