"""Minimum-residual solvers for 2x2 block partitioned linear systems.

The package implements GPMR, the orthogonal Hessenberg reduction it is
built on, GMRES and Block-GMRES baselines (``solve_partitioned`` runs
any of the three on a partitioned system), block-Jacobi preconditioning,
a Matrix Market reader and a command-line harness for convergence
experiments. Matrices are ``scipy.sparse.csr_array`` throughout;
``csr_from_coo``, ``csr_identity`` and ``spmv`` build and apply them.
"""

from .baselines import (
    METHODS,
    block_arnoldi_init,
    block_arnoldi_step,
    block_gmres_solve,
    gmres_solve,
    solve_partitioned,
)
from .hessenberg import (
    HessenbergState,
    ReductionExhaustedError,
    hessenberg_step,
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
    gpmr_solve,
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
    sparse_lu,
    spmv,
)

__all__ = [
    "BlockJacobiPreconditioner",
    "BlockSplit",
    "GraphPartitionError",
    "HessenbergState",
    "IndexOutOfRangeError",
    "LinearOperator",
    "METHODS",
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
    "gmres_solve",
    "gpmr_solve",
    "hessenberg_step",
    "load_matrix_market",
    "read_permutation",
    "recover_solution",
    "solve_partitioned",
    "sparse_lu",
    "spmv",
]
