"""Linear operators, graph bisection and block-Jacobi preconditioning.

Turns a monolithic square matrix into the partitioned form

    [ M  A* ] [x*]   [b*]
    [ B* N  ] [y*] = [c*]

and, with the right preconditioner blkdiag(M, N), into the equivalent
system with identity diagonal blocks that the solvers consume. The
bisection is scipy's breadth-first search (``breadth_first_order`` with
``directed=True``) over the symmetrized pattern; the permutation and the
cut into blocks are scipy sparse indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import breadth_first_order, shortest_path

from .sparse import (
    LUFactors,
    SingularMatrixError,
    SparseMatrix,
    lu_solve,
    sparse_lu,
    spmv,
    spmv_transpose,
)


class GraphPartitionError(ValueError):
    """Partitioning was requested on an unusable matrix."""


class PreconditionerError(RuntimeError):
    """A diagonal block could not be factored; ``block`` names it."""

    def __init__(self, block: str, cause: SingularMatrixError):
        self.block = block
        super().__init__(f"diagonal block {block} is singular: {cause}")


class LinearOperator:
    """Matrix-free linear map between real coordinate spaces."""

    __slots__ = ("nrows", "ncols", "_apply", "_apply_transpose")

    def __init__(self, nrows, ncols, apply, apply_transpose=None):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self._apply = apply
        self._apply_transpose = apply_transpose

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"operator is {self.nrows}x{self.ncols}, got vector {x.shape}")
        return np.asarray(self._apply(x), dtype=np.float64)

    @property
    def has_transpose(self) -> bool:
        return self._apply_transpose is not None

    def apply_transpose(self, x) -> np.ndarray:
        if self._apply_transpose is None:
            raise ValueError("operator has no transpose map")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.nrows,):
            raise ValueError(f"operator is {self.nrows}x{self.ncols}, got vector {x.shape}")
        return np.asarray(self._apply_transpose(x), dtype=np.float64)

    @classmethod
    def from_matrix(cls, M: SparseMatrix) -> "LinearOperator":
        return cls(M.nrows, M.ncols,
                   lambda x: spmv(M, x),
                   lambda x: spmv_transpose(M, x))

    @classmethod
    def from_dense(cls, arr) -> "LinearOperator":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(arr.shape[0], arr.shape[1],
                   lambda x: arr @ x,
                   lambda x: arr.T @ x)

    @classmethod
    def identity(cls, n: int) -> "LinearOperator":
        return cls(n, n, lambda x: x.copy(), lambda x: x.copy())


@dataclass(frozen=True)
class BlockSplit:
    """Two-way vertex split; ``perm[i]`` is the original index at position i."""

    perm: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        perm = np.ascontiguousarray(self.perm, dtype=np.int64)
        object.__setattr__(self, "perm", perm)
        order = self.m + self.n
        if self.m < 1 or self.n < 1:
            raise ValueError("both parts must be nonempty")
        if perm.shape != (order,) or not np.array_equal(np.sort(perm), np.arange(order)):
            raise ValueError("perm must be a bijection over 0..m+n-1")

    @property
    def order(self) -> int:
        return self.m + self.n


def bisect_graph(C: SparseMatrix) -> BlockSplit:
    """Split the symmetrized adjacency graph of ``C`` into two halves.

    Vertices are ordered by breadth-first level sets grown from a
    pseudo-peripheral vertex (components are traversed one after the
    other, restarting from a minimum-degree unvisited vertex). The
    boundary level is split in discovery order so the parts are balanced
    to within one vertex, and part-1 vertices come first in ``perm``.

    The graph holds every stored entry of ``C``, explicit zeros included,
    and no self loops. ``scipy.sparse.csgraph.breadth_first_order`` walks
    its sorted neighbor lists with ``directed=True``, in index order;
    ``directed=False`` on C's own pattern would walk C's and C^T's
    neighbors in turn, which changes the order. BFS levels are unweighted
    distances from ``scipy.sparse.csgraph.shortest_path``.
    """
    if C.nrows != C.ncols:
        raise GraphPartitionError("matrix must be square")
    order_n = C.nrows
    if order_n < 2:
        raise GraphPartitionError("need at least two vertices to bisect")
    P = scipy.sparse.csr_array((np.ones(C.nnz_stored), C.col_indices, C.row_offsets),
                               shape=C.shape)
    upper = scipy.sparse.triu(P + P.T, k=1, format="csr")
    G = (upper + upper.T).tocsr()
    G.sum_duplicates()
    degrees = np.diff(G.indptr)
    by_degree = np.lexsort((np.arange(order_n), degrees))
    visited = np.zeros(order_n, dtype=bool)
    pieces = []
    while not visited.all():
        # each component starts from its first vertex in (degree, index)
        # order; the root moves to the far end (least degree, then least
        # index, in the last BFS level) until the eccentricity stops growing
        root = int(by_degree[np.argmin(visited[by_degree])])
        ecc = -1
        for _ in range(64):
            level = shortest_path(G, directed=True, unweighted=True, indices=root)
            new_ecc = level[np.isfinite(level)].max()
            if new_ecc <= ecc:
                break
            ecc = new_ecc
            last = np.flatnonzero(level == new_ecc)
            root = int(last[np.lexsort((last, degrees[last]))[0]])
        pieces.append(breadth_first_order(G, root, directed=True,
                                          return_predecessors=False))
        visited[pieces[-1]] = True
    m = (order_n + 1) // 2
    return BlockSplit(perm=np.concatenate(pieces), m=m, n=order_n - m)


def extract_blocks(C: SparseMatrix, split: BlockSplit):
    """Permute ``C`` by ``split.perm`` and cut it into (M, A, B, N).

    Every stored entry, explicit zeros included, lands in one block.
    """
    if C.nrows != C.ncols:
        raise ValueError("matrix must be square")
    if C.nrows != split.order:
        raise ValueError("split order does not match matrix order")
    m, perm = split.m, split.perm
    P = scipy.sparse.csr_array((C.values, C.col_indices, C.row_offsets),
                               shape=C.shape)[perm][:, perm]
    blocks = (P[:m, :m], P[:m, m:], P[m:, :m], P[m:, m:])
    for X in blocks:
        X.sort_indices()
    return tuple(SparseMatrix(*X.shape, X.indptr, X.indices, X.data) for X in blocks)


@dataclass
class PartitionedSystem:
    """Preconditioned block system (lam, A, B, mu) with right-hand sides b, c."""

    lam: float
    mu: float
    A: LinearOperator
    B: LinearOperator
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        m, n = self.A.nrows, self.A.ncols
        if self.B.nrows != n or self.B.ncols != m:
            raise ValueError("B must map the x-space to the y-space")
        if self.b.shape != (m,) or self.c.shape != (n,):
            raise ValueError("right-hand side lengths do not match the blocks")
        if not np.any(self.b) or not np.any(self.c):
            raise ValueError("b and c must both be nonzero")
        # a fixed random probe: a ones vector lies in the null space of nonzero
        # operators whose rows sum to zero; an overflow counts as nonzero
        rng = np.random.default_rng(0)
        with np.errstate(over="ignore", invalid="ignore"):
            nonzero = (np.any(self.A.apply(rng.standard_normal(n)))
                       and np.any(self.B.apply(rng.standard_normal(m))))
        if not nonzero:
            raise ValueError("A and B must be nonzero operators")

    @property
    def m(self) -> int:
        return self.A.nrows

    @property
    def n(self) -> int:
        return self.A.ncols

    @property
    def order(self) -> int:
        return self.m + self.n

    def rhs_full(self) -> np.ndarray:
        return np.concatenate([self.b, self.c])

    def apply_full(self, xy) -> np.ndarray:
        xy = np.asarray(xy, dtype=np.float64)
        x, y = xy[: self.m], xy[self.m:]
        return np.concatenate([self.lam * x + self.A.apply(y),
                               self.B.apply(x) + self.mu * y])

    def full_operator(self) -> LinearOperator:
        return LinearOperator(self.order, self.order, self.apply_full)

    def residual_norm(self, x, y) -> float:
        r = self.rhs_full() - self.apply_full(np.concatenate([x, y]))
        return float(np.linalg.norm(r))


@dataclass(frozen=True)
class BlockJacobiPreconditioner:
    """LU factors of the two diagonal blocks, applied as blkdiag(M, N)^{-1}."""

    Mfac: LUFactors
    Nfac: LUFactors

    def apply(self, x, y):
        return lu_solve(self.Mfac, x), lu_solve(self.Nfac, y)


def build_preconditioned_system(M, A, B, N, b_star, c_star, lam=1.0, mu=1.0):
    """Assemble the right block-Jacobi preconditioned system.

    The operators become x -> A (N \\ x) and y -> B (M \\ y); the left
    preconditioner is the identity, so the right-hand side and residual
    norms are unchanged from the original system. With the default
    lam = mu = 1 the result is exactly the original system pushed through
    blkdiag(M, N)^{-1} on the right.
    """
    m, n = M.nrows, N.nrows
    if M.ncols != m or N.ncols != n:
        raise ValueError("diagonal blocks must be square")
    if A.shape != (m, n) or B.shape != (n, m):
        raise ValueError("off-diagonal block shapes do not match")
    try:
        Mfac = sparse_lu(M)
    except SingularMatrixError as exc:
        raise PreconditionerError("M", exc) from exc
    try:
        Nfac = sparse_lu(N)
    except SingularMatrixError as exc:
        raise PreconditionerError("N", exc) from exc

    A_op = LinearOperator(m, n, lambda x: spmv(A, lu_solve(Nfac, x)))
    B_op = LinearOperator(n, m, lambda y: spmv(B, lu_solve(Mfac, y)))
    system = PartitionedSystem(lam=lam, mu=mu, A=A_op, B=B_op,
                               b=np.asarray(b_star, dtype=np.float64),
                               c=np.asarray(c_star, dtype=np.float64))
    return system, BlockJacobiPreconditioner(Mfac, Nfac)


def recover_solution(prec: BlockJacobiPreconditioner, x, y):
    """Map a preconditioned-system solution back to the original unknowns."""
    return prec.apply(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))


def read_permutation(source) -> BlockSplit:
    """Read a split from text: first line ``m n``, then one index per line."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty permutation file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must contain 'm n'")
    try:
        m, n = int(head[0]), int(head[1])
        perm = np.array([int(ln) for ln in lines[1:]], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"unreadable permutation file: {exc}") from exc
    return BlockSplit(perm=perm, m=m, n=n)


def write_permutation(split: BlockSplit, target) -> None:
    text = f"{split.m} {split.n}\n" + "\n".join(str(int(i)) for i in split.perm) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)
