"""Linear operators, graph bisection and block-Jacobi preconditioning.

Turns a monolithic square matrix into the partitioned form

    [ M  A* ] [x*]   [b*]
    [ B* N  ] [y*] = [c*]

and, with the right preconditioner blkdiag(M, N), into the equivalent
system with identity diagonal blocks that the solvers consume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sparse import (
    LUFactors,
    SingularMatrixError,
    SparseMatrix,
    csr_from_coo,
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


def _adjacency(C: SparseMatrix) -> list[np.ndarray]:
    """Sorted neighbor lists of the symmetrized pattern, no self loops."""
    n = C.nrows
    counts = np.diff(C.row_offsets)
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    cols = C.col_indices
    src = np.concatenate([rows, cols])
    dst = np.concatenate([cols, rows])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    adj: list[np.ndarray] = []
    offsets = np.searchsorted(src, np.arange(n + 1))
    for v in range(n):
        nbrs = dst[offsets[v]:offsets[v + 1]]
        adj.append(np.unique(nbrs))
    return adj


def _bfs_levels(adj, start, allowed):
    level = {start: 0}
    queue = deque([start])
    order = [start]
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            w = int(w)
            if allowed[w] and w not in level:
                level[w] = level[v] + 1
                queue.append(w)
                order.append(w)
    return order, level


def _pseudo_peripheral(adj, start, allowed):
    degrees = [len(a) for a in adj]
    u = start
    ecc = -1
    for _ in range(64):
        order, level = _bfs_levels(adj, u, allowed)
        new_ecc = max(level.values())
        if new_ecc <= ecc:
            return u
        ecc = new_ecc
        last = [v for v in order if level[v] == new_ecc]
        u = min(last, key=lambda v: (degrees[v], v))
    return u


def bisect_graph(C: SparseMatrix) -> BlockSplit:
    """Split the symmetrized adjacency graph of ``C`` into two halves.

    Vertices are ordered by breadth-first level sets grown from a
    pseudo-peripheral vertex (components are traversed one after the
    other, restarting from a minimum-degree unvisited vertex). The
    boundary level is split in discovery order so the parts are balanced
    to within one vertex, and part-1 vertices come first in ``perm``.
    """
    if C.nrows != C.ncols:
        raise GraphPartitionError("matrix must be square")
    order_n = C.nrows
    if order_n < 2:
        raise GraphPartitionError("need at least two vertices to bisect")
    adj = _adjacency(C)
    degrees = [len(a) for a in adj]
    visited = np.zeros(order_n, dtype=bool)
    ordering: list[int] = []
    while len(ordering) < order_n:
        remaining = np.flatnonzero(~visited)
        start = int(min(remaining, key=lambda v: (degrees[v], v)))
        allowed = ~visited
        root = _pseudo_peripheral(adj, start, allowed)
        comp_order, _ = _bfs_levels(adj, root, allowed)
        ordering.extend(comp_order)
        visited[comp_order] = True
    m = (order_n + 1) // 2
    return BlockSplit(perm=np.asarray(ordering, dtype=np.int64), m=m, n=order_n - m)


def extract_blocks(C: SparseMatrix, split: BlockSplit):
    """Permute ``C`` by ``split.perm`` and cut it into (M, A, B, N)."""
    if C.nrows != C.ncols:
        raise ValueError("matrix must be square")
    if C.nrows != split.order:
        raise ValueError("split order does not match matrix order")
    m, n = split.m, split.n
    pinv = np.empty(split.order, dtype=np.int64)
    pinv[split.perm] = np.arange(split.order, dtype=np.int64)

    blocks = {key: ([], [], []) for key in ("M", "A", "B", "N")}

    def push(key, row, col_arr, val_arr):
        if col_arr.size:
            ri, ci, vi = blocks[key]
            ri.append(np.full(col_arr.size, row, np.int64))
            ci.append(col_arr)
            vi.append(val_arr)

    for new_i, old_i in enumerate(split.perm):
        cols, vals = C.row(int(old_i))
        if cols.size == 0:
            continue
        new_cols = pinv[cols]
        left = new_cols < m
        if new_i < m:
            push("M", new_i, new_cols[left], vals[left])
            push("A", new_i, new_cols[~left] - m, vals[~left])
        else:
            push("B", new_i - m, new_cols[left], vals[left])
            push("N", new_i - m, new_cols[~left] - m, vals[~left])

    def build(key, rows_, cols_):
        ri, ci, vi = blocks[key]
        if ri:
            return csr_from_coo(rows_, cols_,
                                np.concatenate(ri), np.concatenate(ci), np.concatenate(vi))
        return csr_from_coo(rows_, cols_, [], [], [])

    return build("M", m, m), build("A", m, n), build("B", n, m), build("N", n, n)


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
        # a fixed random probe: a ones vector lies in the null space of
        # nonzero operators whose rows sum to zero
        rng = np.random.default_rng(0)
        if (not np.any(self.A.apply(rng.standard_normal(n)))
                or not np.any(self.B.apply(rng.standard_normal(m)))):
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
