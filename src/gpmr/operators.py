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
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import SuperLU

from .sparse import _DECIMAL_INTEGER, SingularMatrixError, sparse_lu, spmv


class GraphPartitionError(ValueError):
    """Partitioning was requested on an unusable matrix."""


class PreconditionerError(RuntimeError):
    """A diagonal block could not be factored; ``block`` names it."""

    def __init__(self, block: str, cause: SingularMatrixError):
        self.block = block
        super().__init__(f"diagonal block {block} is singular: {cause}")


class LinearOperator:
    """Matrix-free linear map between real coordinate spaces."""

    __slots__ = ("nrows", "ncols", "_apply")

    def __init__(self, nrows, ncols, apply):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self._apply = apply

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"operator is {self.nrows}x{self.ncols}, got vector {x.shape}")
        y = np.asarray(self._apply(x), dtype=np.float64)
        if y.shape != (self.nrows,):
            raise ValueError(
                f"operator is {self.nrows}x{self.ncols}, returned vector {y.shape}")
        return y

    @classmethod
    def from_matrix(cls, M: scipy.sparse.csr_array) -> "LinearOperator":
        return cls(*M.shape, lambda x: spmv(M, x))


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


def bisect_graph(C: scipy.sparse.csr_array) -> BlockSplit:
    """Split the symmetrized adjacency graph of ``C`` into two halves.

    Vertices are ordered by breadth-first level sets grown from a
    pseudo-peripheral vertex of each connected component. The components
    follow one another in the order of their first vertex in (degree,
    index) order, so vertices without neighbors come first, in index
    order. The boundary level is split in discovery order so the parts
    are balanced to within one vertex, and part-1 vertices come first in
    ``perm``.

    The graph holds every stored entry of ``C``, explicit zeros included,
    and no self loops. ``scipy.sparse.csgraph.breadth_first_order`` walks
    its sorted neighbor lists with ``directed=True``, in index order;
    ``directed=False`` on C's own pattern would walk C's and C^T's
    neighbors in turn, which changes the order.

    All components are searched at once: one extra vertex with an edge to
    each component's root joins them, so each pass of the root search is
    one traversal of the whole graph whatever the number of components.
    A first-in first-out traversal from that vertex meets each component's
    vertices in the order a traversal from its root alone would, and a
    vertex's level is its depth in the traversal tree less one.
    """
    order_n, ncols = C.shape
    if order_n != ncols:
        raise GraphPartitionError("matrix must be square")
    if order_n < 2:
        raise GraphPartitionError("need at least two vertices to bisect")
    P = scipy.sparse.csr_array((np.ones(C.nnz), C.indices, C.indptr), shape=C.shape)
    upper = scipy.sparse.triu(P + P.T, k=1, format="csr")
    G = (upper + upper.T).tocsr()
    G.sum_duplicates()
    degrees = np.diff(G.indptr)
    by_degree = np.lexsort((np.arange(order_n), degrees))
    # G is symmetric, so its strong components are its connected components
    ncomp, labels = connected_components(G, directed=True, connection="strong")
    # each component starts from its first vertex in (degree, index) order
    _, start = np.unique(labels[by_degree], return_index=True)
    roots = by_degree[start]

    def traverse(roots):
        """Breadth-first order from all of ``roots`` at once, and the level
        of every vertex (-1 where no root reaches)."""
        joined = scipy.sparse.csr_array(
            (np.ones(G.nnz + roots.size), np.concatenate([G.indices, np.sort(roots)]),
             np.append(G.indptr, G.nnz + roots.size)),
            shape=(order_n + 1, order_n + 1))
        order, pred = breadth_first_order(joined, order_n, directed=True)
        # pointer jumping: depth[v] is the distance from v up to ancestor[v]
        ancestor = np.where(pred >= 0, pred, np.arange(order_n + 1))
        depth = (pred >= 0).astype(np.int64)
        while not np.array_equal(up := ancestor[ancestor], ancestor):
            depth += depth[ancestor]
            ancestor = up
        return order[1:], depth[:order_n] - 1

    # the root moves to the far end (least degree, then least index, in the
    # last BFS level) until the eccentricity stops growing
    ecc = np.full(ncomp, -1)
    searching = np.ones(ncomp, dtype=bool)
    for _ in range(64):
        _, level = traverse(roots[searching])
        new_ecc = np.full(ncomp, -1)
        np.maximum.at(new_ecc, labels, level)
        searching &= new_ecc > ecc
        if not searching.any():
            break
        ecc[searching] = new_ecc[searching]
        last = np.flatnonzero(searching[labels] & (level == ecc[labels]))
        last = last[np.lexsort((last, degrees[last], labels[last]))]
        _, first = np.unique(labels[last], return_index=True)
        roots[labels[last[first]]] = last[first]
    order, _ = traverse(roots)
    # the components one after the other, each in its own discovery order
    perm = order[np.argsort(start[labels[order]], kind="stable")]
    m = (order_n + 1) // 2
    return BlockSplit(perm=perm, m=m, n=order_n - m)


def extract_blocks(C: scipy.sparse.csr_array, split: BlockSplit):
    """Permute ``C`` by ``split.perm`` and cut it into (M, A, B, N).

    Every stored entry, explicit zeros included, lands in one block.
    """
    if C.shape[0] != C.shape[1]:
        raise ValueError("matrix must be square")
    if C.shape[0] != split.order:
        raise ValueError("split order does not match matrix order")
    m, perm = split.m, split.perm
    P = C[perm][:, perm]
    blocks = (P[:m, :m], P[:m, m:], P[m:, :m], P[m:, m:])
    for X in blocks:
        X.sort_indices()
    return blocks


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
    """SuperLU factors of the two diagonal blocks, applied as
    blkdiag(M, N)^{-1} to float64 arrays of the blocks' orders."""

    Mfac: SuperLU
    Nfac: SuperLU

    def apply(self, x, y):
        return self.Mfac.solve(x), self.Nfac.solve(y)


def build_preconditioned_system(M, A, B, N, b_star, c_star, lam=1.0, mu=1.0):
    """Assemble the right block-Jacobi preconditioned system.

    The operators become x -> A (N \\ x) and y -> B (M \\ y); the left
    preconditioner is the identity, so the right-hand side and residual
    norms are unchanged from the original system. With the default
    lam = mu = 1 the result is exactly the original system pushed through
    blkdiag(M, N)^{-1} on the right.
    """
    (m, m_cols), (n, n_cols) = M.shape, N.shape
    if m_cols != m or n_cols != n:
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

    A_op = LinearOperator(m, n, lambda x: spmv(A, Nfac.solve(x)))
    B_op = LinearOperator(n, m, lambda y: spmv(B, Mfac.solve(y)))
    system = PartitionedSystem(lam=lam, mu=mu, A=A_op, B=B_op,
                               b=np.asarray(b_star, dtype=np.float64),
                               c=np.asarray(c_star, dtype=np.float64))
    return system, BlockJacobiPreconditioner(Mfac, Nfac)


def recover_solution(prec: BlockJacobiPreconditioner, x, y):
    """Map a preconditioned-system solution back to the original unknowns.
    ``x`` and ``y`` must be vectors of the two blocks' orders."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (prec.Mfac.shape[0],) or y.shape != (prec.Nfac.shape[0],):
        raise ValueError(f"solution shapes {x.shape}, {y.shape} do not match the "
                         f"block orders {prec.Mfac.shape[0]}, {prec.Nfac.shape[0]}")
    return prec.apply(x, y)


def read_permutation(source) -> BlockSplit:
    """Read a split from text: first line ``m n``, then one index per line.

    Blank lines are skipped. Every number is a plain decimal integer, as
    in :func:`~gpmr.sparse.parse_matrix_market`: digit separators
    (``1_0``) are rejected. An error names its line, counted from 1 with
    blank lines included.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    lines = [(lineno, ln.split()) for lineno, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise ValueError("empty permutation file")
    (head_no, head), *rest = lines
    if len(head) != 2 or not all(_DECIMAL_INTEGER.fullmatch(f) for f in head):
        raise ValueError(f"line {head_no}: expected 'm n', got {' '.join(head)!r}")
    m, n = int(head[0]), int(head[1])
    perm = []
    for lineno, fields in rest:
        if len(fields) != 1 or not _DECIMAL_INTEGER.fullmatch(fields[0]):
            raise ValueError(f"line {lineno}: expected one index, got {' '.join(fields)!r}")
        index = int(fields[0])
        if not 0 <= index < m + n:
            raise ValueError(f"line {lineno}: index {index} outside 0..{m + n - 1}")
        perm.append(index)
    return BlockSplit(perm=np.array(perm, dtype=np.int64), m=m, n=n)
