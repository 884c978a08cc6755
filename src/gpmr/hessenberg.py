"""Simultaneous orthogonal Hessenberg reduction of an operator pair.

Given A (m x n), B (n x m) and nonzero starting vectors b, c, the
process builds orthonormal bases V = [v_1, v_2, ...] of the x-space and
U = [u_1, u_2, ...] of the y-space together with upper Hessenberg
coefficient columns h and f so that after k steps

    A U_k = V_{k+1} H_{k+1,k}      B V_k = U_{k+1} F_{k+1,k}

hold to machine precision, with nonnegative subdiagonals. One step
orthogonalizes A u_k against V and B v_k against U and normalizes the
remainders into v_{k+1}, u_{k+1}. By default the orthogonalization is
modified Gram-Schmidt (MGS); with ``reorth`` it is classical
Gram-Schmidt run twice (CGS2), which keeps the bases orthonormal to
working precision ("twice is enough": Giraud, Langou and Rozložník,
Comput. Math. Appl. 2005). :func:`orthogonalize` is the one kernel for
both, shared with GMRES.

The bases are stored row-major: basis vector j is one contiguous row of
a (capacity + 1, dim) array, exposed through its transpose so that
``V[:, j]`` keeps the usual column indexing. The orthogonalization then
streams over contiguous memory, and rows not yet reached are never
touched.

A vanishing remainder is a breakdown: the subdiagonal coefficient is set
to zero and the new basis vector is replaced by an arbitrary unit vector
orthogonal to the existing columns. Once a side spans its whole space no
replacement exists; the step then installs a zero column so the
recurrences above stay valid, which lets a caller run the process past
min(m, n) when m != n.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .operators import LinearOperator

# Remainder norms at or below this fraction of the unorthogonalized
# product norm count as breakdowns.
BREAKDOWN_RTOL = 1e-14

# A replacement candidate below this norm is indistinguishable from
# rounding noise, meaning the basis already spans the space.
_REPLACEMENT_MIN_NORM = 1e-8


class ReductionExhaustedError(RuntimeError):
    """No further reduction step is possible for this state."""


class HessenbergState:
    """Running bases and coefficient columns of the reduction process.

    Attributes:
        V, U: basis arrays of shape (m, capacity + 1), (n, capacity + 1);
            after k steps columns 0..k are populated. Each is the
            transpose of a C-ordered array, so a column is contiguous.
        Hcols, Fcols: per-step coefficient columns; step k appends arrays
            of length k + 1 whose last entry is the subdiagonal.
        beta, gamma: norms of the starting vectors.
        k: number of completed steps.
        breakdown_flags: one (v_side, u_side) flag pair per step.
    """

    def __init__(self, A: LinearOperator, B: LinearOperator, b, c, capacity: int):
        b = np.asarray(b, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        m, n = A.nrows, A.ncols
        if B.nrows != n or B.ncols != m:
            raise ValueError("B must have the transposed shape of A")
        if b.shape != (m,) or c.shape != (n,):
            raise ValueError("starting vector lengths do not match the operators")
        beta = float(np.linalg.norm(b))
        gamma = float(np.linalg.norm(c))
        if beta == 0.0 or gamma == 0.0:
            raise ValueError("starting vectors b and c must both be nonzero")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.A = A
        self.B = B
        self.capacity = int(capacity)
        self.V = np.zeros((capacity + 1, m)).T
        self.U = np.zeros((capacity + 1, n)).T
        self.V[:, 0] = b / beta
        self.U[:, 0] = c / gamma
        self.beta = beta
        self.gamma = gamma
        self.k = 0
        self.Hcols: list[np.ndarray] = []
        self.Fcols: list[np.ndarray] = []
        self.breakdown_flags: list[tuple[bool, bool]] = []
        self.v_saturated = False
        self.u_saturated = False

    @property
    def m(self) -> int:
        return self.V.shape[0]

    @property
    def n(self) -> int:
        return self.U.shape[0]

    def basis_v(self, k: int | None = None) -> np.ndarray:
        """First k columns of V (defaults to the completed count)."""
        return self.V[:, : self.k if k is None else k]

    def basis_u(self, k: int | None = None) -> np.ndarray:
        return self.U[:, : self.k if k is None else k]

    def hessenberg_h(self, k: int | None = None) -> np.ndarray:
        """Dense (k+1) x k matrix assembled from the h columns."""
        k = self.k if k is None else k
        H = np.zeros((k + 1, k))
        for j in range(k):
            H[: j + 2, j] = self.Hcols[j]
        return H

    def hessenberg_f(self, k: int | None = None) -> np.ndarray:
        k = self.k if k is None else k
        F = np.zeros((k + 1, k))
        for j in range(k):
            F[: j + 2, j] = self.Fcols[j]
        return F


def hessenberg_init(A: LinearOperator, B: LinearOperator, b, c,
                    capacity: int | None = None) -> HessenbergState:
    """Normalize the starting vectors and allocate basis storage.

    ``capacity`` bounds the number of steps the state can hold; it
    defaults to min(m, n), the point at which the shorter side of the
    basis is complete.
    """
    if capacity is None:
        capacity = min(A.nrows, A.ncols)
    return HessenbergState(A, B, b, c, capacity)


def _replacement_vector(basis: np.ndarray) -> np.ndarray | None:
    """Unit vector orthogonal to the given columns, or None if none exists.

    Tries canonical basis vectors in index order and takes the first
    whose orthogonalized remainder has norm above 0.5; if none clears
    that bar the largest remainder is reorthogonalized and used instead.
    """
    dim = basis.shape[0]
    best_norm = 0.0
    best = None
    for idx in range(dim):
        r = -basis @ basis[idx, :]
        r[idx] += 1.0
        norm = float(np.linalg.norm(r))
        if norm > 0.5:
            r -= basis @ (basis.T @ r)
            return r / np.linalg.norm(r)
        if norm > best_norm:
            best_norm = norm
            best = r
    if best is None or best_norm <= _REPLACEMENT_MIN_NORM:
        return None
    best -= basis @ (basis.T @ best)
    norm = float(np.linalg.norm(best))
    if norm <= _REPLACEMENT_MIN_NORM:
        return None
    return best / norm


def orthogonalize(rows: np.ndarray, w: np.ndarray, reorth: bool) -> np.ndarray:
    """Orthogonalize ``w`` in place against the orthonormal ``rows``.

    ``rows`` holds one basis vector per row, each contiguous; ``w`` is a
    contiguous float64 vector. Returns the coefficients c with
    w_in = c @ rows + w_out. Without ``reorth`` this is modified
    Gram-Schmidt, one dot product and one axpy per row in row order;
    with it, classical Gram-Schmidt run twice (two matrix-vector passes
    each way) with the coefficients of both passes summed.
    """
    if w.dtype != np.float64 or not w.flags.c_contiguous:
        # the BLAS axpy would update a copy and leave w as it was
        raise ValueError("w must be a contiguous float64 vector")
    if reorth:
        coeffs = rows @ w
        w -= coeffs @ rows
        corr = rows @ w
        w -= corr @ rows
        return coeffs + corr
    coeffs = np.empty(rows.shape[0])
    for i, row in enumerate(rows):
        c = ddot(row, w)
        coeffs[i] = c
        w = daxpy(row, w, a=-c)
    return coeffs


def hessenberg_step(state: HessenbergState, reorth: bool = False,
                    allow_padding: bool = False) -> HessenbergState:
    """Advance the reduction by one step, appending one h and one f column.

    The products are orthogonalized by :func:`orthogonalize`: modified
    Gram-Schmidt by default, CGS2 (classical Gram-Schmidt run twice, the
    coefficients of both passes summed) with ``reorth``. CGS2 keeps the
    bases orthonormal to working precision at twice the flops, done as
    matrix-vector products.

    Raises :class:`ReductionExhaustedError` once the basis is complete:
    at min(m, n) steps normally, or at max(m, n) steps when
    ``allow_padding`` lets the process continue with zero columns on the
    saturated side.
    """
    m, n = state.m, state.n
    limit = max(m, n) if allow_padding else min(m, n)
    if state.k >= limit:
        raise ReductionExhaustedError(
            f"basis complete after {state.k} steps (limit {limit})")
    if state.k >= state.capacity:
        raise ValueError(f"state capacity {state.capacity} exhausted")

    j = state.k
    # copies: the products are mutated in place by the orthogonalization,
    # and an operator may legally return a view of its input
    q = np.array(state.A.apply(state.U[:, j]), dtype=np.float64)
    p = np.array(state.B.apply(state.V[:, j]), dtype=np.float64)
    scale_q = float(np.linalg.norm(q))
    scale_p = float(np.linalg.norm(p))

    h = np.empty(j + 2)
    f = np.empty(j + 2)
    h[:-1] = orthogonalize(state.V[:, : j + 1].T, q, reorth)
    f[:-1] = orthogonalize(state.U[:, : j + 1].T, p, reorth)

    hq = float(np.linalg.norm(q))
    breakdown_v = j + 1 >= m or hq <= BREAKDOWN_RTOL * scale_q
    if breakdown_v:
        h[-1] = 0.0
        repl = None if state.v_saturated else _replacement_vector(state.V[:, : j + 1])
        if repl is None:
            state.V[:, j + 1] = 0.0
            state.v_saturated = True
        else:
            state.V[:, j + 1] = repl
    else:
        h[-1] = hq
        state.V[:, j + 1] = q / hq

    fp = float(np.linalg.norm(p))
    breakdown_u = j + 1 >= n or fp <= BREAKDOWN_RTOL * scale_p
    if breakdown_u:
        f[-1] = 0.0
        repl = None if state.u_saturated else _replacement_vector(state.U[:, : j + 1])
        if repl is None:
            state.U[:, j + 1] = 0.0
            state.u_saturated = True
        else:
            state.U[:, j + 1] = repl
    else:
        f[-1] = fp
        state.U[:, j + 1] = p / fp

    state.Hcols.append(h)
    state.Fcols.append(f)
    state.breakdown_flags.append((breakdown_v, breakdown_u))
    state.k = j + 1
    return state
