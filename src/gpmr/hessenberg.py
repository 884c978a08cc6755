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
both, and :func:`arnoldi_step`, the step built on it, is shared with
GMRES.

The bases are stored row-major: basis vector j is one contiguous row of
a (capacity + 1, dim) array, exposed through its transpose so that
``V[:, j]`` keeps the usual column indexing. The orthogonalization then
streams over contiguous memory. The arrays are allocated uninitialized:
row j + 1 is written by step j, also on saturation, before any read.

A vanishing remainder is a breakdown: the subdiagonal coefficient is set
to zero and the new basis vector is replaced by an arbitrary unit vector
orthogonal to the existing columns, the canonical vector e_i whose basis
row i is shortest, projected out by CGS2. A side is saturated once its
basis spans the whole space, at step j with j + 1 >= dim; no replacement
exists and the step installs a zero column so the recurrences above stay
valid, which lets the process run past min(m, n) up to max(m, n) when
m != n. Both sides are one recurrence, :func:`_extend` (the Arnoldi step
plus saturation and replacement), applied to (A, U -> V) and
(B, V -> U).
"""

from __future__ import annotations

import numbers

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


def check_step_budget(name: str, value) -> None:
    """Reject a number of steps that is not an integer of at least one,
    naming it ``name`` in the ``ValueError``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


class HessenbergState:
    """Running bases and coefficient columns of the reduction process.

    Attributes:
        V, U: basis arrays of shape (m, capacity + 1), (n, capacity + 1);
            after k steps columns 0..k are populated and later ones
            are uninitialized. Each is the transpose of a C-ordered
            array, so a column is contiguous.
        Hcols, Fcols: per-step coefficient columns; step k appends arrays
            of length k + 1 whose last entry is the subdiagonal.
        beta, gamma: norms of the starting vectors.
        k: number of completed steps.
        breakdown_flags: one (v_side, u_side) flag pair per step. A
            side breaks down when its remainder vanishes and at every step
            j with j + 1 >= dim, where it is saturated and gets a zero
            column.
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
        check_step_budget("capacity", capacity)
        self.A = A
        self.B = B
        self.capacity = int(capacity)
        # uninitialized: each step writes column j + 1 before any read
        self.V = np.empty((capacity + 1, m)).T
        self.U = np.empty((capacity + 1, n)).T
        self.V[:, 0] = b / beta
        self.U[:, 0] = c / gamma
        self.beta = beta
        self.gamma = gamma
        self.k = 0
        self.Hcols: list[np.ndarray] = []
        self.Fcols: list[np.ndarray] = []
        self.breakdown_flags: list[tuple[bool, bool]] = []

    @property
    def m(self) -> int:
        return self.V.shape[0]

    @property
    def n(self) -> int:
        return self.U.shape[0]


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


def _replacement_vector(rows: np.ndarray) -> np.ndarray | None:
    """Unit vector orthogonal to the basis vectors ``rows`` (one per row),
    or None if none is found.

    Takes the canonical vector e_i whose component i is smallest across
    the basis, so for k < dim orthonormal rows its remainder has norm
    sqrt(1 - |rows[:, i]|^2) >= sqrt(1 - k/dim), and projects the basis
    out of it by :func:`orthogonalize` with ``reorth``. None means a
    remainder at rounding level, which an orthonormal basis with k < dim
    rows cannot give.
    """
    idx = int(np.argmin(np.einsum("ij,ij->j", rows, rows)))
    r = np.zeros(rows.shape[1])
    r[idx] = 1.0
    orthogonalize(rows, r, reorth=True)
    norm = float(np.linalg.norm(r))
    if norm <= _REPLACEMENT_MIN_NORM:
        return None
    return r / norm


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


def arnoldi_step(rows: np.ndarray, j: int, w: np.ndarray, reorth: bool):
    """Step j of an Arnoldi process on the basis ``rows``, one vector per
    row: orthogonalize the product ``w`` in place against rows 0..j and,
    unless its remainder is at most ``BREAKDOWN_RTOL`` times its norm on
    entry, normalize it into row j + 1. Returns the coefficient column,
    whose last entry is the subdiagonal (zero on a breakdown, when row
    j + 1 is left as it was), and the breakdown flag.
    """
    scale = float(np.linalg.norm(w))
    col = np.empty(j + 2)
    col[:-1] = orthogonalize(rows[: j + 1], w, reorth)
    norm = float(np.linalg.norm(w))
    # a NaN norm is no breakdown: it goes on into the column and the row
    if not norm <= BREAKDOWN_RTOL * scale:
        col[-1] = norm
        rows[j + 1] = w / norm
        return col, False
    col[-1] = 0.0
    return col, True


def _extend(rows: np.ndarray, j: int, w: np.ndarray, reorth: bool):
    """One side of step j: :func:`arnoldi_step`, then zeros in row j + 1
    and the subdiagonal on a saturated side, or a replacement row after a
    breakdown. Returns the coefficient column and the breakdown flag.
    """
    col, breakdown = arnoldi_step(rows, j, w, reorth)
    saturated = j + 1 >= rows.shape[1]
    if saturated or breakdown:
        col[-1] = 0.0
        repl = None if saturated else _replacement_vector(rows[: j + 1])
        rows[j + 1] = 0.0 if repl is None else repl
    return col, saturated or breakdown


def hessenberg_step(state: HessenbergState, reorth: bool = False) -> HessenbergState:
    """Advance the reduction by one step, appending one h and one f column.

    The products are orthogonalized by :func:`orthogonalize`: modified
    Gram-Schmidt by default, CGS2 (classical Gram-Schmidt run twice, the
    coefficients of both passes summed) with ``reorth``. CGS2 keeps the
    bases orthonormal to working precision at twice the flops, done as
    matrix-vector products.

    Past min(m, n) steps the saturated side gets zero columns; raises
    :class:`ReductionExhaustedError` once both bases are complete, at
    max(m, n) steps.
    """
    limit = max(state.m, state.n)
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
    h, breakdown_v = _extend(state.V.T, j, q, reorth)
    f, breakdown_u = _extend(state.U.T, j, p, reorth)

    state.Hcols.append(h)
    state.Fcols.append(f)
    state.breakdown_flags.append((breakdown_v, breakdown_u))
    state.k = j + 1
    return state
