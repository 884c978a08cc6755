"""GMRES without restart, the block-Arnoldi process and Block-GMRES.

These serve two roles: reference solvers for iteration-count comparisons
and independent oracles for the structure produced by the Hessenberg
reduction pair. Block-Arnoldi is kept fully generic (dense 2x2
coefficient blocks, plain QR normalization) on purpose, so that any
sparsity appearing in its output is evidence rather than construction.
Its pairs are stored as two contiguous rows each, and one helper,
:func:`_project_out`, runs the pairwise block modified Gram-Schmidt pass
(and, with ``reorth``, the second pass) as two in-place BLAS ``dgemm``
calls per stored pair. Each remainder is copied once, columns reversed,
into the storage of the next pair, where LAPACK ``dgeqrf`` and
``dorgqr`` (the Householder routines behind ``np.linalg.qr``, with the
same results bit for bit) factor it in place; the starting block is
factored the same way in the first pair. :func:`solve_partitioned` runs
GPMR or either baseline on one partitioned system and returns one
report, Block-GMRES's two iterates summed.
Block-GMRES updates a QR factorization of the block-Hessenberg matrix
one column pair per iteration with 4x4 orthogonal factors, each from one
``dgeqrf`` and one ``dorgqr`` call and kept as its transpose, and reads
its residual norms off the transformed right-hand side. Both columns'
targets come from the whole 2x2 factor Gamma of the starting block, D =
w_1 Gamma, off-diagonal entry included, so D's columns need not be
orthogonal. GMRES's triangle and Block-GMRES's go through GPMR's BLAS
``dtpsv`` back-substitution, once at the end of a solve.

The Krylov bases (GMRES's vectors, block-Arnoldi's pairs) are the only
arrays sized by the iteration budget. Everything else a solve keeps
grows by one entry per iteration in Python lists: GMRES's rotated
columns and rotations, block-Arnoldi's coefficient column pairs (reduced
in place by Block-GMRES), its QR factors and transformed right-hand sides.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgeqrf, dorgqr

from .hessenberg import BREAKDOWN_RTOL, arnoldi_step, check_step_budget
from .operators import LinearOperator, PartitionedSystem
from .solver import (
    SolveReport,
    backward_substitution,
    check_stopping_rule,
    end_solve,
    quiet_nonfinite,
    gpmr_solve,
    reflection_coefficients,
)


def _split_point(split, dim: int) -> int:
    """Where ``split=(m, n)`` cuts a solution of length ``dim`` into x and
    y, at ``dim`` without one; anything but two integers >= 0 summing to
    ``dim`` is a ValueError."""
    if split is None:
        return dim
    if (len(split) != 2
            or not all(isinstance(p, numbers.Integral) and p >= 0 for p in split)
            or sum(split) != dim):
        raise ValueError(f"split {split!r} is not two integers >= 0 summing to {dim}")
    return split[0]


@quiet_nonfinite
def gmres_solve(K: LinearOperator, d, atol: float, rtol: float, k_max: int,
                *, reorth: bool = False, split=None) -> SolveReport:
    """Minimum-residual solve of K x = d over growing Krylov subspaces.

    Arnoldi through :func:`~gpmr.hessenberg.arnoldi_step` (modified
    Gram-Schmidt, or CGS2 with ``reorth``) plus one Givens reflection
    per column; stopping rule |r_k| <= atol + rtol * |d|. A residual
    norm that is not finite ends the solve with ``nonfinite`` and the
    last iterate whose residual norm was finite (zeros if the initial
    one is not). A rotated column that is exactly zero (on a singular K)
    is not counted: the solve ends ``exhausted`` with the last
    well-posed iterate. ``split=(m, n)`` places the two solution blocks
    in the report's x and y fields; without it the full vector lands in
    x. The basis is one row per vector of a (cap + 1, dim) array,
    allocated uninitialized: row k + 1 is written by step k before any
    read. Each Hessenberg column is rotated as a Python list and kept as
    a float64 array of its upper entries; at the end GPMR's packed
    back-substitution (BLAS ``dtpsv``) solves the triangle they form.
    The transformed right-hand side is a list; diagnostics are empty.
    A bad ``split`` is a ValueError before the first apply.
    """
    check_stopping_rule(atol, rtol, k_max)
    d = np.asarray(d, dtype=np.float64)
    dim = K.nrows
    if d.shape != (dim,):
        raise ValueError("right-hand side length does not match the operator")
    cut = _split_point(split, dim)
    norm_d = float(np.linalg.norm(d))
    if norm_d == 0.0:
        raise ValueError("right-hand side must be nonzero")
    cap = min(k_max, dim)

    V = np.empty((cap + 1, dim)).T
    V[:, 0] = d / norm_d
    cols: list[np.ndarray] = []  # the Hessenberg columns after their reflections
    cs: list[float] = []
    sn: list[float] = []
    tbar = [norm_d]

    threshold = atol + rtol * norm_d
    history = [norm_d]
    rnorm = norm_d
    k = 0
    saturated = False
    nonfinite = not math.isfinite(norm_d)
    while not nonfinite and rnorm > threshold and k < cap and not saturated:
        w = np.array(K.apply(V[:, k]), dtype=np.float64)
        col, saturated = arnoldi_step(V.T, k, w, reorth)
        col = col.tolist()
        # the earlier rotations run on Python floats
        for i in range(k):
            ri, rj = col[i], col[i + 1]
            col[i] = cs[i] * ri + sn[i] * rj
            col[i + 1] = sn[i] * ri - cs[i] * rj
        c, s, r = reflection_coefficients(col[k], col[k + 1])
        if r == 0.0:
            # a structurally zero rotated column (K v_k inside the span of
            # the earlier images on a singular K) cannot be used by the
            # back-substitution; keep the last well-posed iterate
            saturated = True
            break
        cs.append(c)
        sn.append(s)
        col[k] = r
        tb = tbar[k]
        tbar[k:] = c * tb, s * tb
        if not math.isfinite(tbar[k + 1]):
            # the first k columns and tbar[:k] are as they were
            nonfinite = True
            break
        cols.append(np.array(col[: k + 1]))
        k += 1
        rnorm = abs(tbar[k])
        history.append(rnorm)

    if k == 0:
        sol = np.zeros(dim)
    else:
        sol = V[:, :k] @ backward_substitution(cols, tbar)
    return end_solve([(sol[:cut], sol[cut:], history)], k,
                     nonfinite=nonfinite, converged=rnorm <= threshold,
                     exhausted=saturated or k >= dim, diagnostics={})[0]


# ---------------------------------------------------------------------------
# Block-Arnoldi with a two-column starting block
# ---------------------------------------------------------------------------


@dataclass
class BlockArnoldiState:
    """Pairs w_1, w_2, ... with block-Hessenberg coefficients.

    The pairs live in one preallocated C-ordered array of shape
    (k_max + 1, 2, dim), each pair's two vectors contiguous rows; ``W`` is
    its ``transpose(0, 2, 1)`` view, so ``W[i]`` is pair i+1 as an
    F-contiguous (dim, 2) array and ``W[i][:, j]`` a contiguous vector.
    The array is allocated uninitialized: a step from ``k`` writes
    ``W[k + 1]`` before any read, and later pairs are never touched.
    ``columns[j]`` is the (2j+4) x 2 coefficient column pair of step
    j+1: rows 2i:2i+2 couple pair i+1 to it (0-based storage of 1-based
    math); Block-GMRES reduces them in place. Only W is sized by k_max.
    """

    W: np.ndarray
    Gamma: np.ndarray
    columns: list = field(default_factory=list)

    @property
    def k(self) -> int:
        """The number of steps taken."""
        return len(self.columns)


def _qr_in_place(Q: np.ndarray, rank_tol: float = 0.0) -> np.ndarray:
    """Overwrite the F-contiguous (dim, 2) block ``Q`` with the orthonormal
    factor of its reduced QR and return the 2x2 R, diagonal nonnegative.

    LAPACK ``dgeqrf`` and ``dorgqr``, the Householder routines behind
    ``np.linalg.qr``, run on ``Q``'s own storage. Diagonal entries at or
    below ``rank_tol`` flag a rank-deficient remainder: the offending
    basis column and its coefficients are zeroed rather than normalized.
    When that is the first column, the direction its reflection took is
    noise, so the second column is normalized on its own instead of
    against it.
    """
    qr, tau, _, _ = dgeqrf(Q, overwrite_a=1)
    R = np.zeros((2, 2))
    R[0] = qr[0]
    R[1, 1] = qr[1, 1]
    dorgqr(qr, tau, overwrite_a=1)
    for j in range(2):
        if R[j, j] < 0:
            R[j, :] = -R[j, :]
            Q[:, j] *= -1.0
    if rank_tol > 0.0:
        if R[0, 0] <= rank_tol:
            # the second input column again
            Q[:, 1] = Q[:, 0] * R[0, 1] + Q[:, 1] * R[1, 1]
            Q[:, 0] = 0.0
            R[:] = 0.0
            R[1, 1] = np.linalg.norm(Q[:, 1])
            if R[1, 1] > rank_tol:
                Q[:, 1] /= R[1, 1]
        if R[1, 1] <= rank_tol:
            R[1, 1] = 0.0
            Q[:, 1] = 0.0
    return R


def block_arnoldi_init(D: np.ndarray, k_max: int) -> BlockArnoldiState:
    """Start the process from a two-column block: w_1 Gamma = D, with
    storage for ``k_max`` steps."""
    check_step_budget("k_max", k_max)
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[1] != 2:
        raise ValueError("starting block must have exactly two columns")
    if D.shape[0] < 2:
        raise ValueError("a two-column starting block needs at least two rows")
    if not np.any(D[:, 0]) or not np.any(D[:, 1]):
        raise ValueError("starting block columns must be nonzero")
    W = np.empty((k_max + 1, 2, D.shape[0])).transpose(0, 2, 1)
    W[0] = D
    return BlockArnoldiState(W=W, Gamma=_qr_in_place(W[0]))


def _project_out(W: np.ndarray, G: np.ndarray):
    """One pairwise block modified Gram-Schmidt pass of ``G`` against the
    pairs ``W[0], W[1], ...``.

    ``G`` is an F-contiguous (dim, 2) block, updated in place by BLAS;
    each pair's coefficients are taken against the ``G`` that the earlier
    pairs already updated. Returns ``G`` and the coefficients, pair i's
    in rows 2i:2i+2 of a (2 len(W)) x 2 array.
    """
    coeffs = []
    for Wi in W:
        Psi = dgemm(1.0, Wi, G, trans_a=1)
        # f2py would update a copy of a non-F-contiguous c; the returned
        # array is the updated one either way
        G = dgemm(-1.0, Wi, Psi, beta=1.0, c=G, overwrite_c=1)
        coeffs.append(Psi)
    return G, np.concatenate(coeffs)


def block_arnoldi_step(state: BlockArnoldiState, K: LinearOperator,
                       reorth: bool = False) -> BlockArnoldiState:
    """Orthogonalize K w_k against all stored pairs (pairwise block MGS,
    run twice with ``reorth``, whose coefficients add up) and normalize
    the remainder by a 2x2 QR with nonnegative diagonal. The step's
    (2k+4) x 2 coefficient column pair, the projection coefficients over
    the remainder's 2x2 factor, is appended to ``state.columns``."""
    k = state.k
    if k + 1 >= len(state.W):
        raise ValueError("block-Arnoldi storage exhausted")
    wk = state.W[k]
    G = np.empty((2, wk.shape[0])).T
    G[:, 0] = K.apply(wk[:, 0])
    G[:, 1] = K.apply(wk[:, 1])
    scale = float(np.linalg.norm(G))
    G, coeffs = _project_out(state.W[: k + 1], G)
    if reorth:
        G, again = _project_out(state.W[: k + 1], G)
        coeffs += again
    # G = w_{k+1} Psi with an anti-triangular Psi: on a partitioned
    # operator the remainder's first column carries the new y-space
    # direction and its second the new x-space one, so the QR runs on the
    # reversed columns. That keeps every pair in the (x-block, y-block)
    # orientation of the starting pair, with the two nonnegative QR
    # diagonal entries on the anti-diagonal of Psi.
    w_next = state.W[k + 1]
    w_next[...] = G[:, ::-1]
    R_rev = _qr_in_place(w_next, rank_tol=BREAKDOWN_RTOL * scale)
    Psi_next = [[R_rev[0, 1], R_rev[0, 0]], [R_rev[1, 1], 0.0]]
    state.columns.append(np.vstack([coeffs, Psi_next]))
    return state


def _step_factor(stack: np.ndarray):
    """Complete QR of a 4x2 stack: the transpose of its 4x4 orthogonal
    factor, C-contiguous, and its 4x2 triangle.

    ``dgeqrf`` factors the stack in the first two columns of the
    factor's F-ordered transpose and ``dorgqr`` expands the whole of it
    into the orthogonal factor in place, as ``np.linalg.qr(stack,
    "complete")`` does on copies; ``dorgqr`` sets the last two columns
    before reading them.
    """
    Qt = np.empty((4, 4))
    Q = Qt.T
    Q[:, :2] = stack
    qr, tau, _, _ = dgeqrf(Q[:, :2], overwrite_a=1)
    R = np.zeros((4, 2))
    R[0] = qr[0]
    R[1, 1] = qr[1, 1]
    dorgqr(Q, tau, overwrite_a=1)
    return Qt, R


def _block_iterates(W: np.ndarray, cols: list, g):
    """Both columns' iterates, as rows of a (2, dim) array.

    ``cols[j]`` is the reduced (2j+4) x 2 column pair of step j+1 and
    ``g`` the transformed right-hand side, one two-entry row each. Column
    2j+i of the triangle R is the view ``cols[j][:2j+1+i, i]``, so GPMR's
    packed back-substitution solves R Z = g[:2k] a column of g at a time.
    The iterates are Z times the first k pairs read as 2k contiguous rows.
    """
    k = len(cols)
    packed = [col[:2 * j + 1 + i, i] for j, col in enumerate(cols) for i in range(2)]
    Z = np.array([backward_substitution(packed, t) for t in np.array(g[:2 * k]).T])
    return Z @ W[:k].transpose(0, 2, 1).reshape(2 * k, -1)


@quiet_nonfinite
def block_gmres_solve(K: LinearOperator, D, atol: float, rtol: float,
                      k_max: int, *, reorth: bool = False, split=None):
    """Solve K X = D for a two-column D by block minimum residual.

    Both reduced subproblems, whose targets are the two columns of the
    starting block's 2x2 factor Gamma (D = w_1 Gamma), share one
    block-Hessenberg matrix, whose QR factorization is updated one column
    pair per iteration: the stored 4x4 orthogonal factors of the earlier
    steps are applied to the new pair, a new one reduces its 4x2
    diagonal-plus-subdiagonal stack to a triangle, and that factor is
    also applied to the two-column transformed right-hand side g. Each
    residual norm (per column, and of the summed solution, which drives
    the stopping rule of :func:`gpmr_solve` so both columns stop
    together) is the norm of g's last two rows, because the
    least-squares solution is linear in the right-hand side. Each
    column's iterate comes from one packed back-substitution at the end.
    A column times a basis vector :func:`_qr_in_place` zeroed is an exact
    zero column with a zero row and entry of g: a unit pivot gives it the
    coefficient 0. Any other zero diagonal (a singular K) ends the solve
    ``exhausted`` with the last well-posed iterates, as in GMRES and
    GPMR. Each block-Arnoldi column pair is reduced in place, so the
    pairs are kept once. A non-finite starting block or block-Hessenberg
    column ends the solve with ``nonfinite`` and the last iterates from
    finite data (zeros if the starting block is not finite). Returns one
    report per column, whose diagnostics hold only ``summed_history``.
    """
    check_stopping_rule(atol, rtol, k_max)
    D = np.asarray(D, dtype=np.float64)
    dim = K.nrows
    if D.shape != (dim, 2):
        raise ValueError("starting block shape does not match the operator")
    cut = _split_point(split, dim)
    cap = min(k_max, dim)

    state = block_arnoldi_init(D, cap)
    (g11, g12), (_, g22) = state.Gamma.tolist()
    # |D e_1|, |D e_2| and |D (e_1 + e_2)|, read off D = w_1 Gamma
    norm_d = float(np.hypot(g11 + g12, g22))
    threshold = atol + rtol * norm_d

    factors = []  # the transpose of each step's 4x4 orthogonal factor
    g = [[g11, g12], [0.0, g22]]  # rows of the transformed right-hand side

    hist_b = [abs(g11)]
    hist_c = [float(np.hypot(g12, g22))]
    hist_sum = [norm_d]

    res_sum = norm_d
    k = 0
    saturated = False
    nonfinite = not math.isfinite(norm_d)
    while not nonfinite and res_sum > threshold and k < cap:
        block_arnoldi_step(state, K, reorth=reorth)
        col = state.columns[k]
        if not np.isfinite(col).all():
            # the QR of step k came from finite columns
            nonfinite = True
            break
        for i, Qt in enumerate(factors):
            col[2 * i:2 * i + 4] = Qt @ col[2 * i:2 * i + 4]
        Qt, top = _step_factor(col[2 * k:2 * k + 4])
        for i in range(2):
            if top[i, i] == 0.0 and not np.any(state.W[k][:, i]):
                top[i, i] = 1.0  # a zero column times a zeroed basis vector
        if top[0, 0] == 0.0 or top[1, 1] == 0.0:
            saturated = True  # a singular triangle
            break
        col[2 * k:2 * k + 4] = top
        factors.append(Qt)
        # the two new rows of g start at zero
        g[2 * k:] = (Qt @ (g[2 * k:] + [[0.0, 0.0], [0.0, 0.0]])).tolist()
        k = state.k
        (tb, tc), (ub, uc) = g[2 * k:]
        hist_b.append(math.hypot(tb, ub))
        hist_c.append(math.hypot(tc, uc))
        res_sum = math.hypot(tb + tc, ub + uc)
        hist_sum.append(res_sum)

    if k == 0:
        sol = np.zeros((2, dim))
    else:
        # after a non-finite step or a stop the state holds pair k + 1
        sol = _block_iterates(state.W, state.columns[:k], g)
    # a copy per column, so that one report kept alone holds one iterate
    ends = [(row[:cut], row[cut:], history)
            for row, history in zip(map(np.copy, sol), (hist_b, hist_c))]
    return end_solve(ends, k, nonfinite=nonfinite,
                     converged=res_sum <= threshold,
                     exhausted=saturated or 2 * k >= dim,
                     diagnostics={"summed_history": np.asarray(hist_sum)})


# ---------------------------------------------------------------------------
# One entry for the three methods on a partitioned system
# ---------------------------------------------------------------------------

METHODS = ("gpmr", "gmres", "block-gmres")


def solve_partitioned(method: str, system: PartitionedSystem, atol: float,
                      rtol: float, k_max: int, *, reorth: bool = False) -> SolveReport:
    """Solve ``system`` with one of :data:`METHODS` and the stopping rule
    |r_k| <= atol + rtol * |(b, c)|.

    ``gpmr`` is :func:`~gpmr.solver.gpmr_solve`. ``gmres`` solves the
    full operator for (b, c). ``block-gmres`` is the paper's baseline:
    Block-GMRES on the two right-hand sides (b, 0) and (0, c), whose two
    solutions are summed. Its report's x and y are the summed iterate,
    its history the summed one, its status and iterations those both
    columns end with, and ``diagnostics["column_histories"]`` the b and
    the c column's histories, in that order. An unknown method is a
    ValueError before any apply.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {', '.join(METHODS)}")
    if method == "gpmr":
        return gpmr_solve(system, atol, rtol, k_max, reorth=reorth)
    m, n = system.m, system.n
    K = system.full_operator()
    if method == "gmres":
        return gmres_solve(K, system.rhs_full(), atol, rtol, k_max,
                           reorth=reorth, split=(m, n))
    D = np.zeros((m + n, 2))
    D[:m, 0] = system.b
    D[m:, 1] = system.c
    rep_b, rep_c = block_gmres_solve(K, D, atol, rtol, k_max, reorth=reorth,
                                     split=(m, n))
    return SolveReport(
        x=rep_b.x + rep_c.x, y=rep_b.y + rep_c.y, status=rep_b.status,
        residual_history=rep_b.diagnostics["summed_history"],
        iterations=rep_b.iterations,
        diagnostics={"column_histories": [rep_b.residual_history,
                                          rep_c.residual_history]})
