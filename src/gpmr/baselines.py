"""GMRES without restart, the block-Arnoldi process and Block-GMRES.

These serve two roles: reference solvers for iteration-count comparisons
and independent oracles for the structure produced by the Hessenberg
reduction pair. Block-Arnoldi is kept fully generic (dense 2x2
coefficient blocks, plain QR normalization) on purpose, so that any
sparsity appearing in its output is evidence rather than construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hessenberg import orthogonalize
from .operators import LinearOperator
from .solver import (
    STATUS_CONVERGED,
    STATUS_EXHAUSTED,
    STATUS_MAX_ITERATIONS,
    STATUS_NONFINITE,
    SolveReport,
    check_tolerances,
    dense_back_substitution,
    quiet_nonfinite,
    reflection_coefficients,
)

_LUCKY_BREAKDOWN_RTOL = 1e-14


@dataclass
class ArnoldiState:
    """Orthonormal Krylov basis and Hessenberg coefficients for one operator.

    ``basis`` has shape (dim, capacity + 1) and is the transpose of a
    C-ordered array, so each basis column is contiguous.
    """

    basis: np.ndarray
    H: np.ndarray
    beta0: float
    k: int = 0


def _split_solution(sol: np.ndarray, split):
    if split is None:
        return sol, np.zeros(0)
    m, n = split
    if m + n != sol.size:
        raise ValueError("split does not match solution length")
    return sol[:m], sol[m:]


@quiet_nonfinite
def gmres_solve(K: LinearOperator, d, atol: float, rtol: float, k_max: int,
                *, reorth: bool = False, split=None) -> SolveReport:
    """Minimum-residual solve of K x = d over growing Krylov subspaces.

    Arnoldi with :func:`~gpmr.hessenberg.orthogonalize` (modified
    Gram-Schmidt, or CGS2 with ``reorth``) plus one Givens reflection
    per column; stopping rule |r_k| <= atol + rtol * |d|. A residual
    norm that is not finite ends the solve with ``nonfinite`` and the
    last iterate whose residual norm was finite (zeros if the initial
    one is not). ``split=(m, n)`` places the two solution blocks in the
    report's x and y fields; without it the full vector lands in x.
    """
    check_tolerances(atol, rtol)
    d = np.asarray(d, dtype=np.float64)
    dim = K.nrows
    if d.shape != (dim,):
        raise ValueError("right-hand side length does not match the operator")
    norm_d = float(np.linalg.norm(d))
    if norm_d == 0.0:
        raise ValueError("right-hand side must be nonzero")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    cap = min(k_max, dim)

    state = ArnoldiState(basis=np.zeros((cap + 1, dim)).T,
                         H=np.zeros((cap + 1, cap)), beta0=norm_d)
    V, H = state.basis, state.H
    V[:, 0] = d / norm_d
    R = np.zeros((cap + 1, cap))  # H after the accumulated reflections
    cs = np.zeros(cap)
    sn = np.zeros(cap)
    tbar = np.zeros(cap + 1)
    tbar[0] = norm_d

    threshold = atol + rtol * norm_d
    history = [norm_d]
    rnorm = norm_d
    k = 0
    matvecs = 0
    saturated = False
    nonfinite = not math.isfinite(norm_d)
    while not nonfinite and rnorm > threshold and k < cap and not saturated:
        w = np.array(K.apply(V[:, k]), dtype=np.float64)
        matvecs += 1
        scale = float(np.linalg.norm(w))
        H[: k + 1, k] = orthogonalize(V[:, : k + 1].T, w, reorth)
        hnext = float(np.linalg.norm(w))
        if hnext <= _LUCKY_BREAKDOWN_RTOL * scale:
            saturated = True
        else:
            H[k + 1, k] = hnext
            V[:, k + 1] = w / hnext
        R[: k + 2, k] = H[: k + 2, k]
        for i in range(k):
            ri, rj = R[i, k], R[i + 1, k]
            R[i, k] = cs[i] * ri + sn[i] * rj
            R[i + 1, k] = sn[i] * ri - cs[i] * rj
        c, s, r = reflection_coefficients(R[k, k], R[k + 1, k])
        cs[k], sn[k] = c, s
        R[k, k] = r
        R[k + 1, k] = 0.0
        tb = tbar[k]
        tbar[k] = c * tb
        tbar[k + 1] = s * tb
        if not math.isfinite(tbar[k + 1]):
            # the first k columns of R and tbar[:k] are as they were
            nonfinite = True
            break
        k += 1
        state.k = k
        rnorm = abs(tbar[k])
        history.append(rnorm)

    if nonfinite:
        status = STATUS_NONFINITE
    elif rnorm <= threshold:
        status = STATUS_CONVERGED
    elif saturated or k >= dim:
        status = STATUS_EXHAUSTED
    else:
        status = STATUS_MAX_ITERATIONS

    if k == 0:
        sol = np.zeros(dim)
    else:
        y = dense_back_substitution(R[:k, :k], tbar[:k])
        sol = V[:, :k] @ y
    x, yblk = _split_solution(sol, split)
    return SolveReport(x=x, y=yblk, status=status,
                       residual_history=np.asarray(history),
                       iterations=k, matvec_count=matvecs,
                       diagnostics={"arnoldi": state})


# ---------------------------------------------------------------------------
# Block-Arnoldi with a two-column starting block
# ---------------------------------------------------------------------------


@dataclass
class BlockArnoldiState:
    """Pairs w_1, w_2, ... with block-Hessenberg coefficients.

    ``S[2i:2i+2, 2j:2j+2]`` holds the 2x2 coefficient block coupling
    pair i+1 to column pair j+1 (0-based storage of 1-based math).
    """

    W: list = field(default_factory=list)
    S: np.ndarray = None
    Gamma: np.ndarray = None
    k: int = 0


def _qr_two_columns(block: np.ndarray, rank_tol: float = 0.0):
    """Reduced QR of a two-column block with nonnegative diagonal.

    Diagonal entries at or below ``rank_tol`` flag a rank-deficient
    remainder: the offending basis column and its coefficients are
    zeroed rather than normalized.
    """
    Q, R = np.linalg.qr(block)
    for j in range(2):
        if R[j, j] < 0:
            R[j, :] = -R[j, :]
            Q[:, j] = -Q[:, j]
    if rank_tol > 0.0:
        for j in range(2):
            if R[j, j] <= rank_tol:
                R[j, j:] = 0.0
                Q[:, j] = 0.0
    return Q, R


def _normalize_remainder(G: np.ndarray, rank_tol: float):
    """Factor the remainder pair as G = Q Psi with an anti-triangular Psi.

    On a partitioned operator the remainder's first column carries the
    new y-space direction and its second column the new x-space
    direction, so the QR runs on the reversed columns; this keeps every
    basis pair in the (x-block, y-block) orientation of the starting
    pair, with the two nonnegative QR diagonal entries landing on the
    anti-diagonal of Psi.
    """
    Q, R_rev = _qr_two_columns(G[:, ::-1], rank_tol=rank_tol)
    Psi = np.array([[R_rev[0, 1], R_rev[0, 0]],
                    [R_rev[1, 1], 0.0]])
    return Q, Psi


def block_arnoldi_init(D: np.ndarray, k_max: int) -> BlockArnoldiState:
    """Start the process from a two-column block: w_1 Gamma = D."""
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[1] != 2:
        raise ValueError("starting block must have exactly two columns")
    if not np.any(D[:, 0]) or not np.any(D[:, 1]):
        raise ValueError("starting block columns must be nonzero")
    Q, Gamma = _qr_two_columns(D)
    state = BlockArnoldiState()
    state.W = [Q]
    state.S = np.zeros((2 * (k_max + 1), 2 * k_max))
    state.Gamma = Gamma
    return state


def block_arnoldi_step(state: BlockArnoldiState, K: LinearOperator,
                       reorth: bool = False) -> BlockArnoldiState:
    """Orthogonalize K w_k against all stored pairs and normalize the
    remainder by a 2x2 QR with nonnegative diagonal."""
    k = state.k
    if 2 * (k + 1) > state.S.shape[0]:
        raise ValueError("block-Arnoldi storage exhausted")
    wk = state.W[k]
    G = np.column_stack([K.apply(wk[:, 0]), K.apply(wk[:, 1])])
    scale = float(np.linalg.norm(G))
    for i in range(k + 1):
        Psi = state.W[i].T @ G
        G -= state.W[i] @ Psi
        state.S[2 * i:2 * i + 2, 2 * k:2 * k + 2] = Psi
    if reorth:
        for i in range(k + 1):
            corr = state.W[i].T @ G
            G -= state.W[i] @ corr
            state.S[2 * i:2 * i + 2, 2 * k:2 * k + 2] += corr
    Q, Psi_next = _normalize_remainder(G, rank_tol=_LUCKY_BREAKDOWN_RTOL * scale)
    state.W.append(Q)
    state.S[2 * k + 2:2 * k + 4, 2 * k:2 * k + 2] = Psi_next
    state.k = k + 1
    return state


@quiet_nonfinite
def block_gmres_solve(K: LinearOperator, D, atol: float, rtol: float,
                      k_max: int, *, reorth: bool = False, split=None,
                      track_iterates: bool = False):
    """Solve K X = D for a two-column D by block minimum residual.

    Both reduced subproblems (targets beta e_1 and gamma e_2) are solved
    against the shared block-Hessenberg matrix at every iteration, in one
    least-squares call; the stopping rule of :func:`gpmr_solve` is
    applied to the residual of the summed solution, so both columns stop
    together. A non-finite starting block or block-Hessenberg column ends
    the solve with ``nonfinite`` and the last iterates computed from
    finite data (zeros if the starting block is not finite). Returns one
    report per column; the summed residual history rides along in each
    report's diagnostics.
    """
    check_tolerances(atol, rtol)
    D = np.asarray(D, dtype=np.float64)
    dim = K.nrows
    if D.shape != (dim, 2):
        raise ValueError("starting block shape does not match the operator")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    cap = min(k_max, dim)

    state = block_arnoldi_init(D, cap)
    beta = state.Gamma[0, 0]
    gamma = state.Gamma[1, 1]
    norm_d = float(np.hypot(beta, gamma))
    threshold = atol + rtol * norm_d

    hist_b = [abs(beta)]
    hist_c = [abs(gamma)]
    hist_sum = [norm_d]
    iter_b = [] if track_iterates else None
    iter_c = [] if track_iterates else None

    res_sum = norm_d
    zb = np.zeros(0)
    zc = np.zeros(0)
    k = 0
    matvecs = 0
    nonfinite = not math.isfinite(norm_d)
    while not nonfinite and res_sum > threshold and k < cap:
        block_arnoldi_step(state, K, reorth=reorth)
        matvecs += 2
        Sk = state.S[: 2 * k + 4, : 2 * k + 2]
        if not np.isfinite(Sk[:, 2 * k:]).all():
            # the least-squares solve would fail or return NaN; the
            # iterates of step k came from finite columns
            nonfinite = True
            break
        k = state.k
        rhs = np.zeros((2 * k + 2, 2))
        rhs[0, 0] = beta
        rhs[1, 1] = gamma
        Z, *_ = np.linalg.lstsq(Sk, rhs, rcond=None)
        zb, zc = Z[:, 0], Z[:, 1]
        hist_b.append(float(np.linalg.norm(Sk @ zb - rhs[:, 0])))
        hist_c.append(float(np.linalg.norm(Sk @ zc - rhs[:, 1])))
        res_sum = float(np.linalg.norm(Sk @ (zb + zc) - (rhs[:, 0] + rhs[:, 1])))
        hist_sum.append(res_sum)
        if track_iterates:
            Wmat = np.hstack(state.W[:k])
            iter_b.append(Wmat @ zb)
            iter_c.append(Wmat @ zc)

    if nonfinite:
        status = STATUS_NONFINITE
    elif res_sum <= threshold:
        status = STATUS_CONVERGED
    elif 2 * k >= dim:
        status = STATUS_EXHAUSTED
    else:
        status = STATUS_MAX_ITERATIONS

    if k == 0:
        sol_b = np.zeros(dim)
        sol_c = np.zeros(dim)
    else:
        Wmat = np.hstack(state.W[:k])
        sol_b = Wmat @ zb
        sol_c = Wmat @ zc

    shared = {"summed_history": np.asarray(hist_sum), "block_arnoldi": state}
    diag_b = dict(shared)
    diag_c = dict(shared)
    if track_iterates:
        diag_b["iterates"] = iter_b
        diag_c["iterates"] = iter_c

    xb, yb = _split_solution(sol_b, split)
    xc, yc = _split_solution(sol_c, split)
    report_b = SolveReport(x=xb, y=yb, status=status,
                           residual_history=np.asarray(hist_b),
                           iterations=k, matvec_count=matvecs,
                           diagnostics=diag_b)
    report_c = SolveReport(x=xc, y=yc, status=status,
                           residual_history=np.asarray(hist_c),
                           iterations=k, matvec_count=matvecs,
                           diagnostics=diag_c)
    return report_b, report_c
