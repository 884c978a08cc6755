"""GPMR: minimum-residual solver for 2x2 block partitioned systems.

Each iteration advances the orthogonal Hessenberg reduction of the pair
(A, B) by one step, which appends two columns to the projected system
matrix. Those columns are triangularized incrementally: the reflections
of all previous iterations are applied first, then four fresh Givens
reflections zero the subdiagonal entries (in order: f_{k+1,k}, the
(2k, 2k-1) entry, the fill created at row 2k+2, and h_{k+1,k}). The
transformed right-hand side yields the residual norm for free as the
length of its last two components, so iterates are only materialized at
termination by a backward substitution performed in place over the
transformed right-hand side storage.

Workspace storage after k iterations matches the method's accounting:
k(m+n) basis entries plus one in-flight column pair, 2k entries for the
transformed right-hand side (shared with the subproblem solution), 8k
reflection coefficients, and k(2k+1) entries of the packed triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hessenberg import HessenbergState, hessenberg_init, hessenberg_step
from .operators import PartitionedSystem

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_EXHAUSTED = "exhausted"
STATUS_NONFINITE = "nonfinite"

# Decorates the solvers: they report a non-finite residual norm as
# STATUS_NONFINITE, so numpy's overflow and invalid-value warnings on the
# way there would only repeat it.
quiet_nonfinite = np.errstate(over="ignore", invalid="ignore")


def check_tolerances(atol: float, rtol: float) -> None:
    """Reject the stopping-rule tolerances no solve can honour."""
    if atol < 0 or rtol < 0 or (atol == 0 and rtol == 0):
        raise ValueError("tolerances must be nonnegative and not both zero")


class SingularSubproblemError(RuntimeError):
    """Backward substitution hit a zero diagonal; ``index`` is 1-based."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"projected system is singular at diagonal entry {index}")


@dataclass
class SolveReport:
    """Outcome of a solve: iterate, status and residual-norm history."""

    x: np.ndarray
    y: np.ndarray
    status: str
    residual_history: np.ndarray
    iterations: int
    matvec_count: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def reflection_coefficients(a: float, b: float):
    """Coefficients (c, s, r) of the reflection [[c, s], [s, -c]] with
    r = hypot(a, b) >= 0 mapping (a, b) to (r, 0). A zero-norm input uses
    the convention (1, 0, 0)."""
    r = math.hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


def dense_back_substitution(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Solve the dense upper-triangular system R z = t."""
    k = R.shape[1]
    z = np.array(t[:k], dtype=np.float64)
    for i in range(k - 1, -1, -1):
        if R[i, i] == 0.0:
            raise SingularSubproblemError(i + 1)
        z[i] = (z[i] - R[i, i + 1:k] @ z[i + 1:k]) / R[i, i]
    return z


class GpmrWorkspace:
    """Packed triangle, reflection coefficients and transformed RHS.

    The triangle is packed column by column (column j holds its j upper
    entries), sized for ``k_max`` iterations: k_max (2 k_max + 1) reals.
    """

    def __init__(self, hess: HessenbergState, lam: float, mu: float, k_max: int):
        self.hess = hess
        self.lam = float(lam)
        self.mu = float(mu)
        self.k_max = int(k_max)
        self.R = np.zeros(k_max * (2 * k_max + 1))
        self.givens_c = np.zeros((4, k_max))
        self.givens_s = np.zeros((4, k_max))
        self.tbar = np.zeros(2 * k_max + 2)
        self.k = 0

    def storage_report(self) -> dict:
        """Live storage counts at the current iteration."""
        k = self.k
        m_plus_n = self.hess.m + self.hess.n
        basis = self.hess.V[:, :k].size + self.hess.U[:, :k].size
        givens = self.givens_c[:, :k].size + self.givens_s[:, :k].size
        return {
            "basis": basis,
            "qp": m_plus_n,
            "t": 2 * k,
            "z": 2 * k,
            "t_z_shared": True,
            "givens": givens,
            "r": k * (2 * k + 1),
        }


def _packed_index(i: int, j: int) -> int:
    # 1-based (i, j) with i <= j into the column-packed triangle
    return j * (j - 1) // 2 + (i - 1)


def ref(i: int, a1: float, a2: float, a3: float, a4: float, ws: GpmrWorkspace):
    """Apply the four stored reflections of iteration ``i`` (1-based) to
    the entries (a1, a2, a3, a4) sitting at rows 2i-1, 2i, 2i+1, 2i+2."""
    c = ws.givens_c[:, i - 1]
    s = ws.givens_s[:, i - 1]
    t = c[0] * a1 + s[0] * a4
    a4 = s[0] * a1 - c[0] * a4
    a1 = t
    t = c[1] * a1 + s[1] * a2
    a2 = s[1] * a1 - c[1] * a2
    a1 = t
    t = c[2] * a2 + s[2] * a4
    a4 = s[2] * a2 - c[2] * a4
    a2 = t
    t = c[3] * a2 + s[3] * a3
    a3 = s[3] * a2 - c[3] * a3
    a2 = t
    return a1, a2, a3, a4


def givens(k: int, r11: float, r12: float, r21: float, r22: float,
           h_next: float, f_next: float, ws: GpmrWorkspace):
    """Compute and store the four reflections of iteration ``k``.

    Inputs are the current 2x2 diagonal block (r11, r12; r21, r22) of
    the new column pair plus the two subdiagonal coefficients. Returns
    the final triangle entries (r_{2k-1,2k-1}, r_{2k-1,2k}, r_{2k,2k});
    the produced diagonal entries are nonnegative by construction.
    """
    c1, s1, rbb11 = reflection_coefficients(r11, f_next)
    rbb12 = c1 * r12
    fill = s1 * r12
    c2, s2, out11 = reflection_coefficients(rbb11, r21)
    out12 = c2 * rbb12 + s2 * r22
    rbb22 = s2 * rbb12 - c2 * r22
    c3, s3, ring22 = reflection_coefficients(rbb22, fill)
    c4, s4, out22 = reflection_coefficients(ring22, h_next)
    ws.givens_c[:, k - 1] = (c1, c2, c3, c4)
    ws.givens_s[:, k - 1] = (s1, s2, s3, s4)
    return out11, out12, out22


def _qr_update(ws: GpmrWorkspace, k: int, hcol: np.ndarray, fcol: np.ndarray):
    """Fold the step-k column pair into the packed triangle."""
    lam, mu = ws.lam, ws.mu
    col_a, col_b = 2 * k - 1, 2 * k
    if k == 1:
        a1, a2 = lam, fcol[0]
        b1, b2 = hcol[0], mu
    else:
        a1, a2 = 0.0, fcol[0]
        b1, b2 = hcol[0], 0.0
    R = ws.R
    for i in range(1, k):
        rho, delta = (lam, mu) if i == k - 1 else (0.0, 0.0)
        a1, a2, a3, a4 = ref(i, a1, a2, rho, fcol[i], ws)
        R[_packed_index(2 * i - 1, col_a)] = a1
        R[_packed_index(2 * i, col_a)] = a2
        a1, a2 = a3, a4
        b1, b2, b3, b4 = ref(i, b1, b2, hcol[i], delta, ws)
        R[_packed_index(2 * i - 1, col_b)] = b1
        R[_packed_index(2 * i, col_b)] = b2
        b1, b2 = b3, b4
    out11, out12, out22 = givens(k, a1, b1, a2, b2, hcol[k], fcol[k], ws)
    R[_packed_index(2 * k - 1, col_a)] = out11
    R[_packed_index(2 * k - 1, col_b)] = out12
    R[_packed_index(2 * k, col_b)] = out22


def backward_substitution(ws: GpmrWorkspace, k: int) -> np.ndarray:
    """Solve the active 2k x 2k triangle against the transformed RHS.

    The substitution runs in place over the first 2k entries of the
    workspace RHS storage and returns that slice; a zero diagonal raises
    :class:`SingularSubproblemError` with the 1-based entry index. It
    goes column by column from the last: once z_j is known, the j - 1
    entries above the diagonal in column j, one contiguous slice of the
    packed triangle, are folded into z_1, ..., z_{j-1}.
    """
    R = ws.R
    z = ws.tbar[: 2 * k]
    for j in range(2 * k, 0, -1):
        top = _packed_index(1, j)
        rjj = R[top + j - 1]
        if rjj == 0.0:
            raise SingularSubproblemError(j)
        z[j - 1] /= rjj
        z[: j - 1] -= z[j - 1] * R[top: top + j - 1]
    return z


def _solve_iterate(ws: GpmrWorkspace, k: int):
    """Non-destructive iterate for diagnostics: copies the RHS, solves,
    and assembles (x_k, y_k) from the bases."""
    saved = ws.tbar[: 2 * k].copy()
    try:
        z = backward_substitution(ws, k).copy()
    finally:
        ws.tbar[: 2 * k] = saved
    x = ws.hess.V[:, :k] @ z[0::2]
    y = ws.hess.U[:, :k] @ z[1::2]
    return x, y


@quiet_nonfinite
def gpmr_solve(system: PartitionedSystem, atol: float, rtol: float,
               k_max: int | None = None, *, reorth: bool = False,
               track_iterates: bool = False) -> SolveReport:
    """Run GPMR on a partitioned system until the residual satisfies
    ``|r_k| <= atol + rtol * |(b, c)|`` or the iteration budget is spent.

    ``k_max`` defaults to min(m, n); larger budgets let the process
    continue with zero-padded basis columns up to max(m, n), after which
    the subspace cannot grow. Termination without convergence reports
    ``exhausted`` once at least min(m, n) steps ran, ``max_iterations``
    otherwise. A residual norm that is not finite (from a NaN or Inf in
    b, c or an operator's output) ends the solve at once with
    ``nonfinite``, keeping the last iterate whose residual norm was
    finite (zeros if the initial one is not).

    With ``track_iterates`` the report carries per-iteration iterates
    and true residual norms under ``diagnostics``; the solve itself only
    assembles the final iterate.
    """
    check_tolerances(atol, rtol)
    m, n = system.m, system.n
    p_min, p_max = min(m, n), max(m, n)
    if k_max is None:
        k_max = p_min
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    cap = min(k_max, p_max)

    hess = hessenberg_init(system.A, system.B, system.b, system.c, capacity=cap)
    ws = GpmrWorkspace(hess, system.lam, system.mu, cap)
    ws.tbar[0] = hess.beta
    ws.tbar[1] = hess.gamma
    rnorm = math.hypot(hess.beta, hess.gamma)
    threshold = atol + rtol * rnorm

    history = [rnorm]
    iterates = [] if track_iterates else None
    residual_gaps = [] if track_iterates else None
    matvecs = 0
    stalled = False
    nonfinite = not math.isfinite(rnorm)
    k = 0
    while not nonfinite and rnorm > threshold and k < cap:
        k += 1
        hessenberg_step(hess, reorth=reorth, allow_padding=True)
        matvecs += 2
        _qr_update(ws, k, hess.Hcols[k - 1], hess.Fcols[k - 1])
        if (ws.R[_packed_index(2 * k - 1, 2 * k - 1)] == 0.0
                or ws.R[_packed_index(2 * k, 2 * k)] == 0.0):
            # a structurally zero subproblem column (a zero-padded basis
            # slot with vanishing regularization) cannot be used by plain
            # triangular substitution; keep the last well-posed iterate
            k -= 1
            stalled = True
            break
        t1, t2, t3, t4 = ref(k, ws.tbar[2 * k - 2], ws.tbar[2 * k - 1], 0.0, 0.0, ws)
        ws.tbar[2 * k - 2] = t1
        ws.tbar[2 * k - 1] = t2
        ws.tbar[2 * k] = t3
        ws.tbar[2 * k + 1] = t4
        rnorm = math.hypot(t3, t4)
        if not math.isfinite(rnorm):
            # steps before k left the triangle and tbar[: 2k - 2] as they were
            k -= 1
            nonfinite = True
            break
        ws.k = k
        history.append(rnorm)
        if track_iterates:
            # cross-check the recurrence against the true residual; the
            # extra operator applications are diagnostic and not counted
            x_k, y_k = _solve_iterate(ws, k)
            iterates.append((x_k, y_k))
            residual_gaps.append(abs(rnorm - system.residual_norm(x_k, y_k)))

    if nonfinite:
        status = STATUS_NONFINITE
    elif rnorm <= threshold:
        status = STATUS_CONVERGED
    elif stalled or k >= p_min:
        status = STATUS_EXHAUSTED
    else:
        status = STATUS_MAX_ITERATIONS

    if k == 0:
        x = np.zeros(m)
        y = np.zeros(n)
    else:
        z = backward_substitution(ws, k)
        x = hess.V[:, :k] @ z[0::2]
        y = hess.U[:, :k] @ z[1::2]

    diagnostics = {"workspace": ws, "breakdowns": list(hess.breakdown_flags)}
    if track_iterates:
        diagnostics["iterates"] = iterates
        diagnostics["residual_gaps"] = residual_gaps
    return SolveReport(x=x, y=y, status=status,
                       residual_history=np.asarray(history),
                       iterations=k, matvec_count=matvecs,
                       diagnostics=diagnostics)
