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

The reflections run on Python floats: each iteration converts its new
columns and the stored coefficients once with ``tolist``, which spares
the per-operation overhead of numpy scalars and gives the same IEEE
double results. The bases and the packed triangle are allocated
uninitialized; every entry is written before it is read.

Workspace storage after k iterations matches the method's accounting:
k(m+n) basis entries plus one in-flight column pair, 2k entries for the
transformed right-hand side (shared with the subproblem solution), 8k
reflection coefficients, and k(2k+1) entries of the packed triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtpsv

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


def check_stopping_rule(atol: float, rtol: float, k_max: int) -> None:
    """Reject a stopping rule no solve can honour: negative tolerances,
    both tolerances zero, or an iteration budget below one."""
    if atol < 0 or rtol < 0 or (atol == 0 and rtol == 0):
        raise ValueError("tolerances must be nonnegative and not both zero")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")


def final_status(nonfinite: bool, converged: bool, exhausted: bool) -> str:
    """The status a solve ends with; earlier conditions take precedence."""
    if nonfinite:
        return STATUS_NONFINITE
    if converged:
        return STATUS_CONVERGED
    if exhausted:
        return STATUS_EXHAUSTED
    return STATUS_MAX_ITERATIONS


class SingularSubproblemError(RuntimeError):
    """Backward substitution hit a zero diagonal; ``index`` is 1-based."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"projected system is singular at diagonal entry {index}")


def check_nonsingular(diagonal: np.ndarray) -> None:
    """Raise :class:`SingularSubproblemError` naming the last zero entry
    of a triangle's diagonal, the first one a backward substitution meets."""
    zeros = np.flatnonzero(diagonal == 0.0)
    if zeros.size:
        raise SingularSubproblemError(int(zeros[-1]) + 1)


@dataclass
class SolveReport:
    """Outcome of a solve: iterate, status and residual-norm history.

    Every field is plain data: arrays the solve computed, numbers and,
    in ``diagnostics``, lists, dicts and arrays of O(k) entries. No
    solver state (bases, triangles, workspaces) outlives the solve.
    """

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
        # written a column pair per iteration before it is read
        self.R = np.empty(k_max * (2 * k_max + 1))
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


def reflect(c, s, a1: float, a2: float, a3: float, a4: float):
    """Apply the four reflections of one iteration i, coefficients
    ``c[0..3]`` and ``s[0..3]``, to the entries (a1, a2, a3, a4) sitting
    at rows 2i-1, 2i, 2i+1, 2i+2.

    On Python floats this is plain C double arithmetic, the same result
    as on ``np.float64`` scalars without their per-operation overhead.
    """
    c1, c2, c3, c4 = c
    s1, s2, s3, s4 = s
    t = c1 * a1 + s1 * a4
    a4 = s1 * a1 - c1 * a4
    a1 = t
    t = c2 * a1 + s2 * a2
    a2 = s2 * a1 - c2 * a2
    a1 = t
    t = c3 * a2 + s3 * a4
    a4 = s3 * a2 - c3 * a4
    a2 = t
    t = c4 * a2 + s4 * a3
    a3 = s4 * a2 - c4 * a3
    a2 = t
    return a1, a2, a3, a4


def ref(i: int, a1: float, a2: float, a3: float, a4: float, ws: GpmrWorkspace):
    """Apply the four stored reflections of iteration ``i`` (1-based) to
    the entries (a1, a2, a3, a4) sitting at rows 2i-1, 2i, 2i+1, 2i+2."""
    return reflect(ws.givens_c[:, i - 1].tolist(), ws.givens_s[:, i - 1].tolist(),
                   a1, a2, a3, a4)


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
    """Fold the step-k column pair into the packed triangle.

    The reflections run on Python floats; each column's entries are
    collected in a list and written with one slice assignment, so every
    entry of packed columns 2k-1 and 2k is written on every call.
    """
    lam, mu = ws.lam, ws.mu
    h = hcol.tolist()
    f = fcol.tolist()
    cs = ws.givens_c[:, : k - 1].T.tolist()
    ss = ws.givens_s[:, : k - 1].T.tolist()
    if k == 1:
        a1, a2 = lam, f[0]
        b1, b2 = h[0], mu
    else:
        a1, a2 = 0.0, f[0]
        b1, b2 = h[0], 0.0
    col_a, col_b = [], []
    for i in range(1, k):
        rho, delta = (lam, mu) if i == k - 1 else (0.0, 0.0)
        c, s = cs[i - 1], ss[i - 1]
        a1, a2, a3, a4 = reflect(c, s, a1, a2, rho, f[i])
        col_a += (a1, a2)
        a1, a2 = a3, a4
        b1, b2, b3, b4 = reflect(c, s, b1, b2, h[i], delta)
        col_b += (b1, b2)
        b1, b2 = b3, b4
    out11, out12, out22 = givens(k, a1, b1, a2, b2, h[k], f[k], ws)
    col_a.append(out11)
    col_b += (out12, out22)
    start_a = _packed_index(1, 2 * k - 1)
    start_b = _packed_index(1, 2 * k)
    ws.R[start_a:start_b] = col_a
    ws.R[start_b : start_b + 2 * k] = col_b


def backward_substitution(ws: GpmrWorkspace, k: int) -> np.ndarray:
    """Solve the active 2k x 2k triangle against the transformed RHS.

    The substitution is BLAS ``dtpsv`` on the column-packed triangle,
    which is BLAS upper-packed order. It runs in place over the first 2k
    entries of the workspace RHS storage and returns that slice. A zero
    diagonal raises :class:`SingularSubproblemError` with the 1-based
    entry index before any entry is changed.
    """
    j = np.arange(1, 2 * k + 1)
    check_nonsingular(ws.R[_packed_index(j, j)])
    dtpsv(2 * k, ws.R, ws.tbar, overwrite_x=1)
    return ws.tbar[: 2 * k]


@quiet_nonfinite
def gpmr_solve(system: PartitionedSystem, atol: float, rtol: float,
               k_max: int, *, reorth: bool = False) -> SolveReport:
    """Run GPMR on a partitioned system until the residual satisfies
    ``|r_k| <= atol + rtol * |(b, c)|`` or ``k_max`` iterations ran.

    Budgets past min(m, n) let the process continue with zero-padded
    basis columns up to max(m, n), after which the subspace cannot grow.
    Termination without convergence reports ``exhausted`` once at least
    min(m, n) steps ran, ``max_iterations`` otherwise. A residual norm
    that is not finite (from a NaN or Inf in b, c or an operator's
    output) ends the solve at once with ``nonfinite``, keeping the last
    iterate whose residual norm was finite (zeros if the initial one is
    not). The solve is nested: the first k iterations of a longer solve
    are those of ``k_max=k``. The diagnostics hold ``breakdowns``, one
    (v_side, u_side) flag pair per step, and ``storage``, the workspace's
    :meth:`GpmrWorkspace.storage_report` at the last iteration.
    """
    check_stopping_rule(atol, rtol, k_max)
    m, n = system.m, system.n
    cap = min(k_max, max(m, n))

    hess = hessenberg_init(system.A, system.B, system.b, system.c, capacity=cap)
    ws = GpmrWorkspace(hess, system.lam, system.mu, cap)
    ws.tbar[0] = hess.beta
    ws.tbar[1] = hess.gamma
    rnorm = math.hypot(hess.beta, hess.gamma)
    threshold = atol + rtol * rnorm

    history = [rnorm]
    matvecs = 0
    stalled = False
    nonfinite = not math.isfinite(rnorm)
    k = 0
    while not nonfinite and rnorm > threshold and k < cap:
        k += 1
        hessenberg_step(hess, reorth=reorth)
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

    status = final_status(nonfinite, rnorm <= threshold, stalled or k >= min(m, n))

    if k == 0:
        x = np.zeros(m)
        y = np.zeros(n)
    else:
        z = backward_substitution(ws, k)
        x = hess.V[:, :k] @ z[0::2]
        y = hess.U[:, :k] @ z[1::2]

    diagnostics = {"breakdowns": list(hess.breakdown_flags),
                   "storage": ws.storage_report()}
    return SolveReport(x=x, y=y, status=status,
                       residual_history=np.asarray(history),
                       iterations=k, matvec_count=matvecs,
                       diagnostics=diagnostics)
