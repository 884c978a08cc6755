"""GPMR: minimum-residual solver for 2x2 block partitioned systems.

Each iteration advances the orthogonal Hessenberg reduction of the pair
(A, B) by one step, which appends two columns to the projected system
matrix. Those columns are triangularized incrementally: the reflections
of all previous iterations are applied first, then four fresh Givens
reflections zero the subdiagonal entries (in order: f_{k+1,k}, the
(2k, 2k-1) entry, the fill created at row 2k+2, and h_{k+1,k}). The
transformed right-hand side yields the residual norm for free as the
length of its last two components, so iterates are only materialized at
termination by a backward substitution.

The reflections run on Python floats: each iteration converts its new
columns once with ``tolist``, which spares the per-operation overhead of
numpy scalars and gives the same IEEE double results.

Only the bases V and U are sized by the iteration budget: they are
allocated uninitialized, and every entry is written before it is read.
The rest of the solve's state grows with the iterations run, in Python
lists: the reflections (8 coefficients a step), the transformed
right-hand side (2k+2 entries after k steps) and the triangle's columns
(column j holds its j upper entries, k(2k+1) in all). Each column is
kept as a float64 array, 8 bytes an entry where a Python float takes 32.
The columns are packed once, at the end, for BLAS ``dtpsv``, which
solves over a copy of the transformed right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtpsv

from .hessenberg import check_step_budget, hessenberg_init, hessenberg_step
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
    """Reject a stopping rule no solve can honour: negative or NaN
    tolerances, both tolerances zero, or an iteration budget that is not
    an integer of at least one."""
    # written so that NaN, which fails every comparison, is rejected
    if not atol >= 0 or not rtol >= 0 or (atol == 0 and rtol == 0):
        raise ValueError("tolerances must be nonnegative and not both zero")
    check_step_budget("k_max", k_max)


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


@dataclass
class SolveReport:
    """Outcome of a solve: iterate, status and residual-norm history.

    Every field is plain data: arrays the solve computed, numbers and,
    in ``diagnostics``, lists, dicts and arrays of O(k) entries. No
    solver state (bases, triangles, workspaces) outlives the solve.
    ``matvec_count`` counts applies of the operators the solver was given:
    A and B separately for GPMR, K for GMRES and Block-GMRES.
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


def ref(c, s, a1: float, a2: float, a3: float, a4: float):
    """Apply the four reflections of one iteration i, coefficients
    ``c = (c1, .., c4)`` and ``s = (s1, .., s4)``, to the entries
    (a1, a2, a3, a4) sitting at rows 2i-1, 2i, 2i+1, 2i+2.

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


def givens(r11: float, r12: float, r21: float, r22: float,
           h_next: float, f_next: float):
    """The four reflections of one iteration and the triangle entries
    they produce.

    Inputs are the current 2x2 diagonal block (r11, r12; r21, r22) of
    the new column pair plus the two subdiagonal coefficients. Returns
    the coefficients ``c = (c1, .., c4)`` and ``s = (s1, .., s4)`` and
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
    return (c1, c2, c3, c4), (s1, s2, s3, s4), out11, out12, out22


def _qr_update(reflections: list, lam: float, mu: float,
               hcol: np.ndarray, fcol: np.ndarray):
    """Fold the column pair of step k = len(reflections) + 1 into the
    triangle.

    The stored reflections ``(c, s)`` of steps 1..k-1 are applied first,
    on Python floats; then :func:`givens` computes step k's. Returns
    packed columns 2k-1 and 2k as lists (column j holds its j upper
    entries) and step k's reflection ``(c, s)``; ``reflections`` is left
    as it was.
    """
    k = len(reflections) + 1
    h = hcol.tolist()
    f = fcol.tolist()
    if k == 1:
        a1, a2 = lam, f[0]
        b1, b2 = h[0], mu
    else:
        a1, a2 = 0.0, f[0]
        b1, b2 = h[0], 0.0
    col_a, col_b = [], []
    for i in range(1, k):
        rho, delta = (lam, mu) if i == k - 1 else (0.0, 0.0)
        c, s = reflections[i - 1]
        a1, a2, a3, a4 = ref(c, s, a1, a2, rho, f[i])
        col_a += (a1, a2)
        a1, a2 = a3, a4
        b1, b2, b3, b4 = ref(c, s, b1, b2, h[i], delta)
        col_b += (b1, b2)
        b1, b2 = b3, b4
    c, s, out11, out12, out22 = givens(a1, b1, a2, b2, h[k], f[k])
    col_a.append(out11)
    col_b += (out12, out22)
    return col_a, col_b, (c, s)


def backward_substitution(columns: list, tbar) -> np.ndarray:
    """Solve the triangle whose packed columns are ``columns`` against
    the first ``len(columns)`` entries of ``tbar``.

    Column j (a list or array) holds its j upper entries, so the columns
    concatenated are BLAS upper-packed order. They are packed once, and
    BLAS ``dtpsv`` solves in place over a new array holding a copy of
    ``tbar``'s entries, which is returned. A zero diagonal raises
    :class:`SingularSubproblemError` with the 1-based index of the last
    zero entry, the first one a backward substitution meets.
    """
    n = len(columns)
    for j in range(n, 0, -1):
        if columns[j - 1][-1] == 0.0:
            raise SingularSubproblemError(j)
    z = np.array(tbar[:n], dtype=np.float64)
    return dtpsv(n, np.concatenate(columns), z, overwrite_x=1)


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
    (v_side, u_side) flag pair per step, and ``storage``, the number of
    reals of each piece of state the last iteration kept: ``basis``
    k(m+n), ``qp`` the in-flight pair's m+n, ``t`` and ``z`` 2k (the
    substitution overwrites t with z, so ``t_z_shared``), ``givens`` 8k
    and ``r`` k(2k+1), the last two counted off the kept lists.
    """
    check_stopping_rule(atol, rtol, k_max)
    m, n = system.m, system.n
    lam, mu = float(system.lam), float(system.mu)
    cap = min(k_max, max(m, n))

    hess = hessenberg_init(system.A, system.B, system.b, system.c, capacity=cap)
    reflections = []  # the (c, s) coefficient 4-tuples of each step
    columns = []  # the triangle's packed columns as arrays, two per step
    tbar = [hess.beta, hess.gamma]
    rnorm = math.hypot(hess.beta, hess.gamma)
    threshold = atol + rtol * rnorm

    history = [rnorm]
    matvecs = 0
    stalled = False
    nonfinite = not math.isfinite(rnorm)
    k = 0
    while not nonfinite and rnorm > threshold and k < cap:
        hessenberg_step(hess, reorth=reorth)
        matvecs += 2
        col_a, col_b, (c, s) = _qr_update(reflections, lam, mu, hess.Hcols[k],
                                          hess.Fcols[k])
        if col_a[-1] == 0.0 or col_b[-1] == 0.0:
            # a structurally zero subproblem column (a zero-padded basis
            # slot with vanishing regularization) cannot be used by plain
            # triangular substitution; keep the last well-posed iterate
            stalled = True
            break
        t1, t2, t3, t4 = ref(c, s, tbar[-2], tbar[-1], 0.0, 0.0)
        rnorm = math.hypot(t3, t4)
        if not math.isfinite(rnorm):
            # the lists still hold the last finite step's state
            nonfinite = True
            break
        reflections.append((c, s))
        columns += (np.array(col_a), np.array(col_b))
        tbar[-2:] = t1, t2, t3, t4
        k += 1
        history.append(rnorm)

    status = final_status(nonfinite, rnorm <= threshold, stalled or k >= min(m, n))

    if k == 0:
        x = np.zeros(m)
        y = np.zeros(n)
    else:
        z = backward_substitution(columns, tbar)
        x = hess.V[:, :k] @ z[0::2]
        y = hess.U[:, :k] @ z[1::2]

    storage = {"basis": hess.V[:, :k].size + hess.U[:, :k].size, "qp": m + n,
               "t": len(columns), "z": len(columns), "t_z_shared": True,
               "givens": 8 * len(reflections), "r": sum(map(len, columns))}
    diagnostics = {"breakdowns": list(hess.breakdown_flags), "storage": storage}
    return SolveReport(x=x, y=y, status=status,
                       residual_history=np.asarray(history),
                       iterations=k, matvec_count=matvecs,
                       diagnostics=diagnostics)
