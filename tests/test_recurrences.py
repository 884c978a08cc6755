"""GPMR's and GMRES's scalar recurrences against the arithmetic they replaced.

``reference_ref``, ``reference_qr_update`` and ``reference_gmres_triangle``
are the reflection updates as they ran before they moved to Python floats:
numpy scalars read and written one entry at a time. IEEE double arithmetic
is the same on both, so the two must agree bit for bit. The GPMR oracle
keeps its own numpy arrays (packed triangle, coefficients by step,
transformed right-hand side) where the solve keeps Python lists. The
solves keep no state, so the references run on a replay of GPMR's process
and on GMRES's recorded ``orthogonalize`` calls, and must reproduce each
solve's history and iterate bit for bit.

The storage tests poison ``np.empty`` with NaN: GPMR's bases, GMRES's
basis and the block-Arnoldi pairs are allocated uninitialized, and a read
of an entry before its write would change a history or an iterate.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpmr import (
    LinearOperator,
    PartitionedSystem,
    backward_substitution,
    block_gmres_solve,
    gmres_solve,
    gpmr_solve,
)
from gpmr.solver import givens, reflection_coefficients
from conftest import (
    dense_operator,
    gmres_arnoldi,
    random_block_system,
    record_orthogonalize,
    replay_gpmr,
    replay_iterate,
    starting_block,
)


def packed_index(i, j):
    # 1-based (i, j) with i <= j into the column-packed triangle
    return j * (j - 1) // 2 + (i - 1)


class NumpyOracle:
    """GPMR's QR state in numpy arrays sized for ``cap`` steps: the
    column-packed triangle, the reflection coefficients of step i in
    column i-1 of ``givens_c`` and ``givens_s``, and the transformed
    right-hand side."""

    def __init__(self, lam, mu, cap, beta, gamma):
        self.lam, self.mu = lam, mu
        self.R = np.zeros(cap * (2 * cap + 1))
        self.givens_c = np.zeros((4, cap))
        self.givens_s = np.zeros((4, cap))
        self.tbar = np.zeros(2 * cap + 2)
        self.tbar[:2] = beta, gamma


def reference_ref(i, a1, a2, a3, a4, ws):
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


def reference_qr_update(ws, k, hcol, fcol):
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
        a1, a2, a3, a4 = reference_ref(i, a1, a2, rho, fcol[i], ws)
        R[packed_index(2 * i - 1, col_a)] = a1
        R[packed_index(2 * i, col_a)] = a2
        a1, a2 = a3, a4
        b1, b2, b3, b4 = reference_ref(i, b1, b2, hcol[i], delta, ws)
        R[packed_index(2 * i - 1, col_b)] = b1
        R[packed_index(2 * i, col_b)] = b2
        b1, b2 = b3, b4
    c, s, out11, out12, out22 = givens(a1, b1, a2, b2, hcol[k], fcol[k])
    ws.givens_c[:, k - 1] = c
    ws.givens_s[:, k - 1] = s
    R[packed_index(2 * k - 1, col_a)] = out11
    R[packed_index(2 * k - 1, col_b)] = out12
    R[packed_index(2 * k, col_b)] = out22


def reference_gmres_triangle(H, k):
    """GMRES's triangle after k columns and its rotations: each column
    of H takes the earlier rotations entry by entry, then its own
    reflection."""
    R = np.zeros((k + 1, k))
    cs = np.zeros(k)
    sn = np.zeros(k)
    for j in range(k):
        R[: j + 2, j] = H[: j + 2, j]
        for i in range(j):
            ri, rj = R[i, j], R[i + 1, j]
            R[i, j] = cs[i] * ri + sn[i] * rj
            R[i + 1, j] = sn[i] * ri - cs[i] * rj
        c, s, r = reflection_coefficients(R[j, j], R[j + 1, j])
        cs[j], sn[j] = c, s
        R[j, j] = r
        R[j + 1, j] = 0.0
    return R, cs, sn


def update_rhs(ws, k, apply):
    """The step-k update of the transformed right-hand side; returns the
    residual norm it yields."""
    t = apply(k, ws.tbar[2 * k - 2], ws.tbar[2 * k - 1], 0.0, 0.0, ws)
    ws.tbar[2 * k - 2 : 2 * k + 2] = t
    return math.hypot(t[2], t[3])


REGULARIZATION = st.sampled_from([0.0, -0.6, 1.0, 1e3])


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), REGULARIZATION, REGULARIZATION,
       st.booleans(), st.integers(0, 2**32 - 1))
def test_recurrences_match_numpy_scalar_oracles(m, n, lam, mu, reorth, seed):
    assume(m != n)
    rng = np.random.default_rng(seed)
    system, _, _ = random_block_system(rng, m, n, lam=lam, mu=mu, coupling=1.0)
    cap = max(m, n)
    # the whole reduction, past min(m, n) into zero-padded columns, and
    # past a zero diagonal where the solve would stop; the packed columns
    # and the reflections of step k are written once, at step k
    replay, history = replay_gpmr(system, cap, reorth=reorth)
    hess = replay.hess
    oracle = NumpyOracle(lam, mu, cap, hess.beta, hess.gamma)
    for k in range(1, cap + 1):
        reference_qr_update(oracle, k, hess.Hcols[k - 1], hess.Fcols[k - 1])
        assert update_rhs(oracle, k, reference_ref) == history[k]
    assert np.array_equal(np.concatenate(replay.columns), oracle.R)
    cs, sn = zip(*replay.reflections)
    assert np.array_equal(np.transpose(cs), oracle.givens_c)
    assert np.array_equal(np.transpose(sn), oracle.givens_s)
    assert np.array_equal(replay.tbar, oracle.tbar)

    # the solve runs the same recurrences: its history is the replay's,
    # and its iterate is the replay's triangle solved against its RHS
    report = gpmr_solve(system, 0.0, 1e-300, k_max=cap, reorth=reorth)
    k = report.iterations
    assert np.array_equal(report.residual_history, history[: k + 1])
    if k:
        x, y = replay_iterate(replay, k)
        assert np.array_equal(report.x, x)
        assert np.array_equal(report.y, y)

    # GMRES: every budget, so every iteration's triangle is checked
    # through the history it yields and the iterate it solves for
    K, d = system.full_operator(), system.rhs_full()
    with pytest.MonkeyPatch.context() as mp:
        calls = record_orthogonalize(mp)
        for budget in range(1, m + n + 1):
            calls.clear()
            rep = gmres_solve(K, d, 0.0, 1e-300, budget, reorth=reorth)
            k = rep.iterations
            _, H = gmres_arnoldi(calls, k)
            R, cs, sn = reference_gmres_triangle(H, k)
            tbar = np.zeros(k + 1)
            tbar[0] = np.linalg.norm(d)
            want = [tbar[0]]
            for j in range(k):
                tb = tbar[j]
                tbar[j] = cs[j] * tb
                tbar[j + 1] = sn[j] * tb
                want.append(abs(tbar[j + 1]))
            assert np.array_equal(rep.residual_history, want)
            z = backward_substitution([R[: j + 1, j] for j in range(k)], tbar)
            assert np.array_equal(rep.x, calls[k - 1][0].T @ z)
            if k < budget:
                break


# ---------------------------------------------------------------------------
# uninitialized storage
# ---------------------------------------------------------------------------

def converging():
    system, _, _ = random_block_system(np.random.default_rng(601), 30, 20)
    return system, 1e-12, 1e-10, 20


def padded():
    # an unreachable tolerance drives m != n past min(m, n) = 8: step 9
    # applies B to V's first zero column (the stalled case pads U)
    system, _, _ = random_block_system(np.random.default_rng(607), 8, 12,
                                       coupling=1.0)
    return system, 0.0, 1e-300, 9


def stalled():
    # mu = 0 makes the first zero-padded column pair singular
    rng = np.random.default_rng(157)
    A = rng.standard_normal((12, 8))
    system = PartitionedSystem(1.0, 0.0, dense_operator(A), dense_operator(A.T.copy()),
                               rng.standard_normal(12), rng.standard_normal(8))
    return system, 1e-12, 1e-10, 20


def breakdown():
    # b and c live near an invariant 2-dim subspace: both sides break
    # down at step 2 and continue on replacement vectors
    pair = np.zeros((4, 4))
    pair[0, 1] = pair[1, 0] = 1.0
    pair[2, 3] = pair[3, 2] = 2.0
    b = np.array([1.0, 0.0, 1e-3, 0.0])
    c = np.array([1.0, 0.0, 0.0, 0.0])
    system = PartitionedSystem(1.5, 1.5, dense_operator(pair), dense_operator(pair), b, c)
    return system, 1e-12, 1e-10, 4


def nonfinite():
    # the seventh operator apply returns an Inf
    system, A, B = random_block_system(np.random.default_rng(409), 12, 10, coupling=0.9)
    applies = 0

    def overflowing(M):
        def apply(x):
            nonlocal applies
            applies += 1
            y = M @ x
            if applies >= 7:
                y[0] = np.inf
            return y
        return LinearOperator(M.shape[0], M.shape[1], apply)

    system.A = overflowing(A)
    system.B = overflowing(B)
    return system, 1e-12, 1e-10, 30


def poison_empty(monkeypatch):
    """Make every float ``np.empty`` array start out NaN."""
    real_empty = np.empty

    def nan_empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)


def all_solves(case):
    """GPMR's report, GMRES's and Block-GMRES's two on the case, each
    solve on a fresh copy of it (the nonfinite case counts its applies)."""
    system, atol, rtol, k_max = case()
    reports = [gpmr_solve(system, atol, rtol, k_max=k_max)]
    system, atol, rtol, k_max = case()
    split = (system.m, system.n)
    reports.append(gmres_solve(system.full_operator(), system.rhs_full(),
                               atol, rtol, k_max, split=split))
    system, atol, rtol, k_max = case()
    reports += block_gmres_solve(system.full_operator(), starting_block(system),
                                 atol, rtol, k_max, split=split)
    return reports


@pytest.mark.parametrize("case, status, min_iterations", [
    (converging, "converged", 1),
    (padded, "converged", 9),
    (stalled, "exhausted", 8),
    (breakdown, "converged", 3),
    (nonfinite, "nonfinite", 1),
])
def test_uninitialized_storage_is_written_before_it_is_read(monkeypatch, case, status,
                                                           min_iterations):
    clean = all_solves(case)
    assert clean[0].status == status and clean[0].iterations >= min_iterations
    poison_empty(monkeypatch)
    for poisoned, want in zip(all_solves(case), clean, strict=True):
        assert poisoned.status == want.status
        assert poisoned.iterations == want.iterations
        assert np.array_equal(poisoned.residual_history, want.residual_history)
        assert np.array_equal(poisoned.x, want.x)
        assert np.array_equal(poisoned.y, want.y)
