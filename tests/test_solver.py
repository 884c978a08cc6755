import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmr import (
    LinearOperator,
    PartitionedSystem,
    SingularSubproblemError,
    backward_substitution,
    block_gmres_solve,
    gmres_solve,
    gpmr_solve,
    solve_partitioned,
)
from gpmr.solver import givens, ref
from conftest import (
    dense_full_matrix,
    dense_operator,
    random_block_system,
    replay_gpmr,
    replay_iterate,
    residual_norm,
    starting_block,
)


def reflection_block(c, s):
    """Explicit 4x4 orthogonal block of one step's coefficients."""

    def refl(rows, cj, sj):
        G = np.eye(4)
        a, b = rows
        G[a, a] = cj
        G[a, b] = sj
        G[b, a] = sj
        G[b, b] = -cj
        return G

    G1 = refl((0, 3), c[0], s[0])
    G2 = refl((0, 1), c[1], s[1])
    G3 = refl((1, 3), c[2], s[2])
    G4 = refl((1, 2), c[3], s[3])
    return G4 @ G3 @ G2 @ G1


def dense_triangle(columns):
    """The triangle whose packed columns are ``columns``, as a dense array."""
    R = np.zeros((len(columns), len(columns)))
    for j, col in enumerate(columns):
        R[: j + 1, j] = col
    return R


def triangle_columns(dense):
    """The packed columns of an upper triangle: column j its j upper entries."""
    return [dense[: j + 1, j].tolist() for j in range(dense.shape[0])]


def assemble_projected_matrix(hess, lam, mu, k):
    """The (2k+2) x 2k projected block matrix, built from the raw columns."""
    S = np.zeros((2 * k + 2, 2 * k))
    for j in range(1, k + 1):
        h = hess.Hcols[j - 1]
        f = hess.Fcols[j - 1]
        for i in range(1, j + 2):
            S[2 * i - 2, 2 * j - 1] = h[i - 1]
            S[2 * i - 1, 2 * j - 2] = f[i - 1]
        S[2 * j - 2, 2 * j - 2] += lam
        S[2 * j - 1, 2 * j - 1] += mu
    return S


# ---------------------------------------------------------------------------
# ref
# ---------------------------------------------------------------------------

def test_ref_zero_vector_stays_zero():
    c = (0.3, -0.8, 0.6, 1.0)
    s = (0.95, 0.6, 0.8, 0.0)
    assert ref(c, s, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0, 0.0)


def test_ref_identity_coefficients():
    assert ref((1.0,) * 4, (0.0,) * 4, 1.0, 2.0, 3.0, 4.0) == (1.0, -2.0, -3.0, 4.0)


def test_ref_pure_exchange_coefficients():
    assert ref((0.0,) * 4, (1.0,) * 4, 1.0, 2.0, 3.0, 4.0) == (2.0, 3.0, 1.0, 4.0)


def test_ref_matches_explicit_block():
    rng = np.random.default_rng(83)
    for trial in range(50):
        inputs = rng.standard_normal(6)
        c, s, *_ = givens(*inputs)
        G = reflection_block(c, s)
        a = rng.standard_normal(4)
        got = np.array(ref(c, s, *a))
        want = G @ a
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.linalg.norm(a))


# ---------------------------------------------------------------------------
# givens
# ---------------------------------------------------------------------------

def test_givens_already_triangular():
    c, s, r11, r12, r22 = givens(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert (r11, r12, r22) == (1.0, 0.0, 1.0)
    assert np.array_equal(s, np.zeros(4))
    # the third reflection sees a negated diagonal and flips its sign
    assert np.array_equal(c, [1.0, 1.0, -1.0, 1.0])


def test_givens_hand_trace():
    c, s, r11, r12, r22 = givens(3.0, 1.0, 0.0, 2.0, 0.0, 4.0)
    assert r11 == pytest.approx(5.0, abs=1e-15)
    assert r12 == pytest.approx(0.6, abs=1e-15)
    assert r22 == pytest.approx(np.sqrt(4.64), abs=1e-12)
    assert c[0] == pytest.approx(0.6) and s[0] == pytest.approx(0.8)
    assert c[1] == 1.0 and s[1] == 0.0
    assert c[2] == pytest.approx(-0.928477, abs=1e-6)
    assert s[2] == pytest.approx(0.371391, abs=1e-6)


def test_givens_zero_norm_convention():
    c, s, r11, r12, r22 = givens(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert (r11, r12, r22) == (0.0, 0.0, 0.0)
    assert np.array_equal(c, np.ones(4))
    assert np.array_equal(s, np.zeros(4))


def test_givens_reconstruction_oracle():
    rng = np.random.default_rng(89)
    for trial in range(200):
        r11b, r12b, r21b, r22b, h, f = rng.standard_normal(6)
        c, s, out11, out12, out22 = givens(r11b, r12b, r21b, r22b, h, f)
        G = reflection_block(c, s)
        col_a = np.array([r11b, r21b, 0.0, f])
        col_b = np.array([r12b, r22b, h, 0.0])
        assert np.max(np.abs(G.T @ [out11, 0.0, 0.0, 0.0] - col_a)) <= 1e-14
        assert np.max(np.abs(G.T @ [out12, out22, 0.0, 0.0] - col_b)) <= 1e-14
        assert out11 >= 0.0 and out22 >= 0.0


# ---------------------------------------------------------------------------
# backward substitution
# ---------------------------------------------------------------------------

def test_backward_substitution_identity():
    columns = triangle_columns(np.eye(2))
    assert np.array_equal(backward_substitution(columns, [5.0, 7.0]), [5.0, 7.0])


def test_backward_substitution_small():
    columns = triangle_columns(np.array([[2.0, 1.0], [0.0, 4.0]]))
    assert np.array_equal(backward_substitution(columns, [4.0, 8.0]), [1.0, 2.0])


def test_backward_substitution_residual():
    rng = np.random.default_rng(97)
    R = np.triu(rng.standard_normal((20, 20))) + 5.0 * np.eye(20)
    t = rng.standard_normal(20)
    z = backward_substitution(triangle_columns(R), t.tolist())
    assert np.linalg.norm(R @ z - t) <= 1e-12 * np.linalg.norm(t)


def test_backward_substitution_singular_diagonal():
    R = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularSubproblemError) as info:
        backward_substitution(triangle_columns(R), [1.0, 1.0])
    assert info.value.index == 2


def test_backward_substitution_names_lowest_zero_diagonal():
    # of two zero diagonals the later one is reported, the first a
    # substitution from the bottom meets; the right-hand side is untouched
    R = np.triu(np.ones((6, 6)))
    R[2, 2] = R[4, 4] = 0.0
    tbar = [1.0] * 8
    before = list(tbar)
    with pytest.raises(SingularSubproblemError) as info:
        backward_substitution(triangle_columns(R), tbar)
    assert info.value.index == 5
    assert tbar == before


def test_backward_substitution_matches_row_oriented_loop():
    # the reference is the entry-by-entry row loop over the same
    # triangle; sums run in another order, hence the rounding tolerance
    rng = np.random.default_rng(99)
    k = 12
    R = np.triu(rng.standard_normal((2 * k, 2 * k))) + 4.0 * np.eye(2 * k)
    t = rng.standard_normal(2 * k)
    expected = t.copy()
    for i in range(2 * k, 0, -1):
        acc = expected[i - 1]
        for j in range(i + 1, 2 * k + 1):
            acc -= R[i - 1, j - 1] * expected[j - 1]
        expected[i - 1] = acc / R[i - 1, i - 1]
    z = backward_substitution(triangle_columns(R), t.tolist())
    assert np.linalg.norm(z - expected) <= 1e-13 * np.linalg.norm(expected)


# ---------------------------------------------------------------------------
# gpmr_solve
# ---------------------------------------------------------------------------

def test_toy_system_converges_in_one_iteration():
    system = PartitionedSystem(2.0, 2.0, dense_operator([[1.0]]),
                               dense_operator([[1.0]]), [3.0], [3.0])
    report = gpmr_solve(system, 1e-12, 1e-10, k_max=1)
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(report.x, [1.0], rtol=0, atol=1e-14)
    assert np.allclose(report.y, [1.0], rtol=0, atol=1e-14)


def test_rectangular_system_matches_direct_solve():
    rng = np.random.default_rng(101)
    m, n = 10, 8
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    B = rng.standard_normal((n, m)) / np.sqrt(m)
    x_true = np.ones(m)
    y_true = np.ones(n)
    b = x_true + A @ y_true
    c = B @ x_true + y_true
    system = PartitionedSystem(1.0, 1.0, dense_operator(A), dense_operator(B), b, c)
    report = gpmr_solve(system, 1e-12, 1e-10, k_max=18)
    assert report.converged
    assert report.iterations <= 18
    K = np.block([[np.eye(m), A], [B, np.eye(n)]])
    direct = np.linalg.solve(K, np.concatenate([b, c]))
    got = np.concatenate([report.x, report.y])
    assert np.linalg.norm(got - direct) <= 1e-8 * np.linalg.norm(direct)


def test_true_residual_meets_documented_slack():
    rng = np.random.default_rng(103)
    for trial in range(5):
        system, A, B = random_block_system(rng, 20, 17)
        atol, rtol = 1e-12, 1e-10
        report = gpmr_solve(system, atol, rtol, k_max=40)
        assert report.converged
        true_res = residual_norm(system, report.x, report.y)
        norm_d = np.linalg.norm(system.rhs_full())
        assert true_res <= 10.0 * (atol + rtol * norm_d)


def test_residual_history_matches_recurrence_and_truth():
    rng = np.random.default_rng(107)
    system, A, B = random_block_system(rng, 25, 22)
    report = gpmr_solve(system, 1e-12, 1e-10, k_max=47)
    hist = report.residual_history
    norm_d = np.linalg.norm(system.rhs_full())
    assert hist[0] == pytest.approx(norm_d, rel=1e-15)
    for k in range(1, report.iterations + 1):
        rep_k = gpmr_solve(system, 1e-12, 1e-10, k_max=k)
        true_res = residual_norm(system, rep_k.x, rep_k.y)
        assert abs(hist[k] - true_res) <= 1e-8 * norm_d


def test_residual_history_is_nonincreasing():
    rng = np.random.default_rng(109)
    for trial in range(4):
        system, _, _ = random_block_system(rng, 18, 18, coupling=0.9)
        report = gpmr_solve(system, 1e-12, 1e-10, k_max=36)
        hist = report.residual_history
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev * (1.0 + 1e-14)


def test_qr_factorization_matches_projected_matrix():
    rng = np.random.default_rng(113)
    system, A, B = random_block_system(rng, 30, 28)
    report = gpmr_solve(system, 0.0, 1e-30, k_max=15)
    k = report.iterations
    assert k == 15
    # the replay is the solve: same history and iterate, bit for bit
    replay, history = replay_gpmr(system, k)
    assert np.array_equal(report.residual_history, history)
    S = assemble_projected_matrix(replay.hess, system.lam, system.mu, k)
    Qt = np.eye(2 * k + 2)
    for i, (c, s) in enumerate(replay.reflections, start=1):
        Gi = np.eye(2 * k + 2)
        Gi[2 * i - 2:2 * i + 2, 2 * i - 2:2 * i + 2] = reflection_block(c, s)
        Qt = Gi @ Qt
    R_stack = np.vstack([dense_triangle(replay.columns), np.zeros((2, 2 * k))])
    assert np.linalg.norm(Qt.T @ R_stack - S) <= 1e-12 * np.linalg.norm(S)
    x, y = replay_iterate(replay, k)
    assert np.array_equal(report.x, x) and np.array_equal(report.y, y)


def test_first_iteration_seeds_lambda_mu():
    # the k = 1 triangle must match a QR of the first projected column pair,
    # whose diagonal seeds are (lam, mu)
    rng = np.random.default_rng(127)
    lam, mu = 2.0, 3.0
    system, A, B = random_block_system(rng, 4, 4, lam=lam, mu=mu)
    report = gpmr_solve(system, 1e-12, 1e-10, k_max=1)
    replay, history = replay_gpmr(system, 1)
    assert np.array_equal(report.residual_history, history)
    S1 = assemble_projected_matrix(replay.hess, lam, mu, 1)
    assert S1[0, 0] == lam and S1[1, 1] == mu
    Q, R = np.linalg.qr(S1)
    for j in range(2):
        if R[j, j] < 0:
            R[j, :] = -R[j, :]
    got = dense_triangle(replay.columns)
    assert np.allclose(got, R, rtol=0, atol=1e-13)
    x, y = replay_iterate(replay, 1)
    assert np.array_equal(report.x, x) and np.array_equal(report.y, y)


def test_statuses_max_iterations_and_exhausted():
    rng = np.random.default_rng(131)
    system, _, _ = random_block_system(rng, 12, 12, coupling=0.9)
    report = gpmr_solve(system, 1e-12, 1e-10, k_max=2)
    assert report.status == "max_iterations"
    # a rectangular system cannot converge within min(m, n) steps: the
    # x-side basis still misses directions when a budget of min(m, n) ends
    rect, _, _ = random_block_system(rng, 12, 8, coupling=0.9)
    report = gpmr_solve(rect, 1e-12, 1e-10, k_max=8)
    assert report.status == "exhausted"
    assert report.iterations == 8


@pytest.mark.parametrize("method", ["gpmr", "gmres", "block-gmres"])
def test_a_solve_meeting_the_threshold_at_its_dimension_cap_is_converged(method):
    # with m = n = 2, GPMR and Block-GMRES need both of their steps and
    # GMRES all four of the order-4 operator; the last step leaves no room
    # to grow the subspace, and "converged" takes precedence over that
    rng = np.random.default_rng(151)
    system, _, _ = random_block_system(rng, 2, 2, coupling=1.0)
    report = solve_partitioned(method, system, 0.0, 1e-10, 4)
    history = report.residual_history
    assert report.iterations == {"gpmr": 2, "gmres": 4, "block-gmres": 2}[method]
    assert history[-2] > 1e-10 * history[0] >= history[-1]
    assert report.status == "converged"


def test_invalid_arguments():
    rng = np.random.default_rng(137)
    system, _, _ = random_block_system(rng, 4, 4)
    with pytest.raises(ValueError):
        gpmr_solve(system, 0.0, 0.0, k_max=4)
    with pytest.raises(ValueError):
        gpmr_solve(system, -1.0, 1e-10, k_max=4)
    with pytest.raises(ValueError):
        gpmr_solve(system, 1e-12, 1e-10, k_max=0)


def test_every_solver_rejects_bad_tolerances_with_one_message():
    from gpmr import block_gmres_solve, gmres_solve
    from gpmr.cli import ExperimentConfig

    rng = np.random.default_rng(138)
    system, _, _ = random_block_system(rng, 4, 4)
    K, D = system.full_operator(), starting_block(system)
    tolerances = "tolerances must be nonnegative and not both zero"
    budget = "k_max must be at least 1"
    for atol, rtol, k_max, message in ((0.0, 0.0, 4, tolerances),
                                       (-1.0, 1e-10, 4, tolerances),
                                       (1e-12, -1.0, 4, tolerances),
                                       (np.nan, 1e-10, 4, tolerances),
                                       (1e-12, np.nan, 4, tolerances),
                                       (np.inf, 1e-10, 4, "tolerances must be finite"),
                                       (1e-12, np.inf, 4, "tolerances must be finite"),
                                       (1e-12, 1e-10, 0, budget)):
        with pytest.raises(ValueError, match=message):
            gpmr_solve(system, atol, rtol, k_max)
        with pytest.raises(ValueError, match=message):
            gmres_solve(K, system.rhs_full(), atol, rtol, k_max)
        with pytest.raises(ValueError, match=message):
            block_gmres_solve(K, D, atol, rtol, k_max)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(matrix_path="x", atol=atol, rtol=rtol, k_max=k_max)


@pytest.mark.parametrize("k_max", [2.5, 4.0, "3", np.nan, np.inf, None])
def test_every_solver_rejects_a_budget_that_is_not_an_integer(k_max):
    from gpmr import gmres_solve
    from gpmr.cli import ExperimentConfig

    rng = np.random.default_rng(139)
    system, _, _ = random_block_system(rng, 4, 4)
    K = system.full_operator()
    message = re.escape(f"k_max must be an integer, got {k_max!r}")
    with pytest.raises(ValueError, match=message):
        gpmr_solve(system, 1e-12, 1e-10, k_max)
    with pytest.raises(ValueError, match=message):
        gmres_solve(K, system.rhs_full(), 1e-12, 1e-10, k_max)
    with pytest.raises(ValueError, match=message):
        block_gmres_solve(K, starting_block(system), 1e-12, 1e-10, k_max)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(matrix_path="x", k_max=k_max)


@pytest.mark.parametrize("budget, message", [
    (2.5, "must be an integer, got 2.5"), (4.0, "must be an integer, got 4.0"),
    ("3", "must be an integer, got '3'"), (0, "must be at least 1"),
])
def test_both_processes_reject_storage_that_is_not_a_positive_integer(budget, message):
    from gpmr import HessenbergState, block_arnoldi_init

    rng = np.random.default_rng(141)
    system, _, _ = random_block_system(rng, 4, 4)
    with pytest.raises(ValueError, match=re.escape(f"capacity {message}")):
        HessenbergState(system.A, system.B, system.b, system.c, capacity=budget)
    with pytest.raises(ValueError, match=re.escape(f"k_max {message}")):
        block_arnoldi_init(starting_block(system), budget)


def test_numpy_integer_budget_is_accepted():
    rng = np.random.default_rng(139)
    system, _, _ = random_block_system(rng, 4, 4)
    assert gpmr_solve(system, 1e-12, 1e-10, np.int64(8)).converged


def test_cgs2_history_matches_mgs_history():
    # on a well-conditioned pair both paths keep their bases orthonormal
    # to rounding, so the histories agree relative to |(b, c)|
    rng = np.random.default_rng(140)
    for m, n in ((60, 60), (80, 50)):
        system, _, _ = random_block_system(rng, m, n)
        mgs = gpmr_solve(system, 1e-12, 1e-10, k_max=min(m, n))
        cgs2 = gpmr_solve(system, 1e-12, 1e-10, k_max=min(m, n), reorth=True)
        assert mgs.converged and cgs2.converged
        assert mgs.iterations == cgs2.iterations < min(m, n)
        gap = np.abs(cgs2.residual_history - mgs.residual_history)
        assert np.max(gap) <= 1e-10 * mgs.residual_history[0]


@pytest.mark.parametrize("method, per_iteration",
                         [("gpmr", 1), ("gmres", 1), ("block_gmres", 2)])
def test_operators_count_a_and_b_applies_per_iteration(method, per_iteration):
    rng = np.random.default_rng(139)
    system, _, _ = random_block_system(rng, 10, 10)
    # the build applies neither
    assert (system.A.applies, system.B.applies) == (0, 0)
    if method == "gpmr":
        report = gpmr_solve(system, 1e-12, 1e-10, k_max=10)
    elif method == "gmres":
        report = gmres_solve(system.full_operator(), system.rhs_full(), 1e-12, 1e-10, 20)
    else:
        report, _ = block_gmres_solve(system.full_operator(), starting_block(system),
                                      1e-12, 1e-10, 10)
    assert report.converged and report.iterations > 1
    applies = per_iteration * report.iterations
    assert (system.A.applies, system.B.applies) == (applies, applies)


def test_zero_rhs_rejected():
    A = dense_operator(np.ones((2, 2)))
    with pytest.raises(ValueError):
        PartitionedSystem(1.0, 1.0, A, A, np.zeros(2), np.ones(2))


def test_view_returning_operators_do_not_corrupt_bases():
    # an operator may return its input buffer; the solve must not write
    # through it into the stored basis columns
    ident_view = LinearOperator(3, 3, lambda x: x)
    coupled = LinearOperator(3, 3, lambda x: 0.5 * x[::-1])
    system = PartitionedSystem(1.0, 1.0, ident_view, coupled,
                               [1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    report = gpmr_solve(system, 1e-12, 1e-10, k_max=6)
    K = np.block([[np.eye(3), np.eye(3)],
                  [0.5 * np.eye(3)[::-1], np.eye(3)]])
    direct = np.linalg.solve(K, system.rhs_full())
    got = np.concatenate([report.x, report.y])
    assert report.converged
    assert np.linalg.norm(got - direct) <= 1e-10


def test_extreme_scaling_does_not_overflow():
    rng = np.random.default_rng(163)
    for scale in (1e150, 1e-150):
        A = scale * (rng.standard_normal((6, 6)) + 3 * np.eye(6))
        system = PartitionedSystem(scale, scale, dense_operator(A),
                                   dense_operator(A.T.copy()),
                                   scale * np.ones(6), scale * np.ones(6))
        report = gpmr_solve(system, 0.0, 1e-10, k_max=12)
        K = np.block([[scale * np.eye(6), A], [A.T, scale * np.eye(6)]])
        direct = np.linalg.solve(K, system.rhs_full())
        got = np.concatenate([report.x, report.y])
        assert report.converged
        assert np.linalg.norm(got - direct) <= 1e-7 * np.linalg.norm(direct)


def test_vanishing_regularization_square_systems():
    rng = np.random.default_rng(151)
    m = n = 10
    A = rng.standard_normal((m, n)) + 3 * np.eye(m)
    B2 = rng.standard_normal((n, m)) + 3 * np.eye(n)
    # saddle point: mu = 0 with a transposed coupling pair
    saddle = PartitionedSystem(1.0, 0.0, dense_operator(A),
                               dense_operator(A.T.copy()),
                               rng.standard_normal(m), rng.standard_normal(n))
    report = gpmr_solve(saddle, 1e-12, 1e-10, k_max=2 * m)
    K = np.block([[np.eye(m), A], [A.T, np.zeros((n, n))]])
    direct = np.linalg.solve(K, saddle.rhs_full())
    got = np.concatenate([report.x, report.y])
    assert report.converged
    assert np.linalg.norm(got - direct) <= 1e-8 * np.linalg.norm(direct)

    # both regularization parameters zero
    off = PartitionedSystem(0.0, 0.0, dense_operator(A), dense_operator(B2),
                            rng.standard_normal(m), rng.standard_normal(n))
    report = gpmr_solve(off, 1e-12, 1e-10, k_max=2 * m)
    K = np.block([[np.zeros((m, m)), A], [B2, np.zeros((n, n))]])
    direct = np.linalg.solve(K, off.rhs_full())
    got = np.concatenate([report.x, report.y])
    assert report.converged
    assert np.linalg.norm(got - direct) <= 1e-8 * np.linalg.norm(direct)


def test_vanishing_mu_rectangular_stops_at_last_well_posed_step():
    # padding past the shorter side with mu = 0 makes the subproblem
    # singular; the solve must stop with the best earlier iterate
    rng = np.random.default_rng(157)
    m, n = 12, 8
    A = rng.standard_normal((m, n))
    system = PartitionedSystem(1.0, 0.0, dense_operator(A),
                               dense_operator(A.T.copy()),
                               rng.standard_normal(m), rng.standard_normal(n))
    report = gpmr_solve(system, 1e-12, 1e-10, k_max=20)
    assert report.status == "exhausted"
    assert report.iterations == n
    assert len(report.residual_history) == n + 1
    assert np.isfinite(report.x).all() and np.isfinite(report.y).all()


def test_breakdown_mid_solve_keeps_recurrence_valid():
    # b and c live in an invariant 2-dim subspace of the 4-dim blocks, so
    # both sides break down at step 2; replacement vectors let the solve
    # continue and the residual estimate must keep tracking the truth
    pair = np.zeros((4, 4))
    pair[0, 1] = pair[1, 0] = 1.0
    pair[2, 3] = pair[3, 2] = 2.0
    e1 = np.zeros(4)
    e1[0] = 1.0
    b = e1 + 0.0
    c = e1.copy()
    b[2] = 1e-3  # small component outside the invariant subspace
    system = PartitionedSystem(1.5, 1.5, dense_operator(pair),
                               dense_operator(pair), b, c)
    report = gpmr_solve(system, 1e-12, 1e-10, k_max=4)
    flags = report.diagnostics["breakdowns"]
    assert any(v or u for v, u in flags[:-1])  # breakdown before the last step
    norm_d = np.linalg.norm(system.rhs_full())
    for k in range(1, report.iterations + 1):
        rep_k = gpmr_solve(system, 1e-12, 1e-10, k_max=k)
        gap = abs(report.residual_history[k] - residual_norm(system, rep_k.x, rep_k.y))
        assert gap <= 1e-10 * norm_d
    assert report.converged
    true_res = residual_norm(system, report.x, report.y)
    assert true_res <= 10.0 * (1e-12 + 1e-10 * norm_d)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9),
       st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([0.5, 1.0, 3.0]),
       st.sampled_from([1e-12, 1e-300]), st.booleans(), st.integers(0, 2**32 - 1))
def test_truncated_solves_are_prefixes_of_the_full_solve(m, n, lam, mu, rtol, reorth,
                                                         seed):
    # the per-iteration checks elsewhere read iterate k off a k_max=k
    # solve, which holds only if a longer solve passes through the same
    # states: its bases, triangle and transformed RHS at step k; an
    # unreachable rtol runs both solvers to their ends
    rng = np.random.default_rng(seed)
    system, A, B = random_block_system(rng, m, n, lam=lam, mu=mu, coupling=1.0)
    full = gpmr_solve(system, 0.0, rtol, k_max=m + n, reorth=reorth)
    for k in range(1, full.iterations + 1):
        rep = gpmr_solve(system, 0.0, rtol, k_max=k, reorth=reorth)
        assert np.array_equal(rep.residual_history, full.residual_history[:k + 1])
        if k < full.iterations:
            assert rep.status == ("exhausted" if k >= min(m, n) else "max_iterations")
        else:
            assert rep.status == full.status

    K = dense_operator(dense_full_matrix(system, A, B))
    D = starting_block(system)
    full_b, _ = block_gmres_solve(K, D, 0.0, rtol, m + n, reorth=reorth)
    summed = full_b.diagnostics["summed_history"]
    for k in range(1, full_b.iterations + 1):
        rep_b, _ = block_gmres_solve(K, D, 0.0, rtol, k, reorth=reorth)
        assert np.array_equal(rep_b.diagnostics["summed_history"], summed[:k + 1])
        if k < full_b.iterations:
            assert rep_b.status == ("exhausted" if 2 * k >= m + n else "max_iterations")
        else:
            assert rep_b.status == full_b.status
