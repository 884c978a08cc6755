import time

import numpy as np
import pytest

from gpmr import (
    HessenbergState,
    LinearOperator,
    ReductionExhaustedError,
    hessenberg_step,
)
from gpmr.hessenberg import _replacement_vector, orthogonalize
from conftest import dense_operator, identity_operator, pad_columns


def run_steps(A, B, b, c, k, reorth=False, capacity=None):
    state = HessenbergState(dense_operator(A), dense_operator(B), b, c,
                            capacity=capacity or k)
    for _ in range(k):
        hessenberg_step(state, reorth=reorth)
    return state


def random_pair(rng, m, n):
    A = rng.standard_normal((m, n)) / np.sqrt(max(m, n))
    B = rng.standard_normal((n, m)) / np.sqrt(max(m, n))
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    return A, B, b, c


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_three_four_five():
    state = HessenbergState(identity_operator(2), identity_operator(2),
                            [3.0, 4.0], [1.0, 0.0])
    assert state.beta == 5.0
    assert np.allclose(state.V[:, 0], [0.6, 0.8], rtol=0, atol=1e-15)
    assert state.gamma == 1.0
    assert np.array_equal(state.U[:, 0], [1.0, 0.0])


def test_init_canonical_vector():
    state = HessenbergState(identity_operator(3), identity_operator(3),
                            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert state.beta == 1.0
    assert np.array_equal(state.V[:, 0], [1.0, 0.0, 0.0])


def test_init_normalization_oracle():
    rng = np.random.default_rng(41)
    b = rng.standard_normal(9)
    c = rng.standard_normal(9)
    state = HessenbergState(identity_operator(9), identity_operator(9), b, c)
    assert abs(np.linalg.norm(state.V[:, 0]) - 1.0) <= 1e-15
    assert abs(np.linalg.norm(state.U[:, 0]) - 1.0) <= 1e-15
    assert np.all(np.abs(state.beta * state.V[:, 0] - b) <= 1e-15 * (1 + np.abs(b)))


def test_init_rejects_zero_vectors():
    I2 = identity_operator(2)
    with pytest.raises(ValueError):
        HessenbergState(I2, I2, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        HessenbergState(I2, I2, [1.0, 0.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_identity_operators_force_breakdown_with_replacement():
    state = run_steps(np.eye(2), np.eye(2), [1.0, 0.0], [1.0, 0.0], k=1)
    assert np.array_equal(state.Hcols[0], [1.0, 0.0])
    assert np.array_equal(state.Fcols[0], [1.0, 0.0])
    assert state.breakdown_flags == [(True, True)]
    assert np.array_equal(state.V[:, 1], [0.0, 1.0])
    assert np.array_equal(state.U[:, 1], [0.0, 1.0])


def test_hand_evaluated_step():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.0], [1.0, 1.0]])
    state = run_steps(A, B, [1.0, 0.0], [0.0, 1.0], k=1)
    assert np.array_equal(state.Hcols[0], [1.0, 1.0])
    assert np.array_equal(state.Fcols[0], [1.0, 1.0])
    assert np.array_equal(state.V[:, 1], [0.0, 1.0])
    assert np.array_equal(state.U[:, 1], [1.0, 0.0])


def test_transposed_pair_gives_tridiagonal_mirror():
    rng = np.random.default_rng(43)
    m, n, k = 24, 18, 12
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    state = run_steps(A, A.T, b, c, k=k)
    H = pad_columns(state.Hcols, (k + 1, k))[:k, :]
    F = pad_columns(state.Fcols, (k + 1, k))[:k, :]
    assert np.linalg.norm(F - H.T) <= 1e-12 * np.linalg.norm(H)
    band_mask = np.abs(np.subtract.outer(np.arange(k), np.arange(k))) > 1
    assert np.max(np.abs(H[band_mask])) <= 1e-12


# ---------------------------------------------------------------------------
# process relations
# ---------------------------------------------------------------------------

def test_recurrence_relations_hold_without_reorthogonalization():
    rng = np.random.default_rng(47)
    for _ in range(5):
        m = int(rng.integers(10, 30))
        n = int(rng.integers(10, 30))
        k = 8
        A, B, b, c = random_pair(rng, m, n)
        state = run_steps(A, B, b, c, k=k)
        V = state.V[:, : k + 1]
        U = state.U[:, : k + 1]
        res_a = np.linalg.norm(A @ U[:, :k] - V @ pad_columns(state.Hcols, (k + 1, k)))
        res_b = np.linalg.norm(B @ V[:, :k] - U @ pad_columns(state.Fcols, (k + 1, k)))
        assert res_a <= 1e-12 * np.linalg.norm(A) * np.sqrt(k)
        assert res_b <= 1e-12 * np.linalg.norm(B) * np.sqrt(k)


def test_orthogonality_with_reorthogonalization():
    rng = np.random.default_rng(53)
    m = n = 55
    k = 50
    A, B, b, c = random_pair(rng, m, n)
    state = run_steps(A, B, b, c, k=k, reorth=True)
    V = state.V[:, :k]
    U = state.U[:, :k]
    assert np.linalg.norm(V.T @ V - np.eye(k)) <= 1e-10
    assert np.linalg.norm(U.T @ U - np.eye(k)) <= 1e-10


def test_projection_identity_with_reorthogonalization():
    rng = np.random.default_rng(59)
    m, n, k = 30, 26, 14
    A, B, b, c = random_pair(rng, m, n)
    state = run_steps(A, B, b, c, k=k, reorth=True)
    V = state.V[:, :k]
    U = state.U[:, :k]
    H = pad_columns(state.Hcols, (k + 1, k))[:k, :]
    F = pad_columns(state.Fcols, (k + 1, k))[:k, :]
    assert np.linalg.norm(V.T @ A @ U - H) <= 1e-10 * np.linalg.norm(A)
    assert np.linalg.norm(U.T @ B @ V - F) <= 1e-10 * np.linalg.norm(B)


def test_subspace_containment():
    # v_{2k} lies in span{b, ..., (AB)^{k-1} b, Ac, ..., (AB)^{k-1} Ac} and
    # v_{2k+1} additionally picks up (AB)^k b; mirrored for the u side.
    rng = np.random.default_rng(61)
    m, n = 12, 11
    A, B, b, c = random_pair(rng, m, n)
    steps = 9
    state = run_steps(A, B, b, c, k=steps, reorth=True)

    def span_basis(vectors):
        Q, _ = np.linalg.qr(np.column_stack(vectors))
        return Q

    AB = A @ B
    for k in range(1, (steps - 1) // 2 + 1):
        ab_b = [np.linalg.matrix_power(AB, j) @ b for j in range(k + 1)]
        ab_ac = [np.linalg.matrix_power(AB, j) @ (A @ c) for j in range(k)]
        even_basis = span_basis(ab_b[:k] + ab_ac)
        odd_basis = span_basis(ab_b + ab_ac)
        v_even = state.V[:, 2 * k - 1]
        v_odd = state.V[:, 2 * k]
        assert np.linalg.norm(v_even - even_basis @ (even_basis.T @ v_even)) <= 1e-8
        assert np.linalg.norm(v_odd - odd_basis @ (odd_basis.T @ v_odd)) <= 1e-8

    BA = B @ A
    for k in range(1, (steps - 1) // 2 + 1):
        ba_c = [np.linalg.matrix_power(BA, j) @ c for j in range(k + 1)]
        ba_bb = [np.linalg.matrix_power(BA, j) @ (B @ b) for j in range(k)]
        even_basis = span_basis(ba_c[:k] + ba_bb)
        odd_basis = span_basis(ba_c + ba_bb)
        u_even = state.U[:, 2 * k - 1]
        u_odd = state.U[:, 2 * k]
        assert np.linalg.norm(u_even - even_basis @ (even_basis.T @ u_even)) <= 1e-8
        assert np.linalg.norm(u_odd - odd_basis @ (odd_basis.T @ u_odd)) <= 1e-8


def test_subdiagonals_are_nonnegative_and_columns_unit():
    rng = np.random.default_rng(67)
    A, B, b, c = random_pair(rng, 16, 13)
    state = run_steps(A, B, b, c, k=10)
    for h, f in zip(state.Hcols, state.Fcols):
        assert h[-1] >= 0.0 and f[-1] >= 0.0
    for j in range(state.k + 1):
        assert abs(np.linalg.norm(state.V[:, j]) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(state.U[:, j]) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# basis layout and the orthogonalization kernel
# ---------------------------------------------------------------------------

def test_basis_columns_are_contiguous():
    rng = np.random.default_rng(83)
    A, B, b, c = random_pair(rng, 14, 9)
    state = run_steps(A, B, b, c, k=6)
    assert state.V.shape == (14, 7) and state.U.shape == (9, 7)
    for j in range(state.k + 1):
        assert state.V[:, j].flags.c_contiguous
        assert state.U[:, j].flags.c_contiguous
    assert state.V[:, : state.k + 1].T.flags.c_contiguous
    assert state.U[:, : state.k + 1].T.flags.c_contiguous


def _reference_mgs(basis, w):
    """Column-by-column modified Gram-Schmidt, one vector at a time."""
    coeffs = np.empty(basis.shape[1])
    for i in range(basis.shape[1]):
        coeffs[i] = basis[:, i] @ w
        w = w - coeffs[i] * basis[:, i]
    return coeffs, w


def test_orthogonalize_mgs_matches_reference_loop():
    rng = np.random.default_rng(89)
    for dim, count in ((40, 1), (300, 25), (1000, 60)):
        Q, _ = np.linalg.qr(rng.standard_normal((dim, count)))
        w = rng.standard_normal(dim) + Q @ rng.standard_normal(count)
        ref_coeffs, ref_w = _reference_mgs(Q, w.copy())
        rows = np.ascontiguousarray(Q.T)
        got_w = w.copy()
        coeffs = orthogonalize(rows, got_w, reorth=False)
        assert np.linalg.norm(coeffs - ref_coeffs) <= 1e-14 * np.linalg.norm(ref_coeffs)
        assert np.linalg.norm(got_w - ref_w) <= 1e-14 * np.linalg.norm(w)


def test_orthogonalize_cgs2_reconstructs_input():
    rng = np.random.default_rng(97)
    Q, _ = np.linalg.qr(rng.standard_normal((200, 30)))
    rows = np.ascontiguousarray(Q.T)
    w = rng.standard_normal(200) + Q @ rng.standard_normal(30)
    out = w.copy()
    coeffs = orthogonalize(rows, out, reorth=True)
    assert np.linalg.norm(coeffs @ rows + out - w) <= 1e-14 * np.linalg.norm(w)
    assert np.linalg.norm(rows @ out) <= 1e-14 * np.linalg.norm(w)


def test_orthogonalize_rejects_a_vector_it_cannot_update_in_place():
    rows = np.eye(3)[:2]
    with pytest.raises(ValueError):
        orthogonalize(rows, np.ones(6)[::2], reorth=False)
    with pytest.raises(ValueError):
        orthogonalize(rows, np.ones(3, dtype=np.float32), reorth=False)


def test_cgs2_keeps_orthogonality_where_mgs_loses_it():
    # a pair with widely spread singular values drives MGS bases away
    # from orthogonality; CGS2 must stay within the bound of the
    # orthogonality tests above
    rng = np.random.default_rng(101)
    m = n = 80
    k = 60
    Qa, _ = np.linalg.qr(rng.standard_normal((m, m)))
    Qb, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Qa @ np.diag(np.logspace(0, -12, m)) @ Qb.T
    B = Qb @ np.diag(np.logspace(0, -12, n)) @ Qa.T
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    mgs = run_steps(A, B, b, c, k=k)
    cgs2 = run_steps(A, B, b, c, k=k, reorth=True)
    eye = np.eye(k)
    loss_mgs = max(np.linalg.norm(mgs.V[:, :k].T @ mgs.V[:, :k] - eye),
                   np.linalg.norm(mgs.U[:, :k].T @ mgs.U[:, :k] - eye))
    assert loss_mgs > 1e-10
    V = cgs2.V[:, :k]
    U = cgs2.U[:, :k]
    assert np.linalg.norm(V.T @ V - eye) <= 1e-10
    assert np.linalg.norm(U.T @ U - eye) <= 1e-10


# ---------------------------------------------------------------------------
# replacement vector after a breakdown
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,k", [(2, 1), (7, 6), (50, 20), (200, 199)])
def test_replacement_is_a_unit_vector_orthogonal_to_the_basis(dim, k):
    rng = np.random.default_rng(dim * 1000 + k)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    rows = np.ascontiguousarray(Q.T)
    r = _replacement_vector(rows)
    assert abs(np.linalg.norm(r) - 1.0) <= 1e-14
    assert np.max(np.abs(rows @ r)) <= 1e-14


def test_replacement_on_leading_canonical_basis_is_next_canonical_vector():
    # a search trying e_0, e_1, ... in turn pays O(dim k) for each of the
    # 501 candidates it needs on this basis
    rows = np.eye(500, 4000)
    start = time.perf_counter()
    r = _replacement_vector(rows)
    elapsed = time.perf_counter() - start
    assert np.array_equal(r, np.eye(4000)[500])
    assert elapsed < 0.2


def test_nan_product_is_not_a_breakdown():
    # a NaN remainder goes on into the column, where the solve sees it as
    # a non-finite residual; it is not replaced like a vanished one
    nan_op = LinearOperator(3, 3, lambda x: np.full(3, np.nan))
    state = HessenbergState(nan_op, identity_operator(3),
                            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    with np.errstate(invalid="ignore"):
        hessenberg_step(state)
    assert state.breakdown_flags == [(False, False)]
    assert np.isnan(state.Hcols[0]).all() and np.isnan(state.V[:, 1]).all()


# ---------------------------------------------------------------------------
# exhaustion
# ---------------------------------------------------------------------------

def test_padding_mode_continues_to_longer_side():
    rng = np.random.default_rng(73)
    A, B, b, c = random_pair(rng, 5, 3)
    state = run_steps(A, B, b, c, k=3, capacity=5)
    hessenberg_step(state)
    hessenberg_step(state)
    assert state.k == 5
    assert all(u for _, u in state.breakdown_flags[2:])
    # padded u columns are exact zeros, recurrences still hold
    assert np.array_equal(state.U[:, 4], np.zeros(3))
    V = state.V[:, :6]
    U = state.U[:, :6]
    res_a = np.linalg.norm(A @ U[:, :5] - V @ pad_columns(state.Hcols, (6, 5)))
    assert res_a <= 1e-12 * np.linalg.norm(A) * np.sqrt(5)
    with pytest.raises(ReductionExhaustedError):
        hessenberg_step(state)


def test_capacity_guard():
    rng = np.random.default_rng(79)
    A, B, b, c = random_pair(rng, 6, 6)
    state = run_steps(A, B, b, c, k=2, capacity=2)
    with pytest.raises(ValueError):
        hessenberg_step(state)
