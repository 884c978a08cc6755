import io

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import splu

from gpmr import (
    spmv,
    BlockSplit,
    GraphPartitionError,
    LinearOperator,
    PartitionedSystem,
    PreconditionerError,
    bisect_graph,
    block_gmres_solve,
    build_preconditioned_system,
    csr_from_coo,
    csr_identity,
    extract_blocks,
    gmres_solve,
    gpmr_solve,
    read_permutation,
    recover_solution,
)
from conftest import csr, dense_operator, identity_operator, small_reservoir, starting_block


def assert_linear(op, rng, rel=1e-12, probes=3):
    for _ in range(probes):
        x = rng.standard_normal(op.ncols)
        y = rng.standard_normal(op.ncols)
        alpha, beta = rng.standard_normal(2)
        lhs = op.apply(alpha * x + beta * y)
        rhs = alpha * op.apply(x) + beta * op.apply(y)
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
        assert np.linalg.norm(lhs - rhs) <= rel * scale


def random_permuted_matrix(rng, order, density=0.35):
    dense = np.where(rng.random((order, order)) < density,
                     rng.standard_normal((order, order)), 0.0)
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    return csr(dense), dense


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

def test_operator_linearity_probe():
    rng = np.random.default_rng(3)
    M = csr(rng.standard_normal((6, 4)))
    assert_linear(LinearOperator.from_matrix(M), rng)
    assert_linear(dense_operator(rng.standard_normal((5, 5))), rng)
    assert_linear(identity_operator(7), rng)


def test_preconditioned_operators_are_linear():
    rng = np.random.default_rng(4)
    m, n = 6, 5
    Md = csr(rng.standard_normal((m, m)) + 4 * np.eye(m))
    Nd = csr(rng.standard_normal((n, n)) + 4 * np.eye(n))
    Ad = csr(rng.standard_normal((m, n)))
    Bd = csr(rng.standard_normal((n, m)))
    system, _ = build_preconditioned_system(Md, Ad, Bd, Nd,
                                            np.ones(m), np.ones(n))
    assert_linear(system.A, rng)
    assert_linear(system.B, rng)
    assert_linear(system.full_operator(), rng)


def test_operator_shape_checks():
    op = identity_operator(3)
    with pytest.raises(ValueError):
        op.apply([1.0, 2.0])


@pytest.mark.parametrize("length", [2, 4])
def test_operator_output_of_wrong_length_is_named_by_every_solver(length):
    bad = LinearOperator(3, 3, lambda x: np.ones(length) * x.sum())
    message = rf"operator is 3x3, returned vector \({length},\)"
    rhs = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=message):
        gmres_solve(bad, rhs, 0.0, 1e-10, 3)
    with pytest.raises(ValueError, match=message):
        block_gmres_solve(bad, np.eye(3)[:, :2], 0.0, 1e-10, 3)
    with pytest.raises(ValueError, match=message):
        PartitionedSystem(1.0, 1.0, bad, identity_operator(3), rhs, rhs)
    # swapped in after construction, as a counting wrapper would be
    system = PartitionedSystem(1.0, 1.0, identity_operator(3),
                               identity_operator(3), rhs, rhs)
    system.A = bad
    with pytest.raises(ValueError, match=message):
        gpmr_solve(system, 0.0, 1e-10, k_max=3)


# ---------------------------------------------------------------------------
# graph bisection
# ---------------------------------------------------------------------------

def test_bisect_path_graph():
    path = csr([[1, 1, 0, 0],
                           [1, 1, 1, 0],
                           [0, 1, 1, 1],
                           [0, 0, 1, 1]])
    split = bisect_graph(path)
    assert split.m == 2 and split.n == 2
    # parts are contiguous along the path
    part1 = set(split.perm[:2].tolist())
    assert part1 in ({0, 1}, {2, 3})


def test_bisect_disconnected_cliques():
    dense = np.zeros((6, 6))
    for group in ([0, 2, 4], [1, 3, 5]):
        for i in group:
            for j in group:
                dense[i, j] = 1.0
    split = bisect_graph(csr(dense))
    assert split.m == 3 and split.n == 3
    part1 = set(split.perm[:3].tolist())
    assert part1 in ({0, 2, 4}, {1, 3, 5})


def test_bisect_random_connected_graph_is_balanced():
    rng = np.random.default_rng(9)
    order = 50
    rows, cols = [], []
    for v in range(order - 1):  # a path keeps the graph connected
        rows += [v, v + 1]
        cols += [v + 1, v]
    extra = rng.integers(0, order, size=(40, 2))
    for i, j in extra:
        if i != j:
            rows += [int(i), int(j)]
            cols += [int(j), int(i)]
    C = csr_from_coo(order, order, rows, cols, np.ones(len(rows)))
    split = bisect_graph(C)
    assert abs(split.m - split.n) <= 1
    assert np.array_equal(np.sort(split.perm), np.arange(order))


def test_bisect_rejects_tiny_or_rectangular():
    with pytest.raises(GraphPartitionError):
        bisect_graph(csr_identity(1))
    with pytest.raises(GraphPartitionError):
        bisect_graph(csr(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# block extraction
# ---------------------------------------------------------------------------

def test_extract_blocks_diagonal():
    C = csr([[1.0, 0.0], [0.0, 2.0]])
    split = BlockSplit(np.array([0, 1]), 1, 1)
    M, A, B, N = extract_blocks(C, split)
    assert np.array_equal(M.toarray(), [[1.0]])
    assert np.array_equal(N.toarray(), [[2.0]])
    assert A.nnz == 0 and B.nnz == 0


def test_extract_blocks_two_by_two():
    C = csr([[1.0, 2.0], [3.0, 4.0]])
    split = BlockSplit(np.array([0, 1]), 1, 1)
    M, A, B, N = extract_blocks(C, split)
    assert np.array_equal(M.toarray(), [[1.0]])
    assert np.array_equal(A.toarray(), [[2.0]])
    assert np.array_equal(B.toarray(), [[3.0]])
    assert np.array_equal(N.toarray(), [[4.0]])


def test_extract_blocks_reassembles_source():
    rng = np.random.default_rng(15)
    C, dense = random_permuted_matrix(rng, 10)
    split = bisect_graph(C)
    M, A, B, N = extract_blocks(C, split)
    permuted = np.block([[M.toarray(), A.toarray()],
                         [B.toarray(), N.toarray()]])
    want = dense[np.ix_(split.perm, split.perm)]
    assert np.array_equal(permuted, want)


def test_block_split_validates():
    with pytest.raises(ValueError):
        BlockSplit(np.array([0, 0, 1]), 2, 1)
    with pytest.raises(ValueError):
        BlockSplit(np.array([0, 1]), 2, 0)


# ---------------------------------------------------------------------------
# preconditioned system assembly
# ---------------------------------------------------------------------------

def test_identity_blocks_leave_operators_unchanged():
    rng = np.random.default_rng(21)
    A = csr(rng.standard_normal((3, 3)))
    B = csr(rng.standard_normal((3, 3)))
    system, _ = build_preconditioned_system(
        csr_identity(3), A, B, csr_identity(3),
        rng.standard_normal(3), rng.standard_normal(3))
    x = rng.standard_normal(3)
    assert np.array_equal(system.A.apply(x), spmv(A, x))
    assert np.array_equal(system.B.apply(x), spmv(B, x))


def test_scalar_blocks_scale_through_the_solve():
    # with A = I and N = 2I the preconditioned operator halves its input
    twoI = csr(2.0 * np.eye(2))
    system, _ = build_preconditioned_system(
        twoI, csr_identity(2), csr_identity(2), twoI,
        np.ones(2), np.ones(2))
    x = np.array([4.0, -6.0])
    assert np.allclose(system.A.apply(x), x / 2.0, rtol=0, atol=1e-15)


def test_preconditioned_operator_matches_dense_assembly():
    rng = np.random.default_rng(27)
    m, n = 8, 6
    Md = rng.standard_normal((m, m)) + 5 * np.eye(m)
    Nd = rng.standard_normal((n, n)) + 5 * np.eye(n)
    Ad = rng.standard_normal((m, n))
    Bd = rng.standard_normal((n, m))
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    system, prec = build_preconditioned_system(
        csr(Md), csr(Ad), csr(Bd),
        csr(Nd), b, c)

    K_orig = np.block([[Md, Ad], [Bd, Nd]])
    Pr_inv = np.block([
        [np.linalg.inv(Md), np.zeros((m, n))],
        [np.zeros((n, m)), np.linalg.inv(Nd)],
    ])
    probe = rng.standard_normal(m + n)
    want = K_orig @ (Pr_inv @ probe)
    got = system.apply_full(probe)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_singular_block_is_reported_by_name():
    singular = csr(np.zeros((2, 2)) + np.diag([1.0, 0.0]))
    ok = csr_identity(2)
    coupling = csr_identity(2)
    with pytest.raises(PreconditionerError) as info:
        build_preconditioned_system(singular, coupling, coupling, ok,
                                    np.ones(2), np.ones(2))
    assert info.value.block == "M"
    with pytest.raises(PreconditionerError) as info:
        build_preconditioned_system(ok, coupling, coupling, singular,
                                    np.ones(2), np.ones(2))
    assert info.value.block == "N"


def test_recover_solution_identity_and_scaling():
    rng = np.random.default_rng(31)
    _, prec = build_preconditioned_system(
        csr_identity(2), csr_identity(2), csr_identity(2), csr_identity(2),
        np.ones(2), np.ones(2))
    x, y = recover_solution(prec, [1.0, 2.0], [3.0, 4.0])
    assert np.array_equal(x, [1.0, 2.0]) and np.array_equal(y, [3.0, 4.0])

    twoI = csr(2.0 * np.eye(2))
    _, prec = build_preconditioned_system(
        twoI, csr_identity(2), csr_identity(2), twoI, np.ones(2), np.ones(2))
    x, _ = recover_solution(prec, [2.0, 2.0], [1.0, 1.0])
    assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-15)


def test_recover_solution_image_consistency():
    rng = np.random.default_rng(33)
    m, n = 6, 5
    Md = rng.standard_normal((m, m)) + 4 * np.eye(m)
    Nd = rng.standard_normal((n, n)) + 4 * np.eye(n)
    Ad = rng.standard_normal((m, n))
    Bd = rng.standard_normal((n, m))
    system, prec = build_preconditioned_system(
        csr(Md), csr(Ad), csr(Bd),
        csr(Nd), np.ones(m), np.ones(n))
    x = rng.standard_normal(m)
    y = rng.standard_normal(n)
    xs, ys = recover_solution(prec, x, y)
    K_orig = np.block([[Md, Ad], [Bd, Nd]])
    want = system.apply_full(np.concatenate([x, y]))
    got = K_orig @ np.concatenate([xs, ys])
    assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("x, y", [
    (np.ones(3), np.ones(2)),          # x one entry long
    (np.ones(2), np.ones(1)),          # y one entry short
    (np.ones((2, 1)), np.ones(2)),     # a column that SuperLU would solve
    (np.ones(2), np.ones((1, 2))),
], ids=["long_x", "short_y", "column_x", "row_y"])
def test_recover_solution_rejects_shapes_other_than_the_block_orders(x, y):
    _, prec = build_preconditioned_system(
        csr(2.0 * np.eye(2)), csr_identity(2), csr_identity(2), csr_identity(2),
        np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="do not match the block orders 2, 2"):
        recover_solution(prec, x, y)


def test_identity_preconditioner_reproduces_raw_system_bit_exactly():
    rng = np.random.default_rng(37)
    m = n = 7
    A = csr(0.4 * rng.standard_normal((m, n)))
    B = csr(0.4 * rng.standard_normal((n, m)))
    b = rng.standard_normal(m)
    c = rng.standard_normal(n)
    raw = PartitionedSystem(1.0, 1.0, LinearOperator.from_matrix(A),
                            LinearOperator.from_matrix(B), b, c)
    prec_sys, _ = build_preconditioned_system(
        csr_identity(m), A, B, csr_identity(n), b, c)
    rep_raw = gpmr_solve(raw, 1e-12, 1e-10, k_max=m)
    rep_prec = gpmr_solve(prec_sys, 1e-12, 1e-10, k_max=m)
    assert np.array_equal(rep_raw.residual_history, rep_prec.residual_history)


def convection_diffusion(nx, ny, wind=(20.0, 5.0)):
    """Upwind five-point -lap(u) + w . grad(u) on an nx by ny grid, scaled
    by h^2: unsymmetric and nonsingular."""
    def one_dim(n, w):
        h = 1.0 / (n + 1)
        return scipy.sparse.diags_array([-1.0 - h * w, 2.0 + h * w, -1.0], offsets=[-1, 0, 1],
                                        shape=(n, n))
    return scipy.sparse.csr_array(scipy.sparse.kronsum(one_dim(nx, wind[0]),
                                                       one_dim(ny, wind[1])))


def test_preconditioned_solves_match_natural_order_factors():
    """The fill-reducing LU changes the preconditioner's rounding only:
    every method takes the same iterations to the same status as with
    natural-order factors, along the same residual history."""
    C = convection_diffusion(24, 20)
    M, A, B, N = extract_blocks(C, bisect_graph(C))
    rng = np.random.default_rng(43)
    b, c = rng.standard_normal(M.shape[0]), rng.standard_normal(N.shape[0])
    system, prec = build_preconditioned_system(M, A, B, N, b, c)

    Mlu, Nlu = (splu(X.tocsc(), permc_spec="NATURAL") for X in (M, N))
    for F, lu in ((prec.Mfac, Mlu), (prec.Nfac, Nlu)):
        assert F.L.nnz + F.U.nnz < lu.L.nnz + lu.U.nnz
    natural = PartitionedSystem(
        1.0, 1.0, LinearOperator(system.m, system.n, lambda x: spmv(A, Nlu.solve(x))),
        LinearOperator(system.n, system.m, lambda y: spmv(B, Mlu.solve(y))), b, c)

    def solve_all(sys_):
        K, split = sys_.full_operator(), (sys_.m, sys_.n)
        return [gpmr_solve(sys_, 0.0, 1e-10, k_max=200),
                gmres_solve(K, sys_.rhs_full(), 0.0, 1e-10, 200, split=split),
                *block_gmres_solve(K, starting_block(sys_), 0.0, 1e-10, 200, split=split)]

    reports = solve_all(system)
    for got, want in zip(reports, solve_all(natural)):
        assert got.status == want.status == "converged"
        assert got.iterations == want.iterations
        scale = want.residual_history[0]
        assert np.all(np.abs(got.residual_history - want.residual_history) <= 1e-10 * scale)
    # the paper's claim on this case: GPMR needs fewer iterations than GMRES
    assert reports[0].iterations < reports[1].iterations


def solve_all_methods(system):
    """GPMR, GMRES and both Block-GMRES reports of one system."""
    K, split = system.full_operator(), (system.m, system.n)
    return [gpmr_solve(system, 0.0, 1e-10, k_max=200),
            gmres_solve(K, system.rhs_full(), 0.0, 1e-10, 200, split=split),
            *block_gmres_solve(K, starting_block(system), 0.0, 1e-10, 200, split=split)]


@pytest.mark.parametrize("make", [lambda: convection_diffusion(24, 20), small_reservoir],
                         ids=["convection_diffusion", "reservoir"])
def test_preconditioned_solves_match_default_supernode_factors(make):
    """Supernodes relaxed to two columns change the preconditioner's
    rounding only: every method takes the same iterations to the same
    status as with SuperLU's default supernodes in the same column
    order, along the same residual history."""
    C = make()
    M, A, B, N = extract_blocks(C, bisect_graph(C))
    rng = np.random.default_rng(47)
    b, c = rng.standard_normal(M.shape[0]), rng.standard_normal(N.shape[0])
    system, prec = build_preconditioned_system(M, A, B, N, b, c)

    Mlu, Nlu = (splu(X.tocsc(), permc_spec="MMD_AT_PLUS_A") for X in (M, N))
    for F, lu in ((prec.Mfac, Mlu), (prec.Nfac, Nlu)):
        assert F.nnz < lu.nnz
    default = PartitionedSystem(
        1.0, 1.0, LinearOperator(system.m, system.n, lambda x: spmv(A, Nlu.solve(x))),
        LinearOperator(system.n, system.m, lambda y: spmv(B, Mlu.solve(y))), b, c)

    for got, want in zip(solve_all_methods(system), solve_all_methods(default)):
        assert got.status == want.status == "converged"
        assert got.iterations == want.iterations
        scale = want.residual_history[0]
        assert np.all(np.abs(got.residual_history - want.residual_history) <= 1e-10 * scale)


def test_partitioned_system_rejects_zero_inputs():
    A = dense_operator(np.ones((2, 2)))
    with pytest.raises(ValueError):
        PartitionedSystem(1.0, 1.0, A, A, np.zeros(2), np.ones(2))
    zero_op = LinearOperator(2, 2, lambda x: np.zeros(2))
    with pytest.raises(ValueError):
        PartitionedSystem(1.0, 1.0, zero_op, A, np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        PartitionedSystem(1.0, 1.0, A, zero_op, np.ones(2), np.ones(2))


def test_partitioned_system_accepts_rows_summing_to_zero():
    A = np.array([[1.0, -1.0], [2.0, -2.0]])
    B = np.array([[1.0, 0.5], [0.0, 1.0]])
    b, c = np.array([1.0, 2.0]), np.array([-1.0, 3.0])
    system = PartitionedSystem(1.0, 1.0, dense_operator(A), dense_operator(B), b, c)
    report = gpmr_solve(system, 1e-12, 1e-10, k_max=10)
    assert report.status == "converged"
    C = np.block([[np.eye(2), A], [B, np.eye(2)]])
    want = np.linalg.solve(C, np.concatenate([b, c]))
    assert np.allclose(np.concatenate([report.x, report.y]), want, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# permutation files
# ---------------------------------------------------------------------------

def test_permutation_file_round_trip():
    split = BlockSplit(np.array([2, 0, 3, 1]), 2, 2)
    text = f"{split.m} {split.n}\n" + "".join(f"{i}\n" for i in split.perm)
    again = read_permutation(io.StringIO(text))
    assert again.m == split.m and again.n == split.n
    assert np.array_equal(again.perm, split.perm)


def test_permutation_file_validation():
    with pytest.raises(ValueError):
        read_permutation(io.StringIO(""))
    with pytest.raises(ValueError):
        read_permutation(io.StringIO("2\n0\n1\n"))
    with pytest.raises(ValueError):
        read_permutation(io.StringIO("1 1\n0\n0\n"))


@pytest.mark.parametrize("text,message", [
    ("\n\n1_0 1\n0\n", r"line 3: expected 'm n', got '1_0 1'"),
    ("2 two\n0\n1\n2\n3\n", r"line 1: expected 'm n', got '2 two'"),
    ("2 2 2\n0\n1\n2\n3\n", r"line 1: expected 'm n', got '2 2 2'"),
    ("2 2\n0\n\n1\n2_0\n3\n", r"line 5: expected one index, got '2_0'"),
    ("2 2\n0\n1 2\n3\n", r"line 3: expected one index, got '1 2'"),
    ("2 2\n0\n1.0\n2\n3\n", r"line 3: expected one index, got '1.0'"),
    ("2 2\n0\n1\n\n4\n3\n", r"line 5: index 4 outside 0..3"),
    ("2 2\n0\n1\n99999999999999999999\n3\n",
     r"line 4: index 99999999999999999999 outside 0..3"),
])
def test_permutation_file_errors_name_the_line(text, message):
    # digit separators are rejected as in Matrix Market files, and line
    # numbers count the blank lines too
    with pytest.raises(ValueError, match=message):
        read_permutation(io.StringIO(text))


def test_permutation_file_with_blank_lines_and_signs():
    split = read_permutation(io.StringIO("\n2 +2\n\n3\n-0\n  2 \n1\n\n"))
    assert (split.m, split.n) == (2, 2)
    assert np.array_equal(split.perm, [3, 0, 2, 1])
