"""Non-finite values end every solve with the ``nonfinite`` status."""

import numpy as np
import pytest

from gpmr import (
    LinearOperator,
    PartitionedSystem,
    block_gmres_solve,
    csr_from_dense,
    gmres_solve,
    gpmr_solve,
    write_matrix_market,
)
from gpmr.cli import EXIT_NONFINITE, main
from gpmr.solver import STATUS_NONFINITE
from conftest import dense_full_matrix, dense_operator, random_block_system

METHODS = ("gpmr", "gmres", "block-gmres")

# the solvers report NaN and Inf as a status, never as a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def solve(method, system, k_max=30):
    """One solver on the system: (report, history, x, y)."""
    m, n = system.m, system.n
    K = system.full_operator()
    if method == "gpmr":
        rep = gpmr_solve(system, 1e-12, 1e-10, k_max=k_max)
        return rep, rep.residual_history, rep.x, rep.y
    if method == "gmres":
        rep = gmres_solve(K, system.rhs_full(), 1e-12, 1e-10, k_max, split=(m, n))
        return rep, rep.residual_history, rep.x, rep.y
    D = np.zeros((m + n, 2))
    D[:m, 0] = system.b
    D[m:, 1] = system.c
    rep_b, rep_c = block_gmres_solve(K, D, 1e-12, 1e-10, k_max, split=(m, n))
    return (rep_b, rep_b.diagnostics["summed_history"],
            rep_b.x + rep_c.x, rep_b.y + rep_c.y)


@pytest.mark.parametrize("method", METHODS)
def test_nan_in_b_ends_nonfinite_with_zero_iterate(method):
    rng = np.random.default_rng(401)
    system, _, _ = random_block_system(rng, 9, 7)
    system.b[4] = np.nan
    report, history, x, y = solve(method, system)
    assert report.status == STATUS_NONFINITE
    assert report.iterations == 0
    assert len(history) == 1 and np.isnan(history[0])
    assert np.array_equal(x, np.zeros(9)) and np.array_equal(y, np.zeros(7))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("first_bad_apply", [5, 9])
def test_operator_turning_infinite_keeps_last_finite_iterate(method, first_bad_apply):
    rng = np.random.default_rng(409)
    m, n = 12, 10
    system, A, B = random_block_system(rng, m, n, coupling=0.9)
    K = dense_full_matrix(system, A, B)
    d = system.rhs_full()

    applies = 0

    def overflowing(M):
        # from apply number ``first_bad_apply`` on (A and B applies
        # counted together) the product carries an Inf
        def apply(x):
            nonlocal applies
            applies += 1
            y = M @ x
            if applies >= first_bad_apply:
                y[0] = np.inf
            return y
        return LinearOperator(M.shape[0], M.shape[1], apply)

    system.A = overflowing(A)
    system.B = overflowing(B)
    report, history, x, y = solve(method, system)
    assert report.status == STATUS_NONFINITE
    assert report.iterations > 0
    assert len(history) == report.iterations + 1
    assert np.isfinite(history).all()
    assert np.isfinite(x).all() and np.isfinite(y).all()
    # the kept iterate is the one the last finite norm describes
    true_res = np.linalg.norm(d - K @ np.concatenate([x, y]))
    assert abs(true_res - history[-1]) <= 1e-10 * np.linalg.norm(d)


def test_cli_exit_code_for_overflow(tmp_path, capsys):
    # the preconditioned coupling 1e10 * (1e-300)^-1 overflows in the
    # first operator apply; the right-hand side itself is finite
    path = tmp_path / "overflow.mtx"
    write_matrix_market(csr_from_dense(np.array([[1e-300, 1e10],
                                                 [1e10, 1e-300]])), path)
    perm = tmp_path / "split.perm"
    perm.write_text("1 1\n0\n1\n")
    code = main(["--matrix", str(path), "--partition", str(perm),
                 "--method", "gpmr,gmres,block-gmres"])
    assert code == EXIT_NONFINITE
    table = capsys.readouterr().out
    assert table.count("nonfinite") == 3
