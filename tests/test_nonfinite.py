"""Non-finite values end every solve with the ``nonfinite`` status."""

import json
import warnings

import numpy as np
import pytest

from gpmr import METHODS, LinearOperator, solve_partitioned
from gpmr.cli import EXIT_NONFINITE, main
from gpmr.solver import STATUS_NONFINITE
from conftest import (
    csr,
    dense_full_matrix,
    random_block_system,
    write_general_mtx,
)

# the solvers report NaN and Inf as a status, never as a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.mark.parametrize("method", METHODS)
def test_nan_in_b_ends_nonfinite_with_zero_iterate(method):
    rng = np.random.default_rng(401)
    system, _, _ = random_block_system(rng, 9, 7)
    system.b[4] = np.nan
    report = solve_partitioned(method, system, 1e-12, 1e-10, 30)
    assert report.status == STATUS_NONFINITE
    assert report.iterations == 0
    history = report.residual_history
    assert len(history) == 1 and np.isnan(history[0])
    assert np.array_equal(report.x, np.zeros(9)) and np.array_equal(report.y, np.zeros(7))


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
    report = solve_partitioned(method, system, 1e-12, 1e-10, 30)
    assert report.status == STATUS_NONFINITE
    assert report.iterations > 0
    history = report.residual_history
    assert len(history) == report.iterations + 1
    assert np.isfinite(history).all()
    xy = np.concatenate([report.x, report.y])
    assert np.isfinite(xy).all()
    # the kept iterate is the one the last finite norm describes
    true_res = np.linalg.norm(d - K @ xy)
    assert abs(true_res - history[-1]) <= 1e-10 * np.linalg.norm(d)


def test_cli_exit_code_for_overflow(tmp_path, capsys):
    # the preconditioned coupling 1e10 * (1e-300)^-1 overflows in the
    # first operator apply; the right-hand side itself is finite
    path = tmp_path / "overflow.mtx"
    write_general_mtx(path, csr([[1e-300, 1e10], [1e10, 1e-300]]))
    perm = tmp_path / "split.perm"
    perm.write_text("1 1\n0\n1\n")
    code = main(["--matrix", str(path), "--partition", str(perm),
                 "--method", "gpmr,gmres,block-gmres"])
    assert code == EXIT_NONFINITE
    table = capsys.readouterr().out
    assert table.count("nonfinite") == 3


def test_cli_json_report_after_an_overflow_is_standard_json(tmp_path, capsys):
    # the right-hand side and every true residual overflow: the report
    # writes each residual as null, not as JSON's nonstandard Infinity,
    # and numpy's overflow warning does not reach stderr
    dense = np.diag([1e300] * 4)
    dense[0, 2] = dense[2, 0] = dense[1, 3] = dense[3, 1] = 1e308
    path = tmp_path / "overflow.mtx"
    write_general_mtx(path, csr(dense))
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--matrix", str(path), "--method", "gpmr,gmres,block-gmres",
                     "--json", str(report)])
    assert code == EXIT_NONFINITE
    assert caught == []
    assert capsys.readouterr().err == ""

    def refuse(constant):
        raise ValueError(f"nonstandard JSON constant {constant}")

    payload = json.loads(report.read_text(), parse_constant=refuse)
    assert [res["true_residual"] for res in payload["methods"].values()] == [None] * 3
