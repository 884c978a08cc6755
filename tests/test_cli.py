import io
import json

import numpy as np
import pytest

from gpmr import csr_from_dense, csr_identity, write_matrix_market
from gpmr.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SINGULAR_BLOCK,
    ExperimentConfig,
    generate_rhs,
    main,
    read_history_csv,
    run_experiment,
    write_history_csv,
)


def make_test_matrix(rng, order, density=0.3):
    """Diagonally dominant random matrix whose graph stays connected."""
    dense = np.where(rng.random((order, order)) < density,
                     rng.standard_normal((order, order)), 0.0)
    for i in range(order - 1):  # ring keeps every bisection coupled
        dense[i, i + 1] += 0.5
        dense[i + 1, i] -= 0.5
    dense[0, order - 1] += 0.5
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    return dense


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(211)
    dense = make_test_matrix(rng, 18)
    path = tmp_path / "system.mtx"
    write_matrix_market(csr_from_dense(dense), path)
    return path


# ---------------------------------------------------------------------------
# right-hand side generation
# ---------------------------------------------------------------------------

def test_generate_rhs_identity_blocks():
    zero = csr_from_dense(np.zeros((2, 3)))
    zero_t = csr_from_dense(np.zeros((3, 2)))
    b, c = generate_rhs(csr_identity(2), zero, zero_t, csr_identity(3))
    assert np.array_equal(b, np.ones(2))
    assert np.array_equal(c, np.ones(3))


def test_generate_rhs_small_blocks():
    M = csr_from_dense([[2.0]])
    A = csr_from_dense([[1.0]])
    B = csr_from_dense([[1.0]])
    N = csr_from_dense([[2.0]])
    b, c = generate_rhs(M, A, B, N)
    assert np.array_equal(b, [3.0])
    assert np.array_equal(c, [3.0])


def test_two_dim_toy_system(tmp_path):
    # the ones-solution right-hand side of this symmetric toy is an
    # eigenvector of the preconditioned operator, so every method
    # converges in a single iteration to the same recovered solution
    path = tmp_path / "toy.mtx"
    write_matrix_market(csr_from_dense([[2.0, 1.0], [1.0, 2.0]]), path)
    cfg = ExperimentConfig(matrix_path=str(path), methods=("gpmr", "gmres"),
                           k_max=4)
    report = run_experiment(cfg)
    sols = {}
    for name, result in report["methods"].items():
        assert result["converged"]
        assert result["iterations"] == 1
        sols[name] = np.concatenate([result["x_star"], result["y_star"]])
        assert np.allclose(sols[name], 1.0, rtol=0, atol=1e-12)
    assert np.allclose(sols["gpmr"], sols["gmres"], rtol=0, atol=1e-12)


def test_ones_solution_recovery_end_to_end(matrix_file):
    cfg = ExperimentConfig(matrix_path=str(matrix_file), methods=("gpmr",),
                           k_max=40)
    report = run_experiment(cfg)
    result = report["methods"]["gpmr"]
    assert result["converged"]
    recovered = np.concatenate([result["x_star"], result["y_star"]])
    assert np.max(np.abs(recovered - 1.0)) <= 1e-6


# ---------------------------------------------------------------------------
# history CSV
# ---------------------------------------------------------------------------

def test_history_csv_single_method():
    buf = io.StringIO()
    write_history_csv({"gpmr": [1.0, 0.5]}, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0] == "iteration,method,residual_norm"


def test_history_csv_two_methods_row_count_and_order():
    buf = io.StringIO()
    write_history_csv({"gpmr": [1.0, 0.5, 0.25], "gmres": [1.0, 0.75]}, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1 + 3 + 2
    methods = [ln.split(",")[1] for ln in lines[1:]]
    assert methods == ["gpmr"] * 3 + ["gmres"] * 2


def test_history_csv_round_trip_bit_exact():
    rng = np.random.default_rng(223)
    histories = {"gpmr": rng.random(5), "gmres": rng.random(7)}
    buf = io.StringIO()
    write_history_csv(histories, buf)
    back = read_history_csv(io.StringIO(buf.getvalue()))
    for name, values in histories.items():
        assert np.array_equal(back[name], np.asarray(values))


def test_history_csv_rejects_empty():
    with pytest.raises(ValueError):
        write_history_csv({}, io.StringIO())


def test_experiment_history_row_counts(matrix_file, tmp_path):
    history_path = tmp_path / "hist.csv"
    cfg = ExperimentConfig(matrix_path=str(matrix_file),
                           methods=("gpmr", "gmres"), k_max=40,
                           history_out=str(history_path))
    report = run_experiment(cfg)
    back = read_history_csv(history_path)
    norm_d = None
    for name, result in report["methods"].items():
        assert len(back[name]) == result["iterations"] + 1
        if norm_d is None:
            norm_d = back[name][0]
        assert back[name][0] == norm_d  # every method starts from |(b, c)|


def test_experiment_is_deterministic(matrix_file, tmp_path):
    outputs = []
    for run in range(2):
        history_path = tmp_path / f"hist{run}.csv"
        cfg = ExperimentConfig(matrix_path=str(matrix_file),
                               methods=("gpmr", "gmres", "block-gmres"),
                               k_max=40, history_out=str(history_path))
        run_experiment(cfg)
        outputs.append(history_path.read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# configuration and exit codes
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(matrix_path="x", methods=())
    with pytest.raises(ValueError):
        ExperimentConfig(matrix_path="x", methods=("nope",))
    with pytest.raises(ValueError):
        ExperimentConfig(matrix_path="x", atol=0.0, rtol=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(matrix_path="x", k_max=0)


def test_exit_code_missing_file(tmp_path, capsys):
    code = main(["--matrix", str(tmp_path / "absent.mtx")])
    assert code == EXIT_INPUT_ERROR
    assert "error" in capsys.readouterr().err


def test_exit_code_singular_block(tmp_path, capsys):
    # leading diagonal block is the single entry 0
    path = tmp_path / "singular.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 2 1.0\n2 1 1.0\n")
    perm = tmp_path / "split.perm"
    perm.write_text("1 1\n0\n1\n")
    code = main(["--matrix", str(path), "--partition", str(perm)])
    assert code == EXIT_SINGULAR_BLOCK
    assert "singular" in capsys.readouterr().err


def test_exit_code_non_convergence(matrix_file, capsys):
    code = main(["--matrix", str(matrix_file), "--maxiter", "1",
                 "--method", "gmres"])
    assert code == EXIT_NO_CONVERGENCE
    capsys.readouterr()


def test_main_success_writes_reports(matrix_file, tmp_path, capsys):
    history = tmp_path / "h.csv"
    jsonpath = tmp_path / "r.json"
    code = main(["--matrix", str(matrix_file), "--method", "gpmr,gmres",
                 "--maxiter", "40", "--history", str(history),
                 "--json", str(jsonpath)])
    assert code == EXIT_OK
    table = capsys.readouterr().out
    assert "gpmr" in table and "gmres" in table
    assert history.exists()
    payload = json.loads(jsonpath.read_text())
    assert payload["all_converged"] is True
    assert set(payload["methods"]) == {"gpmr", "gmres"}


def test_json_report_carries_lu_fill(matrix_file, tmp_path, capsys):
    import scipy.linalg

    from gpmr import bisect_graph, extract_blocks, load_matrix_market

    jsonpath = tmp_path / "r.json"
    code = main(["--matrix", str(matrix_file), "--method", "gpmr",
                 "--maxiter", "40", "--json", str(jsonpath)])
    assert code == EXIT_OK
    capsys.readouterr()
    fill = json.loads(jsonpath.read_text())["lu_fill"]
    # oracle: the nonzeros of LAPACK's dense factors of the same blocks,
    # L's unit diagonal included
    C = load_matrix_market(matrix_file)
    M, _, _, N = extract_blocks(C, bisect_graph(C))
    for name, block in (("M", M), ("N", N)):
        _, L, U = scipy.linalg.lu(block.to_dense())
        assert fill[name] == np.count_nonzero(L) + np.count_nonzero(U)


def test_matvec_count_is_a_plus_b_applies(matrix_file, tmp_path, capsys):
    # one unit for every method: applies of A plus applies of B, so a
    # converged run costs 2, 2 and 4 per iteration
    jsonpath = tmp_path / "r.json"
    code = main(["--matrix", str(matrix_file), "--method", "gpmr,gmres,block-gmres",
                 "--maxiter", "40", "--json", str(jsonpath)])
    assert code == EXIT_OK
    table = capsys.readouterr().out
    methods = json.loads(jsonpath.read_text())["methods"]
    for name, per_iteration in (("gpmr", 2), ("gmres", 2), ("block-gmres", 4)):
        res = methods[name]
        assert res["converged"] and res["iterations"] > 0
        assert res["matvec_count"] == per_iteration * res["iterations"]
        row = next(ln.split() for ln in table.splitlines() if ln.startswith(name + " "))
        assert int(row[4]) == res["matvec_count"]


def test_rhs_override(matrix_file, tmp_path):
    rng = np.random.default_rng(227)
    values = rng.standard_normal(18)
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text("\n".join(f"{v:.17g}" for v in values))
    cfg = ExperimentConfig(matrix_path=str(matrix_file), methods=("gpmr",),
                           k_max=40, rhs_path=str(rhs_path))
    report = run_experiment(cfg)
    assert report["methods"]["gpmr"]["converged"]
    # recovered solution now solves against the custom right-hand side
    assert report["methods"]["gpmr"]["true_residual"] <= 1e-8


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_rhs_file_with_non_finite_value_is_input_error(matrix_file, tmp_path, capsys, bad):
    values = [f"{v:.17g}" for v in np.ones(18)]
    values[5] = bad
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text("\n".join(values))
    code = main(["--matrix", str(matrix_file), "--rhs", str(rhs_path)])
    assert code == EXIT_INPUT_ERROR
    assert "not finite" in capsys.readouterr().err


def test_custom_regularization_reports_solved_system_residual(matrix_file):
    cfg = ExperimentConfig(matrix_path=str(matrix_file), methods=("gpmr",),
                           lam=1.5, mu=0.5, k_max=40)
    report = run_experiment(cfg)
    result = report["methods"]["gpmr"]
    assert result["converged"]
    norm_d = result["history"][0]
    assert result["true_residual"] <= 10.0 * (1e-12 + 1e-10 * norm_d)


def test_partition_file_reproduces_auto_run(matrix_file, tmp_path):
    from gpmr import bisect_graph, load_matrix_market, write_permutation

    split = bisect_graph(load_matrix_market(matrix_file))
    perm_path = tmp_path / "imported.perm"
    write_permutation(split, perm_path)
    base = dict(matrix_path=str(matrix_file), methods=("gpmr", "gmres"), k_max=40)
    auto = run_experiment(ExperimentConfig(**base))
    imported = run_experiment(ExperimentConfig(partition=str(perm_path), **base))
    for method in ("gpmr", "gmres"):
        assert (imported["methods"][method]["iterations"]
                == auto["methods"][method]["iterations"])
        assert np.array_equal(imported["methods"][method]["history"],
                              auto["methods"][method]["history"])


def test_invalid_permutation_is_input_error(matrix_file, tmp_path, capsys):
    perm = tmp_path / "bad.perm"
    perm.write_text("9 9\n0\n1\n")
    code = main(["--matrix", str(matrix_file), "--partition", str(perm)])
    assert code == EXIT_INPUT_ERROR
    capsys.readouterr()
