import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gpmr import csr_identity
from gpmr.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SINGULAR_BLOCK,
    ExperimentConfig,
    generate_rhs,
    history_csv,
    main,
    run_experiment,
)
from conftest import csr, write_general_mtx


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
    write_general_mtx(path, csr(dense))
    return path


# ---------------------------------------------------------------------------
# right-hand side generation
# ---------------------------------------------------------------------------

def test_generate_rhs_identity_blocks():
    zero = csr(np.zeros((2, 3)))
    zero_t = csr(np.zeros((3, 2)))
    b, c = generate_rhs(csr_identity(2), zero, zero_t, csr_identity(3))
    assert np.array_equal(b, np.ones(2))
    assert np.array_equal(c, np.ones(3))


def test_generate_rhs_small_blocks():
    M = csr([[2.0]])
    A = csr([[1.0]])
    B = csr([[1.0]])
    N = csr([[2.0]])
    b, c = generate_rhs(M, A, B, N)
    assert np.array_equal(b, [3.0])
    assert np.array_equal(c, [3.0])


def test_two_dim_toy_system(tmp_path):
    # the ones-solution right-hand side of this symmetric toy is an
    # eigenvector of the preconditioned operator, so every method
    # converges in a single iteration to the same recovered solution
    path = tmp_path / "toy.mtx"
    write_general_mtx(path, csr([[2.0, 1.0], [1.0, 2.0]]))
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


def tridiagonal_file(tmp_path) -> str:
    """A 4x4 tridiagonal system the auto bisection splits 2 + 2."""
    return write_mtx(tmp_path, 4.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1))


def test_ones_solution_recovery_end_to_end(matrix_file):
    cfg = ExperimentConfig(matrix_path=str(matrix_file), methods=("gpmr",),
                           k_max=40)
    report = run_experiment(cfg)
    result = report["methods"]["gpmr"]
    assert result["converged"]
    recovered = np.concatenate([result["x_star"], result["y_star"]])
    assert np.max(np.abs(recovered - 1.0)) <= 1e-6


def test_generated_rhs_keeps_the_ones_solution_under_shifts(tmp_path):
    # the generated right-hand side is that of the shifted system, so
    # lambda and mu leave the exact solution at all ones
    cfg = ExperimentConfig(matrix_path=tridiagonal_file(tmp_path), lam=2.0, mu=0.5,
                           methods=("gpmr", "gmres", "block-gmres"))
    for result in run_experiment(cfg)["methods"].values():
        assert result["converged"]
        recovered = np.concatenate([result["x_star"], result["y_star"]])
        assert np.max(np.abs(recovered - 1.0)) <= 1e-8


# ---------------------------------------------------------------------------
# history CSV
# ---------------------------------------------------------------------------

def histories_report(histories) -> dict:
    """The part of a run's report that :func:`history_csv` reads."""
    return {"methods": {name: {"history": h} for name, h in histories.items()}}


def test_history_csv_single_method():
    lines = history_csv(histories_report({"gpmr": [1.0, 0.5]})).splitlines()
    assert len(lines) == 3
    assert lines[0] == "iteration,method,residual_norm"


def read_history_csv(text):
    """Inverse of :func:`history_csv`, for round-trip checks."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "iteration,method,residual_norm":
        raise ValueError("unrecognized history file")
    histories: dict[str, list[float]] = {}
    for ln in lines[1:]:
        it, method, value = ln.split(",")
        histories.setdefault(method, []).append(float(value))
    return {k: np.asarray(v) for k, v in histories.items()}


def test_history_csv_two_methods_row_count_and_order():
    text = history_csv(histories_report({"gpmr": [1.0, 0.5, 0.25], "gmres": [1.0, 0.75]}))
    lines = text.splitlines()
    assert len(lines) == 1 + 3 + 2
    methods = [ln.split(",")[1] for ln in lines[1:]]
    assert methods == ["gpmr"] * 3 + ["gmres"] * 2


def test_history_csv_round_trip_bit_exact():
    rng = np.random.default_rng(223)
    histories = {"gpmr": rng.random(5), "gmres": rng.random(7)}
    back = read_history_csv(history_csv(histories_report(histories)))
    for name, values in histories.items():
        assert np.array_equal(back[name], np.asarray(values))


def test_experiment_history_row_counts(matrix_file):
    cfg = ExperimentConfig(matrix_path=str(matrix_file),
                           methods=("gpmr", "gmres"), k_max=40)
    report = run_experiment(cfg)
    back = read_history_csv(history_csv(report))
    norm_d = None
    for name, result in report["methods"].items():
        assert len(back[name]) == result["iterations"] + 1
        if norm_d is None:
            norm_d = back[name][0]
        assert back[name][0] == norm_d  # every method starts from |(b, c)|


def test_experiment_is_deterministic(matrix_file):
    cfg = ExperimentConfig(matrix_path=str(matrix_file),
                           methods=("gpmr", "gmres", "block-gmres"), k_max=40)
    outputs = [history_csv(run_experiment(cfg)) for _ in range(2)]
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


@pytest.mark.parametrize("flag", ["--atol", "--rtol"])
def test_nan_tolerance_is_input_error(matrix_file, capsys, flag):
    code = main(["--matrix", str(matrix_file), flag, "nan"])
    assert code == EXIT_INPUT_ERROR
    assert "tolerances must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--atol", "--rtol"])
def test_infinite_tolerance_is_input_error(matrix_file, capsys, flag):
    # every residual meets an infinite threshold, the zero iterate's too
    code = main(["--matrix", str(matrix_file), flag, "inf"])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: tolerances must be finite\n"


@pytest.mark.parametrize("options, name, value", [
    (["--lambda", "nan"], "lam", "nan"), (["--lambda", "inf"], "lam", "inf"),
    (["--mu=-inf"], "mu", "-inf"),
])
def test_non_finite_shift_is_input_error_before_the_matrix_is_read(
        tmp_path, capsys, options, name, value):
    # the matrix does not exist: reading it would be a different error
    code = main(["--matrix", str(tmp_path / "missing.mtx"), *options])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"


def test_repeated_method_is_input_error(matrix_file, capsys):
    # results are keyed by name: a second gpmr run would be reported once
    with pytest.raises(ValueError, match="repeated methods"):
        ExperimentConfig(matrix_path="x", methods=("gpmr", "gpmr"))
    code = main(["--matrix", str(matrix_file), "--method", "gpmr,gmres,gpmr"])
    assert code == EXIT_INPUT_ERROR
    assert "repeated methods: ['gpmr']" in capsys.readouterr().err


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

    from gpmr import bisect_graph, extract_blocks, load_matrix_market, sparse_lu

    jsonpath = tmp_path / "r.json"
    code = main(["--matrix", str(matrix_file), "--method", "gpmr",
                 "--maxiter", "40", "--json", str(jsonpath)])
    assert code == EXIT_OK
    capsys.readouterr()
    payload = json.loads(jsonpath.read_text())
    fill = payload["lu_fill"]
    # oracle: the nonzeros of LAPACK's dense factors of the same blocks in
    # the same column order, L's unit diagonal included; in natural column
    # order those factors hold more
    C = load_matrix_market(matrix_file)
    M, _, _, N = extract_blocks(C, bisect_graph(C))

    def lapack_fill(dense):
        _, L, U = scipy.linalg.lu(dense)
        return np.count_nonzero(L) + np.count_nonzero(U)

    for name, block in (("M", M), ("N", N)):
        dense = block.toarray()
        assert fill[name] == lapack_fill(dense[:, np.argsort(sparse_lu(block).perm_c)])
        assert fill[name] <= lapack_fill(dense)
        # what SuperLU stores, explicit zeros included, holds the fill
        stored = payload["lu_stored"][name]
        assert type(stored) is int
        assert stored == sparse_lu(block).nnz >= fill[name]


@pytest.mark.parametrize("option", ["--lambda", "--mu", "--atol", "--rtol", "--maxiter"])
def test_digit_separator_in_a_number_is_a_usage_error(matrix_file, capsys, option):
    # Python's int and float read "1_0" and the Arabic-Indic "١٠" as 10,
    # and float reads "١e-12" as 1e-12; the options take them as they
    # take "abc", with the same message
    errors = []
    for value in ("1_0", "١٠", "١e-12", "abc"):
        with pytest.raises(SystemExit) as info:
            main(["--matrix", str(matrix_file), option, value])
        assert info.value.code == 2
        errors.append(capsys.readouterr().err.replace(repr(value), "VALUE"))
    assert errors[:-1] == errors[1:]
    assert f"argument {option}: invalid" in errors[0]


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


@pytest.mark.parametrize("text, line", [
    ("1\n2\n\n3\nx1\n", "line 5: 'x1' is not a row of numbers"),
    ("# note\n1 2\n3\n", "line 3: 1 values, but line 2 has 2"),
    ("x 1\n2\n", "line 1: 'x 1' is not a row of numbers"),
    ("1\n2\n\n3\nnan\n", "line 5: 'nan' is not finite"),
], ids=["bad-value", "ragged-row", "bad-first-line", "non-finite-value"])
def test_rhs_file_error_names_its_line(matrix_file, tmp_path, capsys, text, line):
    # numpy's own message counts data rows only, from 0 for a bad value
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text(text)
    code = main(["--matrix", str(matrix_file), "--rhs", str(rhs_path)])
    assert code == EXIT_INPUT_ERROR
    assert f"bad rhs file: {line}" in single_error(capsys)


def test_rhs_file_comment_is_never_decoded(tmp_path, capsys):
    # an undecodable byte or a non-ASCII digit is refused in a value,
    # but a comment may hold anything, as in a Matrix Market file
    matrix = tridiagonal_file(tmp_path)
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_bytes(b"1\n2\n3 # \xff\n4\n")
    assert main(["--matrix", matrix, "--rhs", str(rhs_path)]) == EXIT_OK
    capsys.readouterr()
    for text, shown in ((b"1\n2\n3\xff\n4\n", "3\ufffd"),
                        ("1\n2\n\u0663\n4\n".encode(), "\u0663")):
        rhs_path.write_bytes(text)
        code = main(["--matrix", matrix, "--rhs", str(rhs_path)])
        assert code == EXIT_INPUT_ERROR
        assert single_error(capsys) == (
            f"error: bad rhs file: line 3: {shown!r} is not a row of numbers")


def test_custom_regularization_reports_solved_system_residual(matrix_file):
    cfg = ExperimentConfig(matrix_path=str(matrix_file), methods=("gpmr",),
                           lam=1.5, mu=0.5, k_max=40)
    report = run_experiment(cfg)
    result = report["methods"]["gpmr"]
    assert result["converged"]
    norm_d = result["history"][0]
    assert result["true_residual"] <= 10.0 * (1e-12 + 1e-10 * norm_d)


def test_partition_file_reproduces_auto_run(matrix_file, tmp_path):
    from gpmr import bisect_graph, load_matrix_market

    split = bisect_graph(load_matrix_market(matrix_file))
    perm_path = tmp_path / "imported.perm"
    perm_path.write_text(f"{split.m} {split.n}\n" + "".join(f"{i}\n" for i in split.perm))
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


@pytest.mark.parametrize("text,line", [(b"1_0 1\n0\n", "line 1: expected 'm n'"),
                                       (b"\n6 6\n0\n1\n2_0\n", "line 5: expected one index"),
                                       (b"2 2\n0\n1\xff\n2\n3\n", "line 3: expected one index")])
def test_permutation_file_with_bad_line_is_input_error(matrix_file, tmp_path, capsys,
                                                       text, line):
    perm = tmp_path / "bad.perm"
    perm.write_bytes(text)
    code = main(["--matrix", str(matrix_file), "--partition", str(perm)])
    assert code == EXIT_INPUT_ERROR
    assert line in capsys.readouterr().err


def single_error(capsys) -> str:
    """The one ``error:`` line a rejected run prints, nothing else."""
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def write_mtx(tmp_path, dense) -> str:
    path = tmp_path / "m.mtx"
    write_general_mtx(path, csr(dense))
    return str(path)


UNUSABLE_INPUTS = {
    "unparsable-entry": "cannot parse matrix file: line 3: unparsable entry '1 1 x'",
    "declared-count": "cannot parse matrix file: declared 100000000000 entries but found 1",
    "non-square": "experiment needs a square matrix",
    "permutation-order": "permutation covers 3 vertices, matrix has 18",
    "permutation-directory": "cannot read permutation file",
    "missing-rhs": "cannot read rhs file",
}


def _bad_input_options(case, tmp_path, matrix_file):
    if case == "unparsable-entry":
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 x\n2 2 1.0\n")
        return ["--matrix", str(path)]
    if case == "declared-count":
        # a count no file this short can hold is not sized before reading
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 100000000000\n1 1 1.0\n")
        return ["--matrix", str(path)]
    if case == "non-square":
        return ["--matrix", write_mtx(tmp_path, np.ones((2, 3)))]
    options = ["--matrix", str(matrix_file)]
    if case == "permutation-order":
        perm = tmp_path / "short.perm"
        perm.write_text("1 2\n0\n1\n2\n")
        return options + ["--partition", str(perm)]
    if case == "permutation-directory":
        return options + ["--partition", str(tmp_path)]
    return options + ["--rhs", str(tmp_path / "absent.txt")]


@pytest.mark.parametrize("case", UNUSABLE_INPUTS)
def test_unusable_input_is_one_error_line(matrix_file, tmp_path, capsys, case):
    code = main(_bad_input_options(case, tmp_path, matrix_file))
    assert code == EXIT_INPUT_ERROR
    assert UNUSABLE_INPUTS[case] in single_error(capsys)


def test_one_by_one_matrix_is_input_error(tmp_path, capsys):
    code = main(["--matrix", write_mtx(tmp_path, [[2.0]])])
    assert code == EXIT_INPUT_ERROR
    assert "cannot partition matrix: need at least two vertices" in single_error(capsys)


def test_split_without_coupling_solves(tmp_path, capsys):
    # a zero off-diagonal block is a system like any other: both zero
    # (the auto split of a diagonal matrix), and A zero under an
    # identity split of a block lower-triangular matrix
    lower = [[2.0, 0.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0],
             [1.0, 1.0, 2.0, 0.0], [0.0, 1.0, 1.0, 3.0]]
    perm = tmp_path / "identity.perm"
    perm.write_text("2 2\n0\n1\n2\n3\n")
    methods = ["--method", "gpmr,gmres,block-gmres"]
    for options in (["--matrix", write_mtx(tmp_path, 2.0 * np.eye(4))],
                    ["--matrix", write_mtx(tmp_path, lower), "--partition", str(perm)]):
        assert main(options + methods) == EXIT_OK
    capsys.readouterr()


def test_zero_generated_rhs_is_input_error(tmp_path, capsys):
    # rows summing to zero make the ones-solution right-hand side zero
    laplacian = [[1.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, 0.0],
                 [0.0, -1.0, 2.0, -1.0], [0.0, 0.0, -1.0, 1.0]]
    code = main(["--matrix", write_mtx(tmp_path, laplacian)])
    assert code == EXIT_INPUT_ERROR
    assert ("block b of the generated right-hand side is zero: its rows of the matrix"
            " sum to zero") in single_error(capsys)


def test_rhs_file_with_a_zero_block_is_input_error(matrix_file, tmp_path, capsys):
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text("\n".join(["1.0"] * 9 + ["0.0"] * 9))
    code = main(["--matrix", str(matrix_file), "--rhs", str(rhs_path)])
    assert code == EXIT_INPUT_ERROR
    assert "block c of the rhs file is zero" in single_error(capsys)


def test_empty_rhs_file_is_one_error_line(matrix_file, tmp_path, capsys):
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--matrix", str(matrix_file), "--rhs", str(rhs_path)])
    assert code == EXIT_INPUT_ERROR
    assert "rhs file has 0 values" in single_error(capsys)


@pytest.mark.parametrize("option, where", [
    ("--history", "absent/out"), ("--json", "absent/out"),
    ("--history", "."), ("--json", "."),  # the output is a directory
], ids=["--history", "--json", "--history-directory", "--json-directory"])
def test_output_under_a_missing_directory_fails_before_any_solve(matrix_file, tmp_path,
                                                                 capsys, option, where):
    target = tmp_path / where
    code = main(["--matrix", str(matrix_file), option, str(target)])
    assert code == EXIT_INPUT_ERROR
    line = single_error(capsys)  # no table: nothing was solved
    assert f"cannot write {option} file {target}" in line


@pytest.mark.parametrize("option", ["--history", "--json"])
def test_an_output_write_that_fails_after_the_solves_is_one_error_line(
        matrix_file, tmp_path, capsys, monkeypatch, option):
    def refuse(path, text):
        raise PermissionError(f"Permission denied: '{path}'")

    monkeypatch.setattr(Path, "write_text", refuse)
    target = tmp_path / "out"
    code = main(["--matrix", str(matrix_file), option, str(target)])
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: cannot write {option} file {target}: ")
    assert "Permission denied" in err


def test_console_entry_runs_as_a_process(tmp_path):
    # the command as a user runs it: its own interpreter, real streams
    import gpmr

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(gpmr.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, "-m", "gpmr.cli", "--matrix", tridiagonal_file(tmp_path)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert "gpmr" in done.stdout and "converged" in done.stdout
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text("1\nx\n")
    done = subprocess.run(command + ["--rhs", str(rhs_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_INPUT_ERROR
    assert done.stdout == ""
    assert done.stderr == "error: bad rhs file: line 2: 'x' is not a row of numbers\n"
