"""Experiment harness: load a matrix, partition, precondition, solve.

The default protocol mirrors the solver benchmarks this package is built
for: permute an unstructured square matrix into 2x2 block form, build a
right block-Jacobi preconditioner from the diagonal blocks, generate the
right-hand side so the exact solution of the shifted system is the
vector of ones, then run the selected methods (``gpmr``, ``gmres`` and
``block-gmres``, each through :func:`gpmr.solve_partitioned`, so that
Block-GMRES reports the sum of its two columns' solutions) with an
absolute/relative residual stopping rule and report iteration counts,
true residuals and timings. An ``--rhs`` file replaces the generated
right-hand side: it is read in one pass, ``#`` starts a comment, and
every value is a plain ASCII number, as the numeric options are.
``main`` prints the table and then writes the ``--history`` CSV and the
``--json`` report.

Exit codes: 0 all selected methods converged, 1 unreadable or unusable
input, invalid settings (among them an infinite tolerance and a NaN or
infinite ``--lambda`` or ``--mu``) or an output that cannot be written,
2 singular diagonal block or an argparse usage error (such as
``--maxiter abc``), 3 at least one method did not converge, 4 at least
one method met a non-finite residual norm (status ``nonfinite``, for
example after an overflow); 4 takes precedence over 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import METHODS, solve_partitioned
from .operators import (
    GraphPartitionError,
    PreconditionerError,
    bisect_graph,
    build_preconditioned_system,
    check_shifts,
    extract_blocks,
    read_permutation,
    recover_solution,
)
from .solver import STATUS_NONFINITE, check_stopping_rule, quiet_nonfinite
from .sparse import MatrixMarketError, load_matrix_market, spmv

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_SINGULAR_BLOCK = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NONFINITE = 4


class ExperimentInputError(Exception):
    """Unreadable, inconsistent or unusable input files."""


@dataclass
class ExperimentConfig:
    matrix_path: str
    partition: str = "auto"
    lam: float = 1.0
    mu: float = 1.0
    methods: tuple = ("gpmr", "gmres")
    atol: float = 1e-12
    rtol: float = 1e-10
    k_max: int = 500
    reorth: bool = False
    rhs_path: str | None = None

    def __post_init__(self):
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ValueError("at least one method must be selected")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        # results are keyed by method name, so a repeat would show once
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"repeated methods: {repeated}")
        check_shifts(self.lam, self.mu)
        check_stopping_rule(self.atol, self.rtol, self.k_max)


def generate_rhs(M, A, B, N):
    """Right-hand side pair making the all-ones vector the exact solution
    of the block system with CSR blocks ``M``, ``A``, ``B`` and ``N``;
    for shifts lam and mu, pass ``lam * M`` and ``mu * N``."""
    ones_m = np.ones(M.shape[1])
    ones_n = np.ones(N.shape[1])
    b = spmv(M, ones_m) + spmv(A, ones_n)
    c = spmv(B, ones_m) + spmv(N, ones_n)
    return b, c


def history_csv(report: dict) -> str:
    """The per-iteration residual norms of a report's methods as CSV
    text: rows ordered by method (run order) then iteration, values with
    17 significant digits so a read-back is bit exact."""
    lines = ["iteration,method,residual_norm"]
    for method, res in report["methods"].items():
        for it, value in enumerate(res["history"]):
            lines.append(f"{it},{method},{value:.16e}")
    return "\n".join(lines) + "\n"


def _load_inputs(cfg: ExperimentConfig):
    try:
        C = load_matrix_market(cfg.matrix_path)
    except OSError as exc:
        raise ExperimentInputError(f"cannot read matrix file: {exc}") from exc
    except MatrixMarketError as exc:
        raise ExperimentInputError(f"cannot parse matrix file: {exc}") from exc
    if C.shape[0] != C.shape[1]:
        raise ExperimentInputError("experiment needs a square matrix")

    if cfg.partition == "auto":
        try:
            split = bisect_graph(C)
        except GraphPartitionError as exc:
            raise ExperimentInputError(f"cannot partition matrix: {exc}") from exc
    else:
        try:
            split = read_permutation(cfg.partition)
        except OSError as exc:
            raise ExperimentInputError(f"cannot read permutation file: {exc}") from exc
        except ValueError as exc:
            raise ExperimentInputError(f"bad permutation file: {exc}") from exc
        if split.order != C.shape[0]:
            raise ExperimentInputError(
                f"permutation covers {split.order} vertices, matrix has {C.shape[0]}")
    return C, split


def _read_rhs(path) -> np.ndarray:
    """The finite values of an rhs file, rows of equal length read in
    order. A fault names its line, counted from 1 with blank and comment
    lines."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ExperimentInputError(f"cannot read rhs file: {exc}") from exc
    values, width, first = [], None, None
    # bytes: a comment is never decoded, and a field that is not UTF-8
    # fails as a UnicodeDecodeError, which is a ValueError
    for lineno, line in enumerate(data.splitlines(), start=1):
        fields = line.split(b"#", 1)[0].split()
        try:
            row = [_float(field.decode()) for field in fields]
        except ValueError as exc:
            text = line.decode(errors="replace").strip()
            raise ExperimentInputError(
                f"bad rhs file: line {lineno}: {text!r} is not a row of numbers") from exc
        for field, value in zip(fields, row):
            if not math.isfinite(value):
                raise ExperimentInputError(
                    f"bad rhs file: line {lineno}: {field.decode()!r} is not finite")
        if row and width is None:
            width, first = len(row), lineno
        elif row and len(row) != width:
            raise ExperimentInputError(
                f"bad rhs file: line {lineno}: {len(row)} values, but line {first} "
                f"has {width}")
        values += row
    return np.array(values, dtype=np.float64)


def _load_rhs(cfg, m, n, blocks):
    if cfg.rhs_path is None:
        M, A, B, N = blocks
        b, c = generate_rhs(cfg.lam * M, A, B, cfg.mu * N)
        source, why = "generated right-hand side", ": its rows of the matrix sum to zero"
    else:
        values = _read_rhs(cfg.rhs_path)
        if values.size != m + n:
            raise ExperimentInputError(
                f"rhs file has {values.size} values, system order is {m + n}")
        b, c, source, why = values[:m], values[m:], "rhs file", ""
    for name, half in (("b", b), ("c", c)):
        if not np.any(half):
            raise ExperimentInputError(f"block {name} of the {source} is zero{why}")
    return b, c


@quiet_nonfinite
def _run_method(method, system, prec, blocks, b_star, c_star, cfg):
    M, A, B, N = blocks
    applies_before = system.A.applies + system.B.applies
    start = time.perf_counter()
    report = solve_partitioned(method, system, cfg.atol, cfg.rtol, cfg.k_max,
                               reorth=cfg.reorth)
    elapsed = time.perf_counter() - start
    x_star, y_star = recover_solution(prec, report.x, report.y)
    # the right preconditioner leaves the residual unchanged, so the raw
    # blocks give it on an arithmetic path independent of the solve
    residual = np.concatenate([
        b_star - cfg.lam * spmv(M, x_star) - spmv(A, y_star),
        c_star - spmv(B, x_star) - cfg.mu * spmv(N, y_star),
    ])
    true_residual = float(np.linalg.norm(residual))
    return {
        "method": method,
        "iterations": int(report.iterations),
        "status": report.status,
        "converged": report.converged,
        "true_residual": true_residual,
        "matvec_count": system.A.applies + system.B.applies - applies_before,
        "wall_time": elapsed,
        "history": report.residual_history,
        "x_star": x_star,
        "y_star": y_star,
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured experiment and return a result dictionary.

    The dictionary carries matrix metadata, the partition sizes, the
    nonzeros of the LU factors of each diagonal block (``lu_fill``) and
    the entries SuperLU stores for them (``lu_stored``), and one entry
    per method with iterations, status, true residual in the original
    system, operator application count, wall time, residual history and
    the recovered solution. The application count ``matvec_count`` is
    read off the operators: applies of A plus applies of B during the
    solve (2 per iteration for GPMR and GMRES, 4 for Block-GMRES).
    """
    C, split = _load_inputs(cfg)
    blocks = extract_blocks(C, split)
    M, A, B, N = blocks
    b_star, c_star = _load_rhs(cfg, split.m, split.n, blocks)
    system, prec = build_preconditioned_system(M, A, B, N, b_star, c_star,
                                               lam=cfg.lam, mu=cfg.mu)

    results = [_run_method(method, system, prec, blocks, b_star, c_star, cfg)
               for method in cfg.methods]

    report = {
        "matrix": str(cfg.matrix_path),
        "order": C.shape[0],
        "nnz": C.nnz,
        "m": split.m,
        "n": split.n,
        "partition": cfg.partition,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "atol": cfg.atol,
        "rtol": cfg.rtol,
        "lu_fill": {"M": prec.Mfac.L.nnz + prec.Mfac.U.nnz,
                    "N": prec.Nfac.L.nnz + prec.Nfac.U.nnz},
        "lu_stored": {"M": prec.Mfac.nnz, "N": prec.Nfac.nnz},
        "methods": {r["method"]: r for r in results},
    }
    report["all_converged"] = all(r["converged"] for r in results)
    return report


def format_table(report: dict) -> str:
    lines = [
        f"matrix       {report['matrix']}",
        f"order / nnz  {report['order']} / {report['nnz']}",
        f"partition    m={report['m']} n={report['n']} ({report['partition']})",
        f"lambda, mu   {report['lambda']}, {report['mu']}",
        f"tolerances   atol={report['atol']:g} rtol={report['rtol']:g}",
        "",
        f"{'method':<12} {'iters':>6} {'status':<15} {'residual':>12} "
        f"{'matvecs':>8} {'seconds':>9}",
    ]
    for name, res in report["methods"].items():
        lines.append(
            f"{name:<12} {res['iterations']:>6} {res['status']:<15} "
            f"{res['true_residual']:>12.4e} {res['matvec_count']:>8} "
            f"{res['wall_time']:>9.3f}")
    return "\n".join(lines)


def _json_text(report: dict) -> str:
    """The report as standard JSON text: each method's history and iterate
    replaced by the history's length, a non-finite true residual by null."""
    out = dict(report)
    out["methods"] = {}
    for name, res in report["methods"].items():
        cleaned = {k: v for k, v in res.items()
                   if k not in ("history", "x_star", "y_star")}
        cleaned["history_length"] = int(len(res["history"]))
        if not math.isfinite(cleaned["true_residual"]):
            cleaned["true_residual"] = None
        out["methods"][name] = cleaned
    return json.dumps(out, indent=2) + "\n"


def _method_list(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _plain_number(convert):
    """``convert`` for plain ASCII numbers only: Python's ``int`` and
    ``float`` also read digit separators and non-ASCII digits (``1_0``
    and ``١٠`` are 10 to both), which are refused here like ``abc``."""
    def parse(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(text)
        return convert(text)
    # argparse names the type in its message: "invalid int value"
    parse.__name__ = convert.__name__
    return parse


_int = _plain_number(int)
_float = _plain_number(float)


def build_parser() -> argparse.ArgumentParser:
    """Command-line parser. Options left out are absent from the parsed
    namespace, so :class:`ExperimentConfig` supplies every default; the
    dests are its field names, plus ``history`` and ``json``."""
    parser = argparse.ArgumentParser(
        prog="gpmr", argument_default=argparse.SUPPRESS,
        description="Solve a partitioned sparse system with GPMR and baselines.")
    parser.add_argument("--matrix", dest="matrix_path", metavar="MATRIX",
                        required=True, help="Matrix Market file")
    parser.add_argument("--partition",
                        help="'auto' for built-in bisection or a permutation file")
    parser.add_argument("--lambda", dest="lam", type=_float)
    parser.add_argument("--mu", type=_float)
    parser.add_argument("--method", dest="methods", metavar="METHOD", type=_method_list,
                        help="comma-separated subset of gpmr,gmres,block-gmres")
    parser.add_argument("--atol", type=_float)
    parser.add_argument("--rtol", type=_float)
    parser.add_argument("--maxiter", dest="k_max", metavar="MAXITER", type=_int)
    parser.add_argument("--history", help="write residual CSV here")
    parser.add_argument("--reorth", action="store_true",
                        help="reorthogonalize the Krylov bases")
    parser.add_argument("--rhs", dest="rhs_path", metavar="RHS",
                        help="override the ones-solution right-hand side")
    parser.add_argument("--json", help="write a JSON report here")
    return parser


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    outputs = [(option, path, text) for option, path, text in (
        ("--history", options.pop("history", None), history_csv),
        ("--json", options.pop("json", None), _json_text)) if path is not None]
    try:
        cfg = ExperimentConfig(**options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # outputs are written after every solve, so a path that cannot be a
    # file is reported before the first
    for option, path, _ in outputs:
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            why = ("it is a directory" if Path(path).is_dir()
                   else f"no directory {Path(path).parent}")
            print(f"error: cannot write {option} file {path}: {why}", file=sys.stderr)
            return EXIT_INPUT_ERROR

    try:
        report = run_experiment(cfg)
    except ExperimentInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except PreconditionerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR_BLOCK

    print(format_table(report))
    for option, path, text in outputs:
        try:
            Path(path).write_text(text(report))
        except OSError as exc:
            print(f"error: cannot write {option} file {path}: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    if any(r["status"] == STATUS_NONFINITE for r in report["methods"].values()):
        return EXIT_NONFINITE
    return EXIT_OK if report["all_converged"] else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
