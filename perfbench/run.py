"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload reservoir --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, then measures them in a
fresh process (``perfbench/measure.py``) that repeats passes until
``--seconds`` are spent. Every pass attempts the same round of three
solves. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0`` and its per-layer
metrics with ``--trace 1``, each the mean over the passes.
The full record, and the spans of a traced run, are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# the whole run ends within this, the measuring process included
RUN_LIMIT_S = 170
SOLVES_PER_PASS = 3

# one BLAS thread: the machine's cores are shared, and a threaded BLAS
# turns that sharing into run-to-run noise
MEASURE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def measure(workload: str, input_path: Path, trace: int, seconds: float,
            started: float):
    """Run the measuring process. Returns its parsed output, or None and
    the reason it failed."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--input", str(input_path), "--seconds", str(seconds),
           "--trace", str(trace)]
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **MEASURE_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"measuring process exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip() or f"measuring process exited {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def summarize(measured: dict, trace: int, declared: list[dict]) -> dict:
    """Each declared metric with its unit: the mean over the passes.

    The host this was tuned on ran the same solve at one of two speeds,
    up to 1.8x apart, switching every few seconds to minutes, so the
    passes of a run are a mixture of the two. A quantile (the fastest
    pass, the median) jumps from one speed to the other when the share
    of fast passes crosses its level in some runs and not in others; the
    mean moves in proportion to that share, and spread least between
    runs of one commit (README). Counts repeat on every pass, and
    ``peak_rss_mb`` is one value.
    """
    def end_to_end(p):
        return {**p["times"], "peak_rss_mb": measured["peak_rss_mb"],
                **{f"{k}_iters": v for k, v in p["iterations"].items()}}

    per_pass = [p["layers"] if trace else end_to_end(p) for p in measured["passes"]]
    return {m["name"]: {"value": statistics.fmean(p[m["name"]] for p in per_pass),
                        "unit": m["unit"]}
            for m in declared}


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpus": os.cpu_count(), **MEASURE_ENV}


def main(argv=None) -> int:
    started = time.monotonic()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the measuring process before this one exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gpmr" / "__init__.py").is_file():
        return fail(f"no gpmr package under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, write_input

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    input_path = write_input(args.workload, args.seed, OUT)

    measured, error = measure(args.workload, input_path, args.trace,
                              args.seconds, started)
    if measured is None:
        return fail(error)

    passes = measured["passes"]
    failures = list(measured["failures"])
    for key in ("iterations", "applies"):
        if any(p[key] != passes[0][key] for p in passes):
            failures.append(f"{key} differ between passes over one input")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures,
        "attempted": SOLVES_PER_PASS * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": summarize(measured, args.trace, declared),
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "result": result,
              "failures": failures, "peak_rss_mb": measured["peak_rss_mb"],
              "passes": passes}
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(
            json.dumps(measured["spans"]) + "\n")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
