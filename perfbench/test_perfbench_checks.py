"""The benchmark's own checks reject corrupted results.

Runs the benchmark's pipeline on a 72-unknown reservoir grid, so these
tests stay fast under the repository's test command.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import checks
import measure
import workloads
from spans import NullTracer, Tracer


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "reservoir-small.mtx"
    workloads.write_mtx(workloads.reservoir_matrix(5, grid=(4, 3, 2)), path)
    cfg = {**workloads.WORKLOADS["reservoir"], "k_max": 72}
    passed = measure.run_pass(cfg, lambda tr: measure.setup_reservoir(path, tr),
                             NullTracer())
    C, rhs = measure.reference("reservoir", path)
    threshold = cfg["atol"] + cfg["rtol"] * np.linalg.norm(rhs)
    return {"path": path, "cfg": cfg, "results": passed["results"],
            "C": C, "rhs": rhs, "threshold": threshold}


def run_checks(small, results):
    cfg = small["cfg"]
    return checks.check_pass(results, small["C"], small["rhs"], small["threshold"],
                               cfg["ones_bound"], cfg["block_rtol"])


def test_untouched_results_pass(small):
    assert run_checks(small, small["results"]) == []


def test_perturbed_iterate_is_rejected(small):
    results = copy.deepcopy(small["results"])
    results["gmres"]["z"][7] += 1e-6
    failures = run_checks(small, results)
    assert any("gmres: true residual" in f for f in failures)
    assert any("gmres: |z - 1|_inf" in f for f in failures)


def test_swapped_blocks_are_rejected(small):
    # with the all-ones solution a swap is invisible, so use a random one
    C = small["C"].tocsc()
    rng = np.random.default_rng(3)
    rhs = C @ rng.standard_normal(C.shape[0])
    z = scipy.sparse.linalg.spsolve(C, rhs)
    half = C.shape[0] // 2
    swapped = np.concatenate([z[half:], z[:half]])
    threshold = 1e-10 * np.linalg.norm(rhs)
    assert checks.check_residual("gpmr", C, z, rhs, threshold) == []
    assert checks.check_residual("gpmr", C, swapped, rhs, threshold) != []


def test_gpmr_history_above_gmres_is_rejected(small):
    results = copy.deepcopy(small["results"])
    h_gpmr, h_gmres = results["gpmr"]["history"], results["gmres"]["history"]
    h_gpmr[2] = h_gmres[2] + 1e-8 * np.linalg.norm(small["rhs"])
    failures = run_checks(small, results)
    assert any("exceeds gmres" in f for f in failures)
    assert any("block-gmres histories differ" in f for f in failures)


def test_wrong_apply_count_is_rejected(small):
    results = copy.deepcopy(small["results"])
    # one full-operator apply per GMRES iteration counted as one unit
    results["gmres"]["applies"] //= 2
    results["block_gmres"]["applies"] += 1
    failures = run_checks(small, results)
    assert any(f.startswith("gmres:") and "A/B applies" in f for f in failures)
    assert any(f.startswith("block_gmres:") and "A/B applies" in f for f in failures)


def test_unconverged_solve_counts_as_failed(small):
    results = copy.deepcopy(small["results"])
    assert checks.failed_solves(results) == 0
    results["gpmr"]["status"] = "max_iterations"
    results["gpmr"]["z"][0] += 1.0
    assert checks.failed_solves(results) == 1
    assert run_checks(small, results) == []


def test_traced_pass_reports_every_layer_and_restores_the_program(small):
    import gpmr.solver

    original = gpmr.solver.hessenberg_step
    tr = Tracer()
    with tr.patched(measure.trace_targets()):
        passed = measure.run_pass(small["cfg"],
                                 lambda t: measure.setup_reservoir(small["path"], t), tr)
    assert gpmr.solver.hessenberg_step is original
    layers = measure.layer_metrics(tr, passed)
    assert layers["operators.gpmr_applies"] == 2 * passed["results"]["gpmr"]["iterations"]
    assert 0.0 < layers["hessenberg.step_self_s"] < tr.total("hessenberg.step")
    assert all(value > 0 for value in layers.values())
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(layers) | {"cli.main_s"}
    assert run_checks(small, passed["results"]) == []


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [["solve", 0.0, 10.0, -1], ["apply", 1.0, 3.0, 0],
                ["step", 4.0, 9.0, 0], ["apply", 5.0, 6.0, 2]]
    assert tr.self_time("solve") == 10.0 - 2.0 - 5.0
    assert tr.self_time("step") == 4.0
    assert tr.total("apply", under="step") == 1.0
