"""Checks of one pass's answers against arithmetic done outside the program.

Every check returns a list of failure messages; an empty list passes.
The references are the generator's own matrices, multiplied with
scipy.sparse, and the known all-ones solution. Nothing is compared with
a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(np.float64).eps

# Rounding allowed on top of the stopping threshold, in units of
# eps * (| |C| |z| | + |rhs|): the true residual of the recovered solution
# may exceed the recurrence residual by the rounding of C z and of the
# recovery, never by more.
ROUNDING_ULPS = 100.0

# GPMR's residual may exceed GMRES's at the same iteration by at most
# this fraction of |(b, c)|; in exact arithmetic it never exceeds it.
DOMINANCE_RTOL = 1e-10

# Applies of A plus applies of B per iteration of each method.
APPLIES_PER_ITERATION = {"gpmr": 2, "gmres": 2, "block_gmres": 4}


def check_residual(method: str, C, z, rhs, threshold: float) -> list[str]:
    """|rhs - C z| is within the stopping threshold plus rounding."""
    residual = float(np.linalg.norm(rhs - C @ z))
    scale = float(np.linalg.norm(abs(C) @ np.abs(z))) + float(np.linalg.norm(rhs))
    allowed = threshold + ROUNDING_ULPS * EPS * scale
    if not residual <= allowed:
        return [f"{method}: true residual {residual:.3e} exceeds {allowed:.3e}"]
    return []


def check_ones(method: str, z, bound: float) -> list[str]:
    """The solution is within ``bound`` of all ones in the max norm."""
    error = float(np.max(np.abs(np.asarray(z) - 1.0)))
    if not error <= bound:
        return [f"{method}: |z - 1|_inf = {error:.3e} exceeds {bound:.1e}"]
    return []


def check_dominance(h_gpmr, h_gmres, norm_bc: float) -> list[str]:
    """GPMR's residual never exceeds GMRES's at the same iteration."""
    shared = min(len(h_gpmr), len(h_gmres))
    excess = np.asarray(h_gpmr[:shared]) - np.asarray(h_gmres[:shared])
    worst = int(np.argmax(excess))
    if excess[worst] > DOMINANCE_RTOL * norm_bc:
        return [f"gpmr residual exceeds gmres by {excess[worst] / norm_bc:.2e} "
                f"of |(b,c)| at iteration {worst}"]
    return []


def check_block_match(h_gpmr, h_block, norm_bc: float, rtol: float) -> list[str]:
    """GPMR's history equals Block-GMRES's summed history."""
    if len(h_gpmr) != len(h_block):
        return [f"gpmr ran {len(h_gpmr) - 1} iterations, "
                f"block-gmres {len(h_block) - 1}"]
    gap = float(np.max(np.abs(np.asarray(h_gpmr) - np.asarray(h_block))))
    if gap > rtol * norm_bc:
        return [f"gpmr and block-gmres histories differ by {gap / norm_bc:.2e} "
                f"of |(b,c)|, allowed {rtol:.0e}"]
    return []


def check_applies(method: str, applies: int, iterations: int) -> list[str]:
    want = APPLIES_PER_ITERATION[method] * iterations
    if applies != want:
        return [f"{method}: {applies} A/B applies for {iterations} iterations, "
                f"expected {want}"]
    return []


def failed_solves(results: dict) -> int:
    """Solves that stopped without meeting the stopping rule."""
    return sum(res["status"] != "converged" for res in results.values())


def check_pass(results: dict, C, rhs, threshold: float, ones_bound: float,
                 block_rtol: float) -> list[str]:
    """All checks of one pass.

    ``results`` maps each method to a dict with ``status``,
    ``iterations``, ``history``, ``applies`` and ``z``, the recovered
    solution in the original ordering of ``C``. A solve that did not
    converge counts as failed (:func:`failed_solves`) and its solution is
    not checked; the history and apply checks hold for it all the same.
    """
    failures = []
    for method, res in results.items():
        if res["status"] == "converged":
            failures += check_residual(method, C, res["z"], rhs, threshold)
            failures += check_ones(method, res["z"], ones_bound)
        failures += check_applies(method, res["applies"], res["iterations"])
    norm_bc = float(np.linalg.norm(rhs))
    failures += check_dominance(results["gpmr"]["history"],
                                results["gmres"]["history"], norm_bc)
    failures += check_block_match(results["gpmr"]["history"],
                                  results["block_gmres"]["history"], norm_bc,
                                  block_rtol)
    return failures
