"""The paper's claims, checked on generated families (run with ``pytest -s``
to see the tables).

Claim (a): GPMR terminates in fewer iterations than GMRES on partitioned,
block-Jacobi preconditioned systems. The family is the pipeline the
``gpmr`` command runs (``bisect_graph``, ``extract_blocks``,
``build_preconditioned_system``) on 24 upwind convection-diffusion grids:
for t = 0..23, ``rng = default_rng(1000 + t)`` draws ``nx, ny`` in
12..40 and each wind component from (0, 5, 20, 80). Each grid has two
right-hand sides: ``generate_rhs``'s, whose exact solution is all ones,
then a standard normal b and c from the same rng. Every member is solved
with atol 0, rtol 1e-10 and k_max 1000.

Each test asserts a claim only as far as it holds on every member; the
ratios it prints are a record, and no bound is sized from them.
"""

import numpy as np

from gpmr import (
    bisect_graph,
    build_preconditioned_system,
    extract_blocks,
    gmres_solve,
    gpmr_solve,
)
from gpmr.cli import generate_rhs
from conftest import convection_diffusion

GRIDS = 24
WINDS = (0, 5, 20, 80)
RTOL, K_MAX = 1e-10, 1000


def preconditioned_family():
    """(label, system) for the two right-hand sides of each grid."""
    for t in range(GRIDS):
        rng = np.random.default_rng(1000 + t)
        nx, ny = (int(v) for v in rng.integers(12, 41, 2))
        wind = (float(rng.choice(WINDS)), float(rng.choice(WINDS)))
        C = convection_diffusion(nx, ny, wind)
        M, A, B, N = extract_blocks(C, bisect_graph(C))
        ones = generate_rhs(M, A, B, N)
        normal = rng.standard_normal(M.shape[0]), rng.standard_normal(N.shape[0])
        for name, (b, c) in (("ones", ones), ("normal", normal)):
            system, _ = build_preconditioned_system(M, A, B, N, b, c)
            yield f"t={t} {nx}x{ny} wind={wind} {name}", system


def test_claim_a_gpmr_needs_no_more_iterations_than_gmres_preconditioned():
    ratios = []
    for label, system in preconditioned_family():
        gpmr = gpmr_solve(system, 0.0, RTOL, k_max=K_MAX)
        gmres = gmres_solve(system.full_operator(), system.rhs_full(), 0.0, RTOL, K_MAX)
        assert gpmr.converged and gmres.converged, label
        assert gpmr.iterations <= gmres.iterations, (label, gpmr.iterations,
                                                     gmres.iterations)
        ratios.append(gpmr.iterations / gmres.iterations)
        print(f"{label}: gpmr {gpmr.iterations} gmres {gmres.iterations} "
              f"ratio {ratios[-1]:.2f}")
    assert len(ratios) == 2 * GRIDS
    print(f"claim (a), preconditioned: ratio {min(ratios):.2f}-{max(ratios):.2f}, "
          f"median {np.median(ratios):.2f}")
