"""Accuracy of the coupled problem across the Laplace parameter s.

The acceptance criteria run at s = 2 - i only.  The interface coupling
blocks and the local solvers depend on s, so coupled63 at k = 3 is solved
on ladder levels 2 and 3 for seven values of s, from near 0 to |s| of
about 400, on both half-planes of Im s:

- at every s the trace solve's relative residual stays at round-off (at
  most 1.7e-15 measured; 1e-14 allowed);
- where |s| h <= 1 on the coarser level (h = 0.354 there, the first three
  values), the level 2 -> 3 rates of sigma, u, v and theta lie in the
  acceptance window [k + 0.7, k + 1.4] (3.94 to 4.03 measured).

At larger |s| h the rates of these two levels are pre-asymptotic (sigma
5.19 at s = 0.5 + 8i and 3.48 at 5 - 40i), so no band is held there.
"""

import pytest

from hdgwave.local_solver import Assembler
from hdgwave.skeleton import solve_problem
from hdgwave.verify import compute_errors, compute_theta, eoc, make_case

K = 3
LEVELS = (2, 3)
LOW, HIGH = 0.7, 1.4  # the acceptance file's e.o.c. window around k
RESIDUAL_MAX = 1e-14
S_VALUES = (2 - 1j, 0.001 + 0.2j, 0.05 + 1j, 0.5 + 8j, 5 - 40j, 50 - 20j, 400 - 100j)
RATED = ("sigma", "u", "v", "theta")


def _level(case, level: int):
    """The mesh size, the trace solve's residual, and the errors with theta."""
    mesh = case.mesh_at(level)
    assembler = Assembler(mesh, K, case.params)
    solution, system = solve_problem(mesh, K, case.params, case.data, assembler=assembler)
    errors = compute_errors(assembler, solution, case.exact)
    errors["theta"] = compute_theta(assembler, solution, case.exact)
    return mesh.h, system.solve_stats.residual_rel, errors


@pytest.mark.parametrize("s", S_VALUES, ids=str)
def test_coupled_solve_holds_across_s(s):
    case = make_case("coupled63", s=s)
    (h_c, res_c, err_c), (h_f, res_f, err_f) = (_level(case, level) for level in LEVELS)
    assert res_c <= RESIDUAL_MAX and res_f <= RESIDUAL_MAX, (res_c, res_f)
    if abs(s) * h_c <= 1.0:
        rates = {name: eoc(err_c[name], err_f[name], h_c, h_f) for name in RATED}
        assert all(K + LOW <= rate <= K + HIGH for rate in rates.values()), rates
