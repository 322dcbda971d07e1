"""Independent ground truth in 1D: shoot the untruncated equation.

Sweeping the initial slope of u'' = -g(u), u(0) = 0 and counting sign
changes of u(1) enumerates every solution branch.  The variational
solution is then compared against the matching branch: agreement at
second order certifies that the truncated solve really solved the
original problem.

Run with:  python demos/07_shooting_oracle.py
"""

import numpy as np

from trisol import (DomainSpec, EnergyModel, TruncationMode,
                    cubic_nonlinearity, eigenpairs, find_branch,
                    initial_guess, minimize, sign_change_brackets, sweep)

length = 1.0
nl = cubic_nonlinearity(DomainSpec.interval(length, 63))

slopes = np.arange(-50.0, 50.0 + 0.005, 0.01)
endpoints, blown = sweep(nl, length, slopes, 2048)
brackets = sign_change_brackets(slopes, endpoints, blown)
print(f"slope sweep over [-50, 50]: {len(brackets)} nontrivial branches, "
      f"{int(blown.sum())} trajectories blew up")

print("\nbranches (negative mirror images included):")
branches = find_branch(nl, length, brackets, 4096)
for branch in branches:
    interior = branch.values[1:-1]
    crossings = int(np.sum(interior[:-1] * interior[1:] < 0.0))
    print(f"  slope {branch.slope:+10.5f}  amplitude "
          f"{np.max(np.abs(branch.values)):7.4f}  interior sign changes {crossings}")

print("\ngrid convergence of the positive solution toward the oracle branch:")
oracle = max(branches, key=lambda branch: branch.slope)
for n in (63, 127, 255):
    spec = DomainSpec.interval(length, n)
    nl_n = cubic_nonlinearity(spec)
    model = EnergyModel(spec, nl_n, TruncationMode.PLUS)
    point = minimize(model, initial_guess(model, eigenpairs(spec, 1)[0]))
    err = np.max(np.abs(point.u.values - oracle.values_at(spec)))
    print(f"  n = {n:4d}   sup error {err:.3e}")
