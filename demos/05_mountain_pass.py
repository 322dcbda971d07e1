"""The third solution: a path search between the two minimizers.

A discrete path from the negative to the positive minimizer is deformed
downward; its maximum cannot drop below the pass level, and the node
carrying the maximum converges to a saddle.  For the odd cubic the saddle
is the two-bump sign-changing solution.

Run with:  python demos/05_mountain_pass.py
"""

import numpy as np

from trisol import (DomainSpec, EnergyModel, MPOptions, TruncationMode,
                    cubic_nonlinearity, eigenpairs, find_mountain_pass,
                    initial_guess, minimize, morse_index)

spec = DomainSpec.interval(1.0, 127)
nl = cubic_nonlinearity(spec)
phi1 = eigenpairs(spec, 1)[0]

plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
minus_model = EnergyModel(spec, nl, TruncationMode.MINUS)
full_model = EnergyModel(spec, nl, TruncationMode.FULL)

plus = minimize(plus_model, initial_guess(plus_model, phi1))
minus = minimize(minus_model, initial_guess(minus_model, phi1))
print(f"endpoints: phi(u-) = {minus.energy:+.4f}, phi(u+) = {plus.energy:+.4f}")


def trail(info):
    if info["iteration"] % 50 == 0:
        energies = info["energies"]
        print(f"  iter {info['iteration']:4d}   path max {np.max(energies):+10.4f}"
              f"   residual at max {info['residual']:.3e}")


star = find_mountain_pass(full_model, minus, plus, MPOptions(callback=trail))
values = star.u.values
print(f"\nsaddle found: converged {star.converged} "
      f"after {star.iterations} iterations")
print(f"  energy {star.energy:+.4f}  (above both endpoint energies)")
print(f"  residual {star.residual:.2e}")
print(f"  range [{values.min():+.4f}, {values.max():+.4f}]  (sign-changing)")

result, zero_index = morse_index(full_model, [star.u, star.u * 0.0])
print(f"  Morse index {result.index} vs index {zero_index.index} at the origin: "
      "different critical points")
