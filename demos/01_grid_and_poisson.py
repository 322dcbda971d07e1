"""Grid basics: the Dirichlet stencil, quadrature, and the direct Poisson solver.

Run with:  python demos/01_grid_and_poisson.py
"""

import numpy as np

from trisol import DomainSpec, Field, apply_neg_laplacian, quadrature, solve_poisson

# ---------------------------------------------------------------- 1D stencil
spec = DomainSpec.interval(1.0, 63)
(h,) = spec.spacings
print(f"interval grid: 63 interior nodes, spacing h = {h:.5f}")

u = Field.from_callable(spec, lambda x: np.sin(np.pi * x))
lap_u = apply_neg_laplacian(spec, u)
lam_h = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
print("sin(pi x) is an exact discrete eigenvector:")
print(f"  discrete eigenvalue  {lam_h:.6f}")
print(f"  continuum pi^2       {np.pi**2:.6f}")
print(f"  max |A u - lam_h u|  {np.max(np.abs(lap_u.values - lam_h * u.values)):.2e}")

# ------------------------------------------------------------- quadrature
print("\nmidpoint quadrature of sin(pi x), exact value 2/pi:")
for n in (31, 63, 127):
    s = DomainSpec.interval(1.0, n)
    v = Field.from_callable(s, lambda x: np.sin(np.pi * x))
    err = abs(quadrature(s, v, "integral") - 2.0 / np.pi)
    print(f"  n = {n:4d}   error = {err:.3e}")

# the H1 seminorm agrees with the stencil pairing by summation by parts
rng = np.random.default_rng(1)
w = Field(spec, rng.standard_normal(spec.size))
h1 = quadrature(spec, w, "h1_seminorm")
pairing = spec.cell_volume * float(np.dot(w.values,
                                          apply_neg_laplacian(spec, w).values))
print(f"\nh1 seminorm^2 vs stencil pairing: {h1**2:.10f} vs {pairing:.10f}")

# ------------------------------------------------------------ Poisson solve
square = DomainSpec.rectangle(1.0, 1.0, 63, 63)
ones = Field(square, np.ones(square.size))
w = solve_poisson(square, ones)
center = w.reshaped()[31, 31]
print(f"\n-lap w = 1 on the unit square: center value {center:.6f}"
      f"  (series value 0.073671)")
print(f"solution minimum {np.min(w.values):.3e}  (maximum principle: rhs >= 0 "
      "gives w >= 0)")
residual = apply_neg_laplacian(square, w).values - ones.values
print(f"the DST-I solve is direct: max |A w - 1| = {np.max(np.abs(residual)):.1e}")
