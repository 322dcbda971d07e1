"""Reference energies of the mountain-pass point at lambdas where the path
search stalls, reached by lambda-continuation from a lambda where it
converges.

The helper follows the index-1 branch with a secant predictor and
undamped dense Newton on A u - g(u), the truncation staying inactive
inside (a-, a+).  Every step must keep Morse index 1 with no eigenvalue
within the Morse tol of zero, so the branch passes no turning point or
bifurcation on the way.
"""

import numpy as np
import pytest

from trisol.analysis import morse_index
from trisol.energy import EnergyModel
from trisol.grid import DomainSpec, Field, neg_laplacian_values
from trisol.nonlinearity import TruncationMode
from trisol.pipeline import run_pipeline
from trisol.presets import cubic_nonlinearity

NEWTON_TOL = 1e-10   # on sup |A u - g(u)|, times scale
NEWTON_STEPS = 12


def _newton(model, stencil, u):
    tol = NEWTON_TOL * model.nl.scale
    for _ in range(NEWTON_STEPS):
        residual = model.residual_values(u)
        if np.max(np.abs(residual)) <= tol:
            return u
        jacobian = stencil - np.diag(model.nl.gprime(u))
        u = u - np.linalg.solve(jacobian, residual)
    raise AssertionError(f"Newton stopped at residual {np.max(np.abs(residual)):.3e}")


def _continue(spec, start, step, stop):
    """(lambda, energy) along the mountain-pass branch from run_pipeline's u*
    at start, asserting index 1, nondegenerate and inside (a-, a+) throughout."""
    stencil = np.stack([neg_laplacian_values(spec, e) for e in np.eye(spec.size)])
    report = run_pipeline(spec, cubic_nonlinearity(spec, start))
    assert report.all_ok and report.star.morse_index == 1
    previous, u = None, report.star.u.values
    energies = {}
    for lam in np.arange(start + step, stop + step / 2, step):
        nl = cubic_nonlinearity(spec, lam)
        model = EnergyModel(spec, nl, TruncationMode.FULL)
        guess = u if previous is None else 2.0 * u - previous
        previous, u = u, _newton(model, stencil, guess)
        (result,) = morse_index(model, [Field(spec, u)])
        assert (result.index, result.degenerate) == (1, False), lam
        assert nl.a_minus < u.min() and u.max() < nl.a_plus, lam
        energies[float(lam)] = model.phi_values(u)
    return energies


@pytest.mark.parametrize("spec, start, step, stop, expected", [
    (DomainSpec.interval(1.0, 127), 60.0, 10.0, 250.0,
     {110.0: -865.81735662, 170.0: -3051.20316841, 250.0: -8174.59554543}),
    (DomainSpec.rectangle(2.0, 1.0, 31, 15), 30.0, 5.0, 90.0,
     {60.0: -429.33917868, 90.0: -1408.07472399}),
], ids=["interval", "rectangle"])
def test_continued_mountain_pass_energies(spec, start, step, stop, expected):
    energies = _continue(spec, start, step, stop)
    for lam, energy in expected.items():
        assert energies[lam] == pytest.approx(energy, rel=1e-8), lam
