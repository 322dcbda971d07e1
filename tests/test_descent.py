import numpy as np
import pytest

from trisol import descent
from trisol.analysis import Classification
from trisol.descent import DescentOptions, initial_guess, minimize
from trisol.energy import EnergyModel
from trisol.grid import DomainSpec, Field, quadrature
from trisol.nonlinearity import Nonlinearity, TruncationMode
from trisol.presets import cubic_nonlinearity
from trisol.spectrum import eigenpairs

RT60 = np.sqrt(60.0)


@pytest.fixture(scope="module")
def small():
    spec = DomainSpec.interval(1.0, 63)
    nl = cubic_nonlinearity(spec)
    phi1 = eigenpairs(spec, 1)[0]
    return spec, nl, phi1


def test_initial_guess_plus(small):
    spec, nl, phi1 = small
    model = EnergyModel(spec, nl, TruncationMode.PLUS)
    guess = initial_guess(model, phi1)
    assert np.all(guess.values > 0.0)
    assert quadrature(spec, guess, "sup_norm") == pytest.approx(0.5 * nl.delta)
    assert model.phi(guess) < 0.0


def test_initial_guess_minus_is_mirror(small):
    spec, nl, phi1 = small
    plus = initial_guess(EnergyModel(spec, nl, TruncationMode.PLUS), phi1)
    minus = initial_guess(EnergyModel(spec, nl, TruncationMode.MINUS), phi1)
    assert np.array_equal(minus.values, -plus.values)
    assert EnergyModel(spec, nl, TruncationMode.MINUS).phi(minus) < 0.0


def test_initial_guess_rejects_first_eigenvalue_slope(small):
    # g'(0) at the first eigenvalue leaves no negative-energy direction
    spec, _, phi1 = small
    lam = np.pi**2
    nl1 = Nonlinearity(g=lambda t: lam * t - t**3,
                       gprime=lambda t: lam - 3.0 * t**2,
                       a_minus=-np.sqrt(lam), a_plus=np.sqrt(lam),
                       delta=1.0, k=1)
    model = EnergyModel(spec, nl1, TruncationMode.PLUS)
    with pytest.raises(ValueError, match="not negative"):
        initial_guess(model, phi1)


def test_initial_guess_needs_one_sided_mode(small):
    spec, nl, phi1 = small
    with pytest.raises(ValueError):
        initial_guess(EnergyModel(spec, nl, TruncationMode.FULL), phi1)


def test_initial_guess_needs_rank_one(small):
    spec, nl, _ = small
    second = eigenpairs(spec, 2)[1]
    with pytest.raises(ValueError):
        initial_guess(EnergyModel(spec, nl, TruncationMode.PLUS), second)


def test_minimize_at_solution_returns_immediately(small):
    spec, nl, phi1 = small
    model = EnergyModel(spec, nl, TruncationMode.PLUS)
    first = minimize(model, initial_guess(model, phi1))
    again = minimize(model, first.u)
    assert again.converged
    assert again.iterations == 0
    assert np.array_equal(again.u.values, first.u.values)


def test_minimize_plus_properties(small):
    spec, nl, phi1 = small
    model = EnergyModel(spec, nl, TruncationMode.PLUS)
    opts = DescentOptions()
    point = minimize(model, initial_guess(model, phi1), opts)
    assert point.converged
    assert point.classification is Classification.POSITIVE_MIN
    assert point.residual <= opts.grad_tol * nl.scale
    assert point.energy < 0.0
    # bound emergence: no constraints were imposed, yet the minimizer sits
    # inside [0, a+]
    assert np.min(point.u.values) >= -1e-9
    assert np.max(point.u.values) <= nl.a_plus + 1e-9
    # strictly positive at every interior node
    assert np.all(point.u.values > 0.0)


def test_minimize_monotone_energy_and_armijo(small):
    spec, nl, phi1 = small
    model = EnergyModel(spec, nl, TruncationMode.PLUS)
    history = []
    opts = DescentOptions(callback=history.append)
    minimize(model, initial_guess(model, phi1), opts)
    energies = [model.phi_values(entry["values"]) for entry in history]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
    for entry in history:
        if "step" in entry:
            assert entry["decrease"] <= descent.ARMIJO_C * entry["step"] * entry["slope"]
            assert entry["slope"] < 0.0


def test_minimize_mirror_symmetry(small):
    # odd g: the minus-mode flow is the negation of the plus-mode flow
    spec, nl, phi1 = small
    plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
    minus_model = EnergyModel(spec, nl, TruncationMode.MINUS)
    u0 = initial_guess(plus_model, phi1)
    plus = minimize(plus_model, u0)
    minus = minimize(minus_model, -u0)
    assert minus.classification is Classification.NEGATIVE_MIN
    assert np.max(np.abs(minus.u.values + plus.u.values)) <= 1e-10


def test_minimize_iteration_cap_returns_data(small):
    spec, nl, phi1 = small
    model = EnergyModel(spec, nl, TruncationMode.PLUS)
    point = minimize(model, initial_guess(model, phi1), DescentOptions(max_iters=3))
    assert not point.converged
    assert point.iterations == 3


def test_minimize_rejects_full_mode(small):
    spec, nl, _ = small
    with pytest.raises(ValueError):
        minimize(EnergyModel(spec, nl, TruncationMode.FULL), Field.zeros(spec))


def test_descent_options_validation():
    with pytest.raises(ValueError):
        DescentOptions(backtrack_factor=1.0)
    with pytest.raises(ValueError):
        DescentOptions(max_iters=0)
    # the sufficient-decrease constant and the first step are module constants
    for removed in ("armijo_c", "initial_step"):
        with pytest.raises(TypeError):
            DescentOptions(**{removed: 0.5})
