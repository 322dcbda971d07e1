import numpy as np
import pytest

from trisol.analysis import Classification
from trisol.descent import DescentOptions, initial_guess, minimize
from trisol.energy import EnergyModel
from trisol.grid import DomainSpec
from trisol.mountainpass import MPOptions, PathCollapseError, find_mountain_pass
from trisol.nonlinearity import TruncationMode
from trisol.presets import cubic_nonlinearity
from trisol.spectrum import eigenpairs

RT60 = np.sqrt(60.0)


def _solve_minimizers(n, lam):
    spec = DomainSpec.interval(1.0, n)
    nl = cubic_nonlinearity(spec, lam)
    phi1 = eigenpairs(spec, 1)[0]
    plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
    minus_model = EnergyModel(spec, nl, TruncationMode.MINUS)
    full_model = EnergyModel(spec, nl, TruncationMode.FULL)
    plus = minimize(plus_model, initial_guess(plus_model, phi1))
    minus = minimize(minus_model, initial_guess(minus_model, phi1))
    return spec, nl, full_model, minus, plus


@pytest.fixture(scope="module")
def solved():
    return _solve_minimizers(63, 60.0)


def test_mountain_pass_converges(solved):
    spec, nl, full_model, minus, plus = solved
    opts = MPOptions()
    star = find_mountain_pass(full_model, minus, plus, opts)
    assert star.converged
    assert star.classification is Classification.MOUNTAIN_PASS
    assert star.residual <= opts.grad_tol * nl.scale
    # the pass level dominates both endpoint energies
    assert star.energy > max(minus.energy, plus.energy)
    # a priori bounds survive at the saddle
    assert np.min(star.u.values) >= nl.a_minus - 1e-9
    assert np.max(star.u.values) <= nl.a_plus + 1e-9
    # distinct from the endpoints and from zero
    assert np.max(np.abs(star.u.values - plus.u.values)) > 0.1
    assert np.max(np.abs(star.u.values - minus.u.values)) > 0.1
    assert np.max(np.abs(star.u.values)) > 0.1


def test_path_maximum_essentially_nonincreasing(solved):
    _check_path_maximum_essentially_nonincreasing(*solved)


@pytest.mark.parametrize("lam", [65.0, 60.0 + 1e-7])
def test_path_maximum_essentially_nonincreasing_n127(lam):
    # inputs on which an unbounded reflected step lifted the path maximum
    # by several units above its start
    _check_path_maximum_essentially_nonincreasing(*_solve_minimizers(127, lam))


def _check_path_maximum_essentially_nonincreasing(spec, nl, full_model, minus, plus):
    # sampled along nodes and chord midpoints, the path maximum never rises
    # meaningfully above its starting level (redistribution resamples the
    # same polyline, so only line-search-scale slack is allowed) and ends
    # far below it at the pass level
    fine_history = []

    def watch(info):
        nodes = info["state"].nodes
        chords = 0.5 * (nodes[:-1] + nodes[1:])
        fine_history.append(max(float(np.max(info["state"].energies)),
                                float(np.max(full_model.phi_rows(chords)))))

    star = find_mountain_pass(full_model, minus, plus, MPOptions(callback=watch))
    fine_history = np.array(fine_history)
    assert np.max(fine_history) <= fine_history[0] + 1e-3 * nl.scale
    assert fine_history[-1] < fine_history[0]
    # the sampled maximum ends within chord-resolution of the pass level
    assert fine_history[-1] == pytest.approx(star.energy, abs=2.5)


def test_requires_full_mode(solved):
    spec, nl, _, minus, plus = solved
    plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
    with pytest.raises(ValueError):
        find_mountain_pass(plus_model, minus, plus)


def test_rejects_unconverged_endpoints(solved):
    spec, nl, full_model, minus, _ = solved
    plus_model = EnergyModel(spec, nl, TruncationMode.PLUS)
    loose = minimize(plus_model,
                     initial_guess(plus_model, eigenpairs(spec, 1)[0]),
                     DescentOptions(max_iters=2))
    with pytest.raises(ValueError, match="not a converged"):
        find_mountain_pass(full_model, minus, loose)


def test_collapse_detection_fires(solved):
    # an absurdly wide collapse tolerance treats every node as an endpoint
    spec, nl, full_model, minus, plus = solved
    with pytest.raises(PathCollapseError):
        find_mountain_pass(full_model, minus, plus,
                           MPOptions(collapse_tol=1e6))


def test_restart_rule_escapes_the_origin(solved):
    # with no symmetry-breaking bump the odd problem parks the path maximum
    # exactly on the origin (a critical point of index >= 2); the restart
    # rule reruns with a real bump and lands on a genuine saddle
    spec, nl, full_model, minus, plus = solved
    starts = []

    def watch(info):
        if info["iteration"] == 0:
            starts.append(info["residual"])

    opts = MPOptions(perturbation=0.0, restart_limit=3, callback=watch)
    star = find_mountain_pass(full_model, minus, plus, opts)
    assert len(starts) == 2         # exactly one restart was needed
    assert star.converged
    assert np.max(np.abs(star.u.values)) > 0.1


def test_iteration_cap_returns_data(solved):
    spec, nl, full_model, minus, plus = solved
    star = find_mountain_pass(full_model, minus, plus, MPOptions(max_iters=2))
    assert not star.converged
    assert star.iterations == 2


def test_mp_options_validation():
    # the path search shares the descent's checks on its line-search fields
    for bad in ({"path_count": 4}, {"max_iters": 0}, {"grad_tol": 0},
                {"initial_step": 0}, {"armijo_c": 1.0}):
        with pytest.raises(ValueError):
            MPOptions(**bad)
    # keyword-only: inheritance reorders fields, so a positional value
    # would land on a different field than it did before
    with pytest.raises(TypeError):
        MPOptions(21)
    with pytest.raises(TypeError):
        DescentOptions(10)
