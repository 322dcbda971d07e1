import numpy as np
import pytest

from trisol import oracle
from trisol.grid import DomainSpec
from trisol.nonlinearity import TruncationMode, antiderivative
from trisol.oracle import find_branch, shoot, sign_change_brackets, sweep
from trisol.presets import cubic_nonlinearity

RT60 = np.sqrt(60.0)


@pytest.fixture(scope="module")
def nl():
    return cubic_nonlinearity(DomainSpec.interval(1.0, 63))


@pytest.fixture(scope="module")
def branch_42(nl):
    """The branch in the slope bracket (42.0, 42.41) at 4096 steps, shot once."""
    return find_branch(nl, 1.0, (42.0, 42.41), 4096)


def test_zero_slope_stays_at_equilibrium(nl):
    shot = shoot(nl, 1.0, 0.0, 1024)
    assert shot.endpoint == 0.0
    assert np.all(shot.values == 0.0)


def test_linearized_regime_matches_closed_form(nl):
    # for tiny slopes u ~ s sin(sqrt(60) x) / sqrt(60)
    s = 1e-6
    shot = shoot(nl, 1.0, s, 4096)
    expected = s * np.sin(RT60) / RT60
    assert shot.endpoint == pytest.approx(expected, rel=0.01)


def test_odd_symmetry(nl):
    up = shoot(nl, 1.0, 7.0, 2048)
    down = shoot(nl, 1.0, -7.0, 2048)
    assert np.max(np.abs(up.values + down.values)) <= 1e-12


def test_energy_conservation(nl):
    # 1/2 u'^2 + G(u) is a first integral of the autonomous equation
    shot = shoot(nl, 1.0, 30.0, 4096)
    G = antiderivative(nl, TruncationMode.FULL, shot.values)
    energy = 0.5 * shot.derivatives**2 + G
    drift = np.max(np.abs(energy - energy[0]))
    assert drift <= 1e-9 * max(1.0, abs(energy[0]))


def test_blow_up_is_flagged(nl):
    # above the separatrix level the trajectory escapes the well
    shot = shoot(nl, 1.0, 50.0, 4096)
    assert shot.blown_up
    assert np.max(np.abs(shot.values)) > 10.0 * RT60 - 1.0


def test_step_floor(nl):
    with pytest.raises(ValueError):
        shoot(nl, 1.0, 1.0, 100)


def test_sweep_and_branch_enumeration(nl):
    slopes = np.arange(-50.0, 50.0 + 0.005, 0.01)
    endpoints, blown = sweep(nl, 1.0, slopes, 2048)
    brackets = sign_change_brackets(slopes, endpoints, blown)
    # the trivial crossing at slope zero is excluded; four true branches
    assert len(brackets) >= 3
    assert all(lo > 0 or hi < 0 for lo, hi in brackets)


def test_find_branch_one_sign_solution(nl):
    # the positive single-bump branch: no interior sign change
    slopes = np.arange(40.0, 45.0, 0.01)
    endpoints, blown = sweep(nl, 1.0, slopes, 4096)
    brackets = sign_change_brackets(slopes, endpoints, blown)
    assert brackets
    branch = find_branch(nl, 1.0, brackets[0], 4096)
    amplitude = np.max(np.abs(branch.values))
    assert abs(branch.endpoint) <= 1e-12 * max(1.0, amplitude)
    interior = branch.values[1:-1]
    assert np.all(interior > 0.0)
    assert amplitude < RT60


def test_find_branch_mirror(nl, branch_42):
    pos = branch_42
    neg = find_branch(nl, 1.0, (-42.41, -42.0), 4096)
    assert neg.slope == pytest.approx(-pos.slope, abs=1e-9)
    assert np.max(np.abs(pos.values + neg.values)) <= 1e-9


def test_find_branch_step_halving_consistency(nl, branch_42):
    coarse = branch_42
    fine = find_branch(nl, 1.0, (42.0, 42.41), 8192)
    assert np.max(np.abs(coarse.values[::2] - fine.values[::4])) <= 1e-9
    assert coarse.slope == pytest.approx(fine.slope, abs=1e-8)


def test_find_branch_work_count(nl, monkeypatch):
    # refinement runs on unrecorded sweeps, one per multisection round; only
    # the branch found is shot with its trajectory recorded
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)
    for name in ("sweep", "shoot"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    find_branch(nl, 1.0, (42.0, 42.41), 4096)
    assert calls.count("shoot") == 1
    assert calls.count("sweep") <= 10


@pytest.mark.parametrize("bracket, match", [((1.0, 2.0), "sign change"),
                                            ((45.0, 50.0), "blew up")],
                         ids=["no-sign-change", "blown-end"])
def test_find_branch_rejects_bad_bracket(nl, bracket, match):
    with pytest.raises(ValueError, match=match):
        find_branch(nl, 1.0, bracket, 2048)


def test_values_at_grid_nodes(branch_42):
    spec = DomainSpec.interval(1.0, 63)
    branch = branch_42
    on_grid = branch.values_at(spec)
    assert on_grid.shape == (63,)
    xs = spec.axes()[0]
    stride = 4096 // 64
    assert np.array_equal(on_grid, branch.values[stride::stride][:63])
    assert np.allclose(branch.xs[stride::stride][:63], xs)


def test_values_at_rejects_incompatible_steps(nl):
    branch = shoot(nl, 1.0, 1.0, 1000)
    with pytest.raises(ValueError, match="land"):
        branch.values_at(DomainSpec.interval(1.0, 63))
