from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

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
    """The branch in the slope bracket (42.0, 42.41) at 1024 steps and its
    mirror in (-42.41, -42.0), refined together."""
    return find_branch(nl, 1.0, [(42.0, 42.41), (-42.41, -42.0)], 1024)


def _reference_rk4(nl, length, slopes, steps, record):
    """Classical RK4 on all lanes at once, a lane past the cap frozen: the
    integrator the accuracy test measures the oracle's against."""
    cap = 10.0 * max(nl.a_plus, -nl.a_minus)
    h = length / steps
    u = np.zeros_like(slopes)
    p = np.array(slopes, dtype=float)
    blown = np.zeros(slopes.shape, dtype=bool)
    traj = np.zeros((steps + 1, slopes.size)) if record else None
    dtraj = np.zeros((steps + 1, slopes.size)) if record else None
    if record:
        dtraj[0] = p
    for i in range(steps):
        k1u, k1p = p, -nl.g(u)
        k2u, k2p = p + 0.5 * h * k1p, -nl.g(u + 0.5 * h * k1u)
        k3u, k3p = p + 0.5 * h * k2p, -nl.g(u + 0.5 * h * k2u)
        k4u, k4p = p + h * k3p, -nl.g(u + h * k3u)
        u_next = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        p_next = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        active = ~blown
        u = np.where(active, u_next, u)
        p = np.where(active, p_next, p)
        blown |= np.abs(u) > cap
        if record:
            traj[i + 1] = u
            dtraj[i + 1] = p
    return u, blown, traj, dtraj


def _reference_step_by_step(nl, length, slopes, steps, record):
    """The same composition lane by lane, in Python floats: a step takes its
    own g at the start, where `_integrate` reuses the one that ended the step
    before, and a lane past the cap stops; the bits must still agree."""
    cap = 10.0 * max(nl.a_plus, -nl.a_minus)
    h = length / steps
    w1, w2, w3 = -1.17767998417887, 0.235573213359357, 0.784513610477560
    drifts = [w3, w2, w1, 1.0 - 2.0 * (w1 + w2 + w3), w1, w2, w3]
    kicks = [0.5 * (a + b) for a, b in zip([0.0] + drifts, drifts + [0.0])]
    ends, blown, traj, dtraj = [], [], [], []
    for slope in slopes.tolist():
        u, p, out = 0.0, slope, False
        us, ps = [u], [p]
        for _ in range(steps):
            if not out:
                p -= (h * kicks[0]) * nl.g(u)
                for drift, kick in zip(drifts, kicks[1:]):
                    u += (h * drift) * p
                    p -= (h * kick) * nl.g(u)
                out = abs(u) > cap
            us.append(u)
            ps.append(p)
        ends.append(u)
        blown.append(out)
        traj.append(us)
        dtraj.append(ps)
    if not record:
        return np.array(ends), np.array(blown), None, None
    return np.array(ends), np.array(blown), np.array(traj).T, np.array(dtraj).T


@pytest.mark.parametrize("steps", [1000, 2048])
@pytest.mark.parametrize("record", [False, True], ids=["sweep", "recorded"])
def test_step_is_bit_identical_to_a_lane_by_lane_loop(nl, steps, record):
    slopes = np.array([-50.0, -7.0, 0.0, 1e-6, 30.0, 42.4, 50.0])
    got = oracle._integrate(nl, 1.0 / steps, np.zeros_like(slopes), slopes, steps, int(record))
    want = _reference_step_by_step(nl, 1.0, slopes, steps, record)
    assert want[1].any() and not want[1].all()  # blown and finite lanes both
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)


def test_composition_is_sixth_order_on_the_harmonic_oscillator():
    # u'' = -u from (0, 1) ends at sin(1); halving h cuts the error 2^6 = 64
    # times.  g returns its argument, so a kernel writing into what g returns
    # would move u as well
    linear = SimpleNamespace(g=lambda t: t, a_plus=1e6, a_minus=-1e6)
    errors = [abs(oracle._integrate(linear, 1.0 / steps, np.zeros(1), np.ones(1), steps, 0)[0][0]
                  - np.sin(1.0)) for steps in (4, 8, 16, 32)]
    ratios = np.array(errors[:-1]) / errors[1:]
    assert np.all((56.0 <= ratios) & (ratios <= 72.0)), ratios


# the one-sign branch, the slope nearest the blow-up, of the cubic at each lambda
ONE_SIGN_SLOPE = {60.0: 42.40263048243571, 110.0: 76.22236625946408,
                  170.0: 119.8236946258071, 250.0: 176.69768505971223}


@pytest.mark.parametrize("lam", sorted(ONE_SIGN_SLOPE))
def test_default_steps_match_a_dop853_reference(lam):
    # trajectories at the default 1024 steps against DOP853 at rtol = atol =
    # 1e-13, as max |u - u_ref| over the 1025 abscissae relative to max |u_ref|.
    # At a quarter, a half and three quarters of the one-sign branch's slope
    # they are within 1e-11, and from lambda = 110 on more exact than
    # classical RK4 at 4096 steps.  On that branch itself, which passes close
    # to the saddle at sqrt(lambda), both lose digits; the composition at 1024
    # is held to 2e-10 (it reads 1.3e-10 at lambda = 250, where RK4 at 4096
    # reads 2.1e-11)
    steps = oracle.STEPS
    nl = cubic_nonlinearity(DomainSpec.interval(1.0, 63), lam)
    slopes = ONE_SIGN_SLOPE[lam] * np.array([0.25, 0.5, 0.75, 1.0])
    xs = np.linspace(0.0, 1.0, steps + 1)
    want = np.array([solve_ivp(lambda x, y: [y[1], -nl.g(y[0])], (0.0, 1.0), [0.0, s],
                               method="DOP853", rtol=1e-13, atol=1e-13,
                               dense_output=True).sol(xs)[0] for s in slopes]).T
    scale = np.abs(want).max(axis=0)
    _, blown, got, _ = oracle._integrate(nl, 1.0 / steps, np.zeros_like(slopes), slopes, steps, 1)
    _, _, rk4, _ = _reference_rk4(nl, 1.0, slopes, 4 * steps, True)
    assert not blown.any()
    error = np.abs(got - want).max(axis=0) / scale
    rk4_error = np.abs(rk4[::4] - want).max(axis=0) / scale
    assert np.all(error[:3] <= 1e-11) and error[3] <= 2e-10, error
    if lam >= 110.0:
        assert np.all(error[:3] < rk4_error[:3]), (error, rk4_error)


def test_zero_slope_stays_at_equilibrium(nl):
    shot = shoot(nl, 1.0, 0.0, 1024)
    assert shot.endpoint == 0.0
    assert np.all(shot.values == 0.0)


def test_linearized_regime_matches_closed_form(nl):
    # for tiny slopes u ~ s sin(sqrt(60) x) / sqrt(60)
    s = 1e-6
    shot = shoot(nl, 1.0, s, 1024)
    expected = s * np.sin(RT60) / RT60
    assert shot.endpoint == pytest.approx(expected, rel=0.01)


def test_odd_symmetry(nl):
    up = shoot(nl, 1.0, 7.0, 1024)
    down = shoot(nl, 1.0, -7.0, 1024)
    assert np.max(np.abs(up.values + down.values)) <= 1e-12


def test_energy_conservation(nl):
    # 1/2 u'^2 + G(u) is a first integral of the autonomous equation
    shot = shoot(nl, 1.0, 30.0, 1024)
    G = antiderivative(nl, TruncationMode.FULL, shot.values)
    energy = 0.5 * shot.derivatives**2 + G
    drift = np.max(np.abs(energy - energy[0]))
    assert drift <= 1e-9 * max(1.0, abs(energy[0]))


def test_recorded_lanes_stay_frozen_after_blow_up(nl):
    # lanes that leave the cap at different steps are dropped from the sweep;
    # each keeps its frozen u and p in every later recorded row
    slopes = np.array([42.4, 46.0, 50.0, 60.0, -80.0, 7.0])
    end, blown, traj, dtraj = oracle._integrate(nl, 1.0 / 1000, np.zeros_like(slopes), slopes,
                                                1000, 1)
    cap = 10.0 * max(nl.a_plus, -nl.a_minus)
    first = [int(np.argmax(np.abs(traj[:, j]) > cap)) for j in np.flatnonzero(blown)]
    assert blown.sum() == 4 and len(set(first)) == 4
    for j, k in zip(np.flatnonzero(blown), first):
        assert np.all(traj[k:, j] == traj[k, j]) and np.all(dtraj[k:, j] == dtraj[k, j])
        assert end[j] == traj[k, j]
    assert np.array_equal(end, traj[-1])


def test_blow_up_is_flagged(nl):
    # above the separatrix level the trajectory escapes the well
    shot = shoot(nl, 1.0, 50.0, 1024)
    assert shot.blown_up
    assert np.max(np.abs(shot.values)) > 10.0 * RT60 - 1.0


def test_lane_that_overflows_within_a_step_is_flagged(nl):
    # slope 1e8 overflows to NaN in the first step; a NaN lane passes the cap
    # as well, and leaves the other lanes of its sweep frozen as they pass it
    for slopes in ([50.0, 1e8], [1e8, 50.0]):
        _, blown = sweep(nl, 1.0, np.array(slopes), 256)
        assert blown.tolist() == [True, True]


def test_step_floor(nl):
    with pytest.raises(ValueError):
        shoot(nl, 1.0, 1.0, 100)


def test_sweep_and_branch_enumeration(nl):
    slopes = np.arange(-50.0, 50.0 + 0.005, 0.01)
    endpoints, blown = sweep(nl, 1.0, slopes, 1024)
    brackets = sign_change_brackets(slopes, endpoints, blown)
    # the trivial crossing at slope zero is excluded; four true branches
    assert len(brackets) >= 3
    assert all(lo > 0 or hi < 0 for lo, hi in brackets)


def test_sweep_of_no_slopes_is_empty(nl):
    endpoints, blown = sweep(nl, 1.0, np.array([]), 1000)
    assert (endpoints.shape, endpoints.dtype, blown.shape, blown.dtype) == (
        (0,), np.float64, (0,), np.bool_)


def test_sign_change_brackets_rules():
    # an exact zero endpoint opens a bracket; a blown end or slope 0 closes it
    slopes = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    endpoints = np.array([1.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    blown = np.array([False] * 6 + [True, False])
    assert sign_change_brackets(slopes, endpoints, blown) == [(-2.0, -1.0), (1.0, 2.0)]


def test_find_branch_one_sign_solution(nl):
    # the positive single-bump branch: no interior sign change
    slopes = np.arange(40.0, 45.0, 0.01)
    endpoints, blown = sweep(nl, 1.0, slopes, 1024)
    brackets = sign_change_brackets(slopes, endpoints, blown)
    assert brackets
    (branch,) = find_branch(nl, 1.0, brackets[:1], 1024)
    amplitude = np.max(np.abs(branch.values))
    assert abs(branch.endpoint) <= 1e-12 * max(1.0, amplitude)
    interior = branch.values[1:-1]
    assert np.all(interior > 0.0)
    assert amplitude < RT60


def test_find_branch_mirror(branch_42):
    pos, neg = branch_42
    assert neg.slope == pytest.approx(-pos.slope, abs=1e-9)
    assert np.max(np.abs(pos.values + neg.values)) <= 1e-9


def test_find_branch_step_halving_consistency(nl, branch_42):
    coarse = branch_42[0]
    (fine,) = find_branch(nl, 1.0, [(42.0, 42.41)], 2048)
    assert np.max(np.abs(coarse.values - fine.values[::2])) <= 1e-9
    assert coarse.slope == pytest.approx(fine.slope, abs=1e-8)


def test_find_branch_batched_equals_single(nl):
    brackets = [(42.0, 42.41), (-42.41, -42.0), (35.3, 35.4)]
    batched = find_branch(nl, 1.0, brackets, 1024)
    single = [find_branch(nl, 1.0, [bracket], 1024)[0] for bracket in brackets]
    for got, want in zip(batched, single, strict=True):
        assert got.slope == want.slope and got.endpoint == want.endpoint
        assert got.blown_up == want.blown_up
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.derivatives, want.derivatives)


def _count_integrations(monkeypatch):
    """Record (lanes, steps, every) of every integrator pass, and "shoot" per shot."""
    calls = []
    integrate, shot = oracle._integrate, oracle.shoot

    def counted(nl, h, u, p, steps, every):
        calls.append((len(p), steps, every))
        return integrate(nl, h, u, p, steps, every)
    monkeypatch.setattr(oracle, "_integrate", counted)
    monkeypatch.setattr(oracle, "shoot",
                        lambda *args: calls.append("shoot") or shot(*args))
    return calls


def test_find_branch_work_count(nl, monkeypatch):
    # every bracket is refined in the same unrecorded sweep each round, which
    # keeps every lane's state each 32 steps; the branches found are rebuilt
    # in one recorded sweep of all their 32-step segments at once.  The +-35
    # brackets end after round 2, the +-42 ones, near the blow-up, after round 3
    calls = _count_integrations(monkeypatch)
    brackets = [(42.0, 42.41), (-42.41, -42.0), (35.3, 35.4), (-35.4, -35.3)]
    assert len(find_branch(nl, 1.0, brackets, 1024)) == 4
    assert calls == [(260, 1024, 32), (260, 1024, 32), (130, 1024, 32), (4 * 32, 32, 1)]


def test_find_branch_takes_round_one_from_swept_lanes(nl, monkeypatch):
    # lanes already integrated at the same steps stand in for round 1's sweep
    # only when they hold the round-1 slopes of every bracket; otherwise round
    # 1 sweeps all 65 slopes of every bracket in one pass.  Either way the
    # result is the same bits as a run without them
    brackets = [(42.0, 42.41), (-42.41, -42.0), (35.3, 35.4)]
    calls = _count_integrations(monkeypatch)
    want = find_branch(nl, 1.0, brackets, 1000)
    fresh = list(calls)
    assert fresh[0] == (65 * len(brackets), 1000, 25)
    for covered in ([0, 1, 2], [0, 2]):
        slopes = np.concatenate([[1.0, -42.0, -30.0],
                                 oracle.fan_slopes([brackets[b] for b in covered]).ravel()])
        swept = (slopes, *sweep(nl, 1.0, slopes, 1000))
        calls.clear()
        got = find_branch(nl, 1.0, brackets, 1000, swept)
        assert calls == (fresh[1:] if len(covered) == len(brackets) else fresh)
        for g, w in zip(got, want, strict=True):
            assert g.slope == w.slope and g.endpoint == w.endpoint
            assert g.blown_up == w.blown_up
            assert np.array_equal(g.values, w.values)
            assert np.array_equal(g.derivatives, w.derivatives)


def _recorded_shots(nl, slopes, steps):
    """(slope, endpoint, blown_up, values, derivatives) of every slope from one
    recorded sweep of all `steps`, as the oracle once built its ShotResults."""
    ends, blown, us, ps = oracle._integrate(nl, 1.0 / steps, np.zeros_like(slopes), slopes,
                                            steps, 1)
    return [(s, ends[j], blown[j], us[:, j], ps[:, j]) for j, s in enumerate(slopes)]


def _assert_same_shots(shots, want):
    for shot, (slope, endpoint, blown_up, values, derivatives) in zip(shots, want, strict=True):
        assert (shot.slope, shot.endpoint, shot.blown_up) == (slope, endpoint, blown_up)
        assert np.array_equal(shot.values, values)
        assert np.array_equal(shot.derivatives, derivatives)


@pytest.mark.parametrize("steps, stride", [(1000, 25), (1009, 1009), (2048, 32), (4096, 64)])
def test_replay_from_checkpoints_equals_one_recorded_sweep(nl, steps, stride):
    # each lane's arithmetic is its own, so the segments between the states
    # kept every `stride` steps, integrated again side by side, give the bits of
    # one recorded sweep of the whole trajectory; a lane blown before a kept
    # state starts frozen there.  1009 steps have no divisor near their square
    # root and replay as one segment
    assert oracle._stride(steps) == stride
    slopes = np.random.default_rng(20261020).uniform(-60.0, 60.0, 12)
    want = _recorded_shots(nl, slopes, steps)
    ends, blown, starts = oracle._checkpointed(nl, 1.0, slopes, steps)
    assert starts.shape == (12, steps // stride, 2)
    assert np.array_equal(ends, [w[1] for w in want])
    assert np.array_equal(blown, [w[2] for w in want])
    cap = 10.0 * max(nl.a_plus, -nl.a_minus)
    frozen_early = (np.abs(starts[:, -1, 0]) > cap) & ~(np.abs(starts[:, 0, 0]) > cap)
    assert blown.any() and not blown.all() and (frozen_early.any() or stride == steps)
    _assert_same_shots(oracle._replay(nl, 1.0, steps, starts), want)


@pytest.mark.parametrize("steps", [1000, 2048, 4096])
def test_find_branch_checkpoints_a_best_lane_taken_from_swept(nl, steps, monkeypatch):
    # a bracket one rounding wide across a sign change of the endpoint map
    # within 64 roundings of 42.4026304824359, where the +42 root lies at each
    # of these step counts, ends in round 1, so its best lane comes from `swept`, which keeps
    # no states: it takes one checkpointing sweep before the replay.  The other
    # bracket's best lane comes from a later round.  Every ShotResult has the
    # bits of a recorded sweep of its slope, and of a run without `swept`
    near = 42.4026304824359 + np.spacing(42.4) * np.arange(-64, 65)
    ends = sweep(nl, 1.0, near, steps)[0]
    i = np.flatnonzero(ends[:-1] * ends[1:] <= 0.0)[0]
    brackets = [(35.3, 35.4), (near[i], near[i + 1])]
    lanes = oracle.fan_slopes(brackets).ravel()
    swept = (lanes, *sweep(nl, 1.0, lanes, steps))
    want = find_branch(nl, 1.0, brackets, steps)
    calls = _count_integrations(monkeypatch)
    got = find_branch(nl, 1.0, brackets, steps, swept)
    stride = oracle._stride(steps)
    assert calls[-2:] == [(1, steps, stride), (2 * steps // stride, stride, 1)]
    _assert_same_shots(got, _recorded_shots(nl, np.array([w.slope for w in want]), steps))
    _assert_same_shots(got, [(w.slope, w.endpoint, w.blown_up, w.values, w.derivatives)
                             for w in want])


def test_find_branch_keeps_the_root_when_the_window_misses_it(nl, monkeypatch):
    # the first two windows lie beside the secant root, left and then right
    # of it; the piece of the sign change outside them keeps the root
    window, calls = oracle._window, []

    def beside(slopes, endpoints, i):
        calls.append(i)
        (a, c), (ea, ec) = slopes[i:i + 2], endpoints[i:i + 2]
        root = a - ea * (c - a) / (ec - ea)
        if len(calls) == 1:
            return a, 0.5 * (a + root)
        if len(calls) == 2:
            return 0.5 * (root + c), c
        return window(slopes, endpoints, i)
    monkeypatch.setattr(oracle, "_window", beside)
    (branch,) = find_branch(nl, 1.0, [(35.3, 35.4)], 1024)
    assert len(calls) >= 3
    amplitude = np.max(np.abs(branch.values))
    assert abs(branch.endpoint) <= 1e-12 * max(1.0, amplitude)
    monkeypatch.setattr(oracle, "_window", window)
    assert branch.slope == pytest.approx(find_branch(nl, 1.0, [(35.3, 35.4)], 1024)[0].slope,
                                         abs=1e-12)


def test_window_centres_on_the_inverse_interpolant():
    # a smooth sign change on a round-1 grid of a bracket 0.01 wide: the
    # window holds the root and is only the 32-rounding floor wide on each
    # side, where a secant error estimate would give about 1e-8
    slopes = np.linspace(1.5, 1.51, 65)
    endpoints = np.exp(slopes) - 4.5
    i = int(np.flatnonzero(endpoints[:-1] * endpoints[1:] <= 0.0)[0])
    lo, hi = oracle._window(slopes, endpoints, i)
    assert slopes[i] <= lo <= np.log(4.5) <= hi <= slopes[i + 1]
    assert hi - lo <= 64 * np.spacing(np.log(4.5))


def test_window_spans_the_sign_change_on_tied_endpoints():
    # two equal endpoints among the lanes near the sign change leave the inverse
    # interpolant undefined, and a root of it outside [a, c] is no estimate:
    # either way the window is all of [a, c]
    slopes = np.arange(7.0)
    endpoints = np.array([-3.0, -2.0, -2.0, 1.0, 2.0, 3.0, 4.0])
    assert oracle._window(slopes, endpoints, 2) == (2.0, 3.0)
    # the quadratic through (-1, 0), (1, 1) and (-0.5, 2) has its root at 17/6
    assert oracle._window(slopes[:3], np.array([-1.0, 1.0, -0.5]), 0) == (0.0, 1.0)


def test_window_stays_inside_the_sign_change():
    # whatever the endpoints, the window is a non-empty piece of [a, c]
    rng = np.random.default_rng(7)
    for _ in range(200):
        slopes = np.sort(rng.uniform(-1.0, 1.0, 9))
        endpoints = np.round(rng.standard_normal(9), int(rng.integers(0, 3)))
        changes = np.flatnonzero((endpoints[:-1] * endpoints[1:] < 0.0))
        if changes.size == 0:
            continue
        i = int(changes[0])
        lo, hi = oracle._window(slopes, endpoints, i)
        assert slopes[i] <= lo <= hi <= slopes[i + 1]


def test_find_branch_of_no_brackets_integrates_nothing(nl, monkeypatch):
    calls = _count_integrations(monkeypatch)
    assert find_branch(nl, 1.0, [], 4096) == []
    assert calls == []


@pytest.mark.parametrize("brackets, match", [
    ([(1.0, 2.0)], "sign change"),
    ([(45.0, 50.0)], "blew up"),
    ([(42.0, 42.41), (1.0, 2.0)], "sign change on \\[1.0, 2.0\\]"),
    ([(1.0, 2.0), (45.0, 50.0)], "sign change"),
    ([(45.0, 50.0), (1.0, 2.0)], "blew up"),
    ((42.0, 42.41), "list of \\(lo, hi\\) pairs"),
], ids=["no-sign-change", "blown-end", "second-bad", "first-of-two-bad", "blown-first",
        "bare-pair"])
def test_find_branch_rejects_bad_bracket(nl, brackets, match):
    with pytest.raises(ValueError, match=match):
        find_branch(nl, 1.0, brackets, 2048)


def test_values_at_grid_nodes(branch_42):
    spec = DomainSpec.interval(1.0, 63)
    branch = branch_42[0]
    on_grid = branch.values_at(spec)
    assert on_grid.shape == (63,)
    xs = spec.axes()[0]
    stride = 1024 // 64
    assert np.array_equal(on_grid, branch.values[stride::stride][:63])
    assert np.allclose(branch.xs[stride::stride][:63], xs)


def test_values_at_rejects_incompatible_steps(nl):
    branch = shoot(nl, 1.0, 1.0, 1000)
    with pytest.raises(ValueError, match="land"):
        branch.values_at(DomainSpec.interval(1.0, 63))


def test_sweep_checks_steps(nl):
    # the raw endpoint map takes any step count from 1 up; the floor holds
    # only for the passes whose results are reported
    slopes, below = np.linspace(-60.0, 60.0, 301), oracle.MIN_STEPS - 1
    with pytest.raises(ValueError, match="at least 1 step"):
        sweep(nl, 1.0, slopes, 0)
    assert sweep(nl, 1.0, slopes, below)[0].shape == slopes.shape
    with pytest.raises(ValueError, match=f"at least {oracle.MIN_STEPS} steps"):
        find_branch(nl, 1.0, [(42.0, 42.41)], below)
    with pytest.raises(ValueError, match=f"at least {oracle.MIN_STEPS} steps"):
        shoot(nl, 1.0, 1.0, below)
