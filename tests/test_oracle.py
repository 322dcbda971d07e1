import contextlib
import os
import select
import signal
import sys
import threading
import time
from pathlib import Path

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
    """The branch in the slope bracket (42.0, 42.41) at 4096 steps and its
    mirror in (-42.41, -42.0), refined together."""
    return find_branch(nl, 1.0, [(42.0, 42.41), (-42.41, -42.0)], 4096)


def _reference_rk4(nl, length, slopes, steps, record):
    """Reference RK4 loop that negates k1p..k4p; `_rk4_sweep` subtracts
    g1..g4 instead and must give the same bits."""
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


@pytest.mark.parametrize("steps", [1000, 2048])
@pytest.mark.parametrize("record", [False, True], ids=["sweep", "recorded"])
def test_rk4_step_is_bit_identical_to_reference(nl, steps, record):
    slopes = np.array([-50.0, -7.0, 0.0, 1e-6, 30.0, 42.4, 50.0])
    got = oracle._rk4_sweep(nl, 1.0, slopes, steps, record)
    want = _reference_rk4(nl, 1.0, slopes, steps, record)
    assert want[1].any() and not want[1].all()  # blown and finite lanes both
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)


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


def test_recorded_lanes_stay_frozen_after_blow_up(nl):
    # lanes that leave the cap at different steps are dropped from the sweep;
    # each keeps its frozen u and p in every later recorded row
    slopes = np.array([42.4, 46.0, 50.0, 60.0, -80.0, 7.0])
    end, blown, traj, dtraj = oracle._rk4_sweep(nl, 1.0, slopes, 1000, record=True)
    cap = 10.0 * max(nl.a_plus, -nl.a_minus)
    first = [int(np.argmax(np.abs(traj[:, j]) > cap)) for j in np.flatnonzero(blown)]
    assert blown.sum() == 4 and len(set(first)) == 4
    for j, k in zip(np.flatnonzero(blown), first):
        assert np.all(traj[k:, j] == traj[k, j]) and np.all(dtraj[k:, j] == dtraj[k, j])
        assert end[j] == traj[k, j]
    assert np.array_equal(end, traj[-1])


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
    endpoints, blown = sweep(nl, 1.0, slopes, 4096)
    brackets = sign_change_brackets(slopes, endpoints, blown)
    assert brackets
    (branch,) = find_branch(nl, 1.0, brackets[:1], 4096)
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
    (fine,) = find_branch(nl, 1.0, [(42.0, 42.41)], 8192)
    assert np.max(np.abs(coarse.values[::2] - fine.values[::4])) <= 1e-9
    assert coarse.slope == pytest.approx(fine.slope, abs=1e-8)


def test_find_branch_batched_equals_single(nl):
    brackets = [(42.0, 42.41), (-42.41, -42.0), (35.3, 35.4)]
    batched = find_branch(nl, 1.0, brackets, 2048)
    single = [find_branch(nl, 1.0, [bracket], 2048)[0] for bracket in brackets]
    for got, want in zip(batched, single, strict=True):
        assert got.slope == want.slope and got.endpoint == want.endpoint
        assert got.blown_up == want.blown_up
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.derivatives, want.derivatives)


def _count_integrations(monkeypatch):
    """Record the `record` flag of every RK4 pass, and "shoot" per shot."""
    calls = []
    rk4, shot = oracle._rk4_sweep, oracle.shoot

    def counted(nl, length, slopes, steps, record):
        calls.append(record)
        return rk4(nl, length, slopes, steps, record)
    monkeypatch.setattr(oracle, "_rk4_sweep", counted)
    monkeypatch.setattr(oracle, "shoot",
                        lambda *args: calls.append("shoot") or shot(*args))
    return calls


def test_find_branch_work_count(nl, monkeypatch):
    # every bracket is refined in the same unrecorded sweep each round; the
    # branches found are integrated together in one recorded sweep
    calls = _count_integrations(monkeypatch)
    brackets = [(42.0, 42.41), (-42.41, -42.0), (35.3, 35.4), (-35.4, -35.3)]
    assert len(find_branch(nl, 1.0, brackets, 4096)) == 4
    assert "shoot" not in calls
    assert len(calls) <= 6
    assert calls.count(True) == 1


def test_find_branch_keeps_the_root_when_the_window_misses_it(nl, monkeypatch):
    # the first two windows lie beside the regula-falsi root, left and then
    # right of it; the piece of the sign change outside them keeps the root
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
    (branch,) = find_branch(nl, 1.0, [(35.3, 35.4)], 2048)
    assert len(calls) >= 3
    amplitude = np.max(np.abs(branch.values))
    assert abs(branch.endpoint) <= 1e-12 * max(1.0, amplitude)
    monkeypatch.setattr(oracle, "_window", window)
    assert branch.slope == pytest.approx(find_branch(nl, 1.0, [(35.3, 35.4)], 2048)[0].slope,
                                         abs=1e-12)


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
    stride = 4096 // 64
    assert np.array_equal(on_grid, branch.values[stride::stride][:63])
    assert np.allclose(branch.xs[stride::stride][:63], xs)


def test_values_at_rejects_incompatible_steps(nl):
    branch = shoot(nl, 1.0, 1.0, 1000)
    with pytest.raises(ValueError, match="land"):
        branch.values_at(DomainSpec.interval(1.0, 63))


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="sweep forks only where os.fork exists")
_SPLIT = np.linspace(-60.0, 60.0, 301)  # blown lanes at both ends, finite ones between


def _split_sweeps(monkeypatch):
    """Let `sweep` fork on any machine: 3 CPUs and 64 lanes per worker, so
    the 301 slopes of _SPLIT go to 3 workers of 101, 100 and 100 lanes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(oracle, "_FORK_LANES", 64)


def _assert_serial_bits(nl, endpoints, blown):
    want, want_blown, _, _ = oracle._rk4_sweep(nl, 1.0, _SPLIT, 1000, record=False)
    assert endpoints.tobytes() == want.tobytes() and np.array_equal(blown, want_blown)


def _assert_no_child_left():
    # every worker was reaped: no running child and no zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_workers(monkeypatch, share):
    """Run `share(*args)` instead of `_rk4_sweep` in forked workers only."""
    rk4, caller = oracle._rk4_sweep, os.getpid()
    monkeypatch.setattr(oracle, "_rk4_sweep", lambda *args, **kwargs: (
        rk4 if os.getpid() == caller else share)(*args, **kwargs))


@needs_fork
def test_sweep_split_over_workers_is_bitwise_serial(nl, monkeypatch):
    _split_sweeps(monkeypatch)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    endpoints, blown = sweep(nl, 1.0, _SPLIT, 1000)
    assert len(forks) == 2
    _assert_serial_bits(nl, endpoints, blown)
    assert all(blown[w::3].any() and not blown[w::3].all() for w in range(3))
    _assert_no_child_left()


def test_sweep_without_fork_runs_serially(nl, monkeypatch):
    _split_sweeps(monkeypatch)
    monkeypatch.delattr(os, "fork", raising=False)
    _assert_serial_bits(nl, *sweep(nl, 1.0, _SPLIT, 1000))


@needs_fork
def test_sweep_does_not_fork_beside_other_threads(nl, monkeypatch):
    _split_sweeps(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside another thread"))
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(30.0,))
    other.start()
    try:
        endpoints, blown = sweep(nl, 1.0, _SPLIT, 1000)
    finally:
        done.set()
        other.join(30.0)
    assert not other.is_alive()
    _assert_serial_bits(nl, endpoints, blown)


@needs_fork
def test_sweep_names_a_failed_worker(nl, monkeypatch):
    def fails(*args, **kwargs):
        raise FloatingPointError("a worker's share")
    _split_sweeps(monkeypatch)
    _in_workers(monkeypatch, fails)
    with pytest.raises(oracle.SweepWorkerError,
                       match="^sweep worker 1 exited with status 1$"):
        sweep(nl, 1.0, _SPLIT, 1000)
    _assert_no_child_left()


@needs_fork
def test_sweep_names_a_worker_with_a_short_result(nl, monkeypatch):
    # a share one lane short fails its slice assignment into the shared
    # result, so the worker ends with status 1 like any other failure
    def short(*args, **kwargs):
        end, blown, _, _ = rk4(*args, **kwargs)
        return end[:-1], blown[:-1], None, None
    rk4 = oracle._rk4_sweep
    _split_sweeps(monkeypatch)
    _in_workers(monkeypatch, short)
    with pytest.raises(oracle.SweepWorkerError,
                       match="^sweep worker 1 exited with status 1$"):
        sweep(nl, 1.0, _SPLIT, 1000)
    _assert_no_child_left()


def _running(pid):
    """Whether pid exists and is not a zombie, by the state in /proc/<pid>/stat."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal and /proc are Linux's")
def test_sweep_worker_dies_with_a_killed_caller(nl):
    # a forked caller runs a sweep with one worker, whose share reports its
    # pid and sleeps; SIGKILL of the caller must take the worker with it
    reader, writer = os.pipe()
    if (caller := os.fork()) == 0:
        def sleeps(*args, **kwargs):
            os.write(writer, b"%d\n" % os.getpid())
            time.sleep(60)
        try:
            with pytest.MonkeyPatch.context() as m:
                _split_sweeps(m)
                m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # one worker
                _in_workers(m, sleeps)
                sweep(nl, 1.0, _SPLIT, 1000)
        finally:
            os._exit(0)
    os.close(writer)
    try:
        ready = select.select([reader], [], [], 30.0)[0]
        worker = int(os.read(reader, 64).split()[0]) if ready else None
    finally:
        os.close(reader)
        os.kill(caller, signal.SIGKILL)
        os.waitpid(caller, 0)
    assert worker is not None, "the worker never started its share"
    try:
        deadline = time.monotonic() + 2.0
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(worker), "the worker outlived its killed caller"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(worker, signal.SIGKILL)


@needs_fork
def test_sweep_kills_its_workers_when_the_caller_share_raises(nl, monkeypatch):
    caller = os.getpid()

    def stuck_workers(*args, **kwargs):
        if os.getpid() != caller:
            time.sleep(60)
        raise FloatingPointError("the caller's share")
    _split_sweeps(monkeypatch)
    monkeypatch.setattr(oracle, "_rk4_sweep", stuck_workers)
    start = time.monotonic()
    with pytest.raises(FloatingPointError, match="caller's share"):
        sweep(nl, 1.0, _SPLIT, 1000)
    assert time.monotonic() - start < 30.0  # the sleeping workers were killed
    _assert_no_child_left()


@needs_fork
def test_sweep_checks_steps_before_forking(nl, monkeypatch):
    _split_sweeps(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before checking steps"))
    with pytest.raises(ValueError, match=f"at least {oracle.MIN_RK4_STEPS} RK4 steps"):
        sweep(nl, 1.0, _SPLIT, oracle.MIN_RK4_STEPS - 1)
    _assert_no_child_left()
